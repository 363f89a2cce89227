"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Every numeric clause is asserted at its stated tolerance.  Clauses that a
correct implementation cannot reproduce (published intermediates that are
inconsistent with their own stated data) are asserted as stated anyway and
fail; the per-scenario published_reference notes in the packaged scenario files
document each such gap.
"""

import decimal
import random
import time

from meanexp.arith import sieve_primes
from meanexp.cli import run_packaged_example
from meanexp.fields import biquadratic_field, norms_above
from meanexp.groups import mean_exponent, order_log, rank
from meanexp.oracle import class_group_structure, class_number, random_law_check
from meanexp.propgroups import (
    GSGroupParams,
    b_power_of_two,
    gs_series,
    index_log,
    power_sum_check,
    reconstruct_series,
    window_rank,
    zassenhaus_ranks,
)
from meanexp.towers import GSVerdict, critere_real_quadratic, genus_rank_bound, gs_verdict
from meanexp import tv

_REPORTS: dict[str, tuple[dict, float]] = {}


def scenario_report(name: str) -> tuple[dict, float]:
    if name not in _REPORTS:
        start = time.perf_counter()
        report = run_packaged_example(name)
        _REPORTS[name] = (report, time.perf_counter() - start)
    return _REPORTS[name]


class Criterion:
    def __init__(self, number: int, title: str):
        self.number = number
        self.title = title
        self.failures: list[str] = []
        self.lines: list[str] = []

    def check(self, clause: str, ok: bool, detail: str = ""):
        tag = "pass" if ok else "FAIL"
        self.lines.append(f"  [{tag}] {clause}: {detail}")
        if not ok:
            self.failures.append(f"{clause}: {detail}")

    def close(self):
        verdict = "PASS" if not self.failures else "FAIL"
        print(f"ACCEPTANCE {verdict} criterion {self.number}: {self.title}")
        for line in self.lines:
            print(line)
        assert not self.failures, (
            f"criterion {self.number} clauses failed: " + "; ".join(self.failures)
        )


def within(value, target, tol):
    return abs(value - target) <= tol


def test_criterion_1_example1_coarse():
    c = Criterion(1, "worked example 1, coarse bound")
    report, seconds = scenario_report("example1")
    coarse = report["bounds"]["coarse"]["bound"]
    c.check("coarse bound = 30.683 +- 0.05", within(coarse, 30.683, 0.05), f"got {coarse:.4f}")
    c.check("runtime < 0.1 s", seconds < 0.1, f"took {seconds:.4f} s")
    c.close()


def test_criterion_2_example1_refined():
    c = Criterion(2, "worked example 1, refined bound")
    report, seconds = scenario_report("example1")
    t = report["tv"]
    c.check("ell_star_0 == 37", t["ell_star_0"] == 37, f"got {t['ell_star_0']}")
    c.check("B_upper in [0.87, 0.885]", 0.87 <= t["B_upper"] <= 0.885, f"got {t['B_upper']:.5f}")
    final = report["bounds"]["refined"]["bound"]
    c.check("final bound = 24.10 +- 0.30", within(final, 24.10, 0.30), f"got {final:.4f}")
    c.check("runtime < 0.1 s", seconds < 0.1, f"took {seconds:.4f} s")
    c.close()


def test_criterion_3_example2():
    c = Criterion(3, "worked example 2")
    report, seconds = scenario_report("example2")
    t = report["tv"]
    A = t["budget_after_nonsplit_prefix_scaled"]
    c.check("A = 103.774 +- 0.2", within(A, 103.774, 0.2), f"got {A:.4f}")
    c.check("ell_star_0 == 3877", t["ell_star_0"] == 3877, f"got {t['ell_star_0']}")
    c.check("alpha = 0.980 +- 0.01", within(t["alpha"], 0.980, 0.01), f"got {t['alpha']:.5f}")
    c.check("sum_b = 3.348 +- 0.02", within(t["sum_b_scaled"], 3.348, 0.02), f"got {t['sum_b_scaled']:.4f}")
    c.check("B_upper = 1.0142 +- 0.005", within(t["B_upper"], 1.0142, 0.005), f"got {t['B_upper']:.5f}")
    final = report["bounds"]["refined"]["bound"]
    c.check("final bound = 9.098 +- 0.15", within(final, 9.098, 0.15), f"got {final:.4f}")
    c.check(
        "127 split places below ell_star_0",
        t["split_primes_below_ell_star_0"] == 127,
        f"got {t['split_primes_below_ell_star_0']}",
    )
    c.check("runtime < 1 s", seconds < 1.0, f"took {seconds:.4f} s")
    c.close()


def test_criterion_4_example3():
    c = Criterion(4, "worked example 3")
    report, seconds = scenario_report("example3")
    t = report["tv"]
    c.check("ell_star_0 == 1249", t["ell_star_0"] == 1249, f"got {t['ell_star_0']}")
    # field-level count of totally split primes below the published stop
    field = biquadratic_field(
        [2, 2, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53],
        [-1, 59, 61, 67, 71, 73, 79, 83, 97, 101],
    )
    split_count = sum(1 for ell in sieve_primes(1248) if norms_above(field, ell) == [(ell, 4)])
    c.check("47 split primes below 1249", split_count == 47, f"got {split_count}")
    c.check("B_upper = 0.951 +- 0.005", within(t["B_upper"], 0.951, 0.005), f"got {t['B_upper']:.5f}")
    final = report["bounds"]["refined"]["bound"]
    c.check("final bound = 8.857 +- 0.10", within(final, 8.857, 0.10), f"got {final:.4f}")
    c.check("runtime < 1 s", seconds < 1.0, f"took {seconds:.4f} s")
    c.close()


def test_criterion_5_example4():
    c = Criterion(5, "worked example 4")
    report, _seconds = scenario_report("example4")
    t = report["tv"]
    c.check("ell_star_0 == 647", t["ell_star_0"] == 647, f"got {t['ell_star_0']}")
    c.check("alpha = 0.072 +- 0.01", within(t["alpha"], 0.072, 0.01), f"got {t['alpha']:.5f}")
    c.check("sum_b = 1.993 +- 0.01", within(t["sum_b_scaled"], 1.993, 0.01), f"got {t['sum_b_scaled']:.4f}")
    c.check("B_upper = 0.9733 +- 0.005", within(t["B_upper"], 0.9733, 0.005), f"got {t['B_upper']:.5f}")
    final = report["bounds"]["refined"]["bound"]
    c.check("final bound = 9.657 +- 0.10", within(final, 9.657, 0.10), f"got {final:.4f}")
    c.close()


def test_criterion_6_example5():
    c = Criterion(6, "worked example 5")
    report, _seconds = scenario_report("example5")
    t = report["tv"]
    c.check("ell_star_0 == 1069", t["ell_star_0"] == 1069, f"got {t['ell_star_0']}")
    c.check("B_upper = 1.013 +- 0.005", within(t["B_upper"], 1.013, 0.005), f"got {t['B_upper']:.5f}")
    final = report["bounds"]["refined"]["bound"]
    c.check("final bound = 10.022 +- 0.10", within(final, 10.022, 0.10), f"got {final:.4f}")
    c.close()


def test_criterion_7_series_round_trip():
    c = Criterion(7, "dimension-series round trips")
    ok_round = ok_power = ok_b2 = True
    for d, r in [(4, 4), (5, 6), (6, 9)]:
        params2 = GSGroupParams(d=d, r=r, p=2)
        series = gs_series(params2, 64)
        for p in (3, 5):
            ranks = zassenhaus_ranks(series, p, 64)
            if reconstruct_series(ranks, 64).coeffs != series.coeffs[:65]:
                ok_round = False
            params = GSGroupParams(d=d, r=r, p=p)
            for m in range(1, 31):
                if m % p and not power_sum_check(params, m, ranks):
                    ok_power = False
            for n in (1, 2, 3, 4):
                if b_power_of_two(params, n) != ranks.rank(2**n):
                    ok_b2 = False
    c.check("product reconstruction exact to order 64", ok_round)
    c.check("power-sum identity for all m <= 30 coprime to p", ok_power)
    c.check("power-of-two ranks agree at 2, 4, 8, 16", ok_b2)
    c.close()


def test_criterion_8_oracle_suite():
    c = Criterion(8, "class-group oracle")
    start = time.perf_counter()
    c.check("h(-23) = 3", class_number(-23) == 3, f"got {class_number(-23)}")
    c.check("h(-47) = 5", class_number(-47) == 5, f"got {class_number(-47)}")
    c.check("h(-4) = 1", class_number(-4) == 1, f"got {class_number(-4)}")
    two_rank = rank(class_group_structure(-4620, 2))
    c.check("2-rank of Cl(-4620) = 4", two_rank == 4, f"got {two_rank}")
    gb = genus_rank_bound(6, 1, 0, 1)
    c.check("genus_rank_bound(6,1,0,1) = 4", gb == 4, f"got {gb}")
    rng = random.Random(42)
    laws_ok = True
    for _ in range(50):
        D = -rng.randrange(3, 10**5)
        while D % 4 not in (0, 1):
            D -= 1
        try:
            random_law_check(D, trials=3, rng=rng)
        except Exception as exc:  # noqa: BLE001 - report any law failure
            laws_ok = False
            detail = f"{D}: {exc}"
            break
    c.check("group laws on 50 random discriminants", laws_ok, "" if laws_ok else detail)
    seconds = time.perf_counter() - start
    c.check("runtime < 30 s", seconds < 30.0, f"took {seconds:.2f} s")
    c.close()


def test_criterion_9_criteria_regression():
    c = Criterion(9, "criteria regression")
    c.check(
        "gs_verdict(16, 48) = must_be_infinite",
        gs_verdict(16, 48) is GSVerdict.MUST_BE_INFINITE,
    )
    c.check("worked-example-1 tower criterion", critere_real_quadratic(8, 0, 1) is True)
    rng = random.Random(20260810)
    decimal.getcontext().prec = 60
    agree = True
    for _ in range(10**4):
        rho = rng.randrange(0, 10**6)
        a = rng.randrange(0, 10**6)
        b = rng.randrange(0, 10**6)
        exact = (rho - a) >= 0 and (rho - a) ** 2 >= 4 * b
        hp = decimal.Decimal(rho) >= decimal.Decimal(a) + 2 * decimal.Decimal(b).sqrt()
        if exact != hp:
            agree = False
            break
    c.check("exact comparison matches high-precision floats on 10^4 instances", agree)
    c.close()


def test_criterion_10_property_floor():
    """Representative bundle of the per-module invariants; the full property
    suites live in the per-module test files and run in the same session."""
    c = Criterion(10, "module property floor")

    from meanexp.arith import kronecker
    mult_ok = all(
        kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)
        for a in range(-30, 31)
        for m in (3, 5, 9, 15)
        for n in (3, 7, 21)
    )
    c.check("Kronecker multiplicativity", mult_ok)

    from meanexp.groups import AbelianPShape
    shapes = [AbelianPShape(2, tuple(e)) for e in [(1,), (3, 1), (2, 2, 1), (5,)]]
    bounds_ok = all(1 <= mean_exponent(s) <= order_log(s) for s in shapes)
    c.check("mean exponent within [1, order_log]", bounds_ok)

    g = 25.0
    from meanexp.arith import PrimePower
    cands = [tv.Candidate(q, q, 4 / g) for q in sieve_primes(200)]
    full = tv.optimize(tv.TVProblem(x0=0, x1=2 / g), cands)
    fixed = tv.optimize(
        tv.TVProblem(x0=0, x1=2 / g, fixed=((PrimePower.from_value(9), 1 / g),)),
        [cd for cd in cands if cd.prime != 3],
    )
    c.check("optimizer monotone under freed budget", full.sum_b_bound >= fixed.sum_b_bound - 1e-12)

    params = GSGroupParams(d=4, r=4, p=3)
    ranks = zassenhaus_ranks(gs_series(params, 32), 3, 32)
    telescopes = all(
        window_rank(ranks, n) == index_log(ranks, n + 1) - index_log(ranks, n) for n in range(4)
    )
    c.check("window ranks telescope", telescopes)
    c.close()
