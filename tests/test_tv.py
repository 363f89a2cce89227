import math
import random
from fractions import Fraction
from itertools import accumulate, chain

import pytest

from meanexp import tv
from meanexp.arith import MAX_NORM_BOUND, PrimePower, left_sum, primes_between, sieve_primes
from meanexp.errors import DomainError, InfeasibleProblemError, NeedsLargerEnumerationError
from meanexp.tv import (
    A0_REAL,
    A1_COMPLEX,
    GAMMA,
    Candidate,
    CandidateRun,
    TVProblem,
    TVSolution,
    a_coeff,
    alpha_constant,
    assemble_B,
    b_coeff,
    budget,
    mean_exponent_upper,
    optimize,
    per_level_bound,
    universal_B,
    zimmert_lower,
)

G_EX1 = math.log(892371480)


def P(q):
    return PrimePower.from_value(q)


def test_constants():
    assert GAMMA == pytest.approx(0.5772156649015329, abs=1e-15)
    assert A0_REAL == pytest.approx(math.log(2 * math.sqrt(2 * math.pi)) + math.pi / 4 + GAMMA / 2)
    assert A1_COMPLEX == pytest.approx(math.log(8 * math.pi) + GAMMA)


def test_coefficients_decreasing():
    qs = [2, 3, 4, 5, 7, 9, 11, 25, 49, 1000, 10**6]
    for q1, q2 in zip(qs, qs[1:]):
        assert a_coeff(q1) > a_coeff(q2)
        assert b_coeff(q1) > b_coeff(q2)


def test_universal_bounds():
    assert universal_B("GRH") == 1.0939
    assert universal_B("GRH_totally_imaginary") == 1.0765
    assert universal_B("Unconditional") == 1.1589
    assert universal_B("GRH_totally_imaginary") < universal_B("GRH") < universal_B("Unconditional")
    with pytest.raises(DomainError):
        universal_B("nope")


def test_budget():
    assert budget(TVProblem(x0=0, x1=0)) == 1.0
    # worked-example-1 data: x1 = 2/g, one fixed norm-9 slot at 1/g
    prob = TVProblem(x0=0, x1=2 / G_EX1, fixed=((P(9), 1 / G_EX1),))
    expected = 1 - A1_COMPLEX * 2 / G_EX1 - a_coeff(9) / G_EX1
    assert budget(prob) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.5778, abs=5e-4)
    with pytest.raises(DomainError):
        TVProblem(x0=0, x1=0.1, fixed=((P(9), 5.0),))  # per-prime cap violated
    with pytest.raises(InfeasibleProblemError):
        budget(TVProblem(x0=1.0, x1=0))  # a0 > 1 already


def test_optimize_budget_consumed_exactly():
    g = 30.0
    prob = TVProblem(x0=0, x1=2 / g)
    cands = [Candidate(q, q, 4 / g) for q in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]]
    sol = optimize(prob, cands)
    assert sol.ell_star_0 is not None
    assert 0 <= sol.alpha < 1
    consumed = sum(c.weight * a_coeff(c.norm) for c in sol.prefix)
    consumed += sol.alpha * (4 / g) * a_coeff(sol.ell_star_0.norm)
    assert consumed == pytest.approx(sol.budget, rel=1e-9)


def test_optimize_needs_larger_enumeration():
    g = 30.0
    prob = TVProblem(x0=0, x1=2 / g)
    cands = [Candidate(2, 2, 4 / g)]
    with pytest.raises(NeedsLargerEnumerationError):
        optimize(prob, cands)


def test_optimize_degenerate():
    sol = optimize(TVProblem(x0=0, x1=0), [Candidate(q, q, 0.0) for q in (2, 3, 5)])
    assert sol.degenerate
    assert sol.sum_b_bound == 0.0
    assert sol.B_upper == 1.0
    sol2 = optimize(TVProblem(x0=0, x1=0), [])
    assert sol2.degenerate and sol2.B_upper == 1.0


def test_optimize_validates_candidates():
    prob = TVProblem(x0=0, x1=0.1)
    with pytest.raises(DomainError):
        optimize(prob, [Candidate(3, 3, 0.1), Candidate(2, 2, 0.1)])  # not ascending
    with pytest.raises(DomainError):
        optimize(prob, [Candidate(2, 2, 0.1), Candidate(2, 4, 0.1)])  # same prime twice


def test_optimize_monotone_in_budget():
    g = 25.0
    cands = [Candidate(q, q, 4 / g) for q in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]]
    fixed = ((P(9), 1 / g),)
    with_fixed = optimize(TVProblem(x0=0, x1=2 / g, fixed=fixed), [c for c in cands if c.prime != 3])
    without_fixed = optimize(TVProblem(x0=0, x1=2 / g), cands)
    # removing a fixed entry frees budget: the payoff bound cannot drop
    assert without_fixed.sum_b_bound >= with_fixed.sum_b_bound - 1e-12
    # an exclusion (dropping a candidate) cannot raise the bound
    excl = optimize(TVProblem(x0=0, x1=2 / g), [c for c in cands if c.norm != 2])
    assert excl.sum_b_bound <= without_fixed.sum_b_bound + 1e-12


def test_zimmert():
    assert zimmert_lower(0, 0) == 0
    assert zimmert_lower(1, 0) == pytest.approx(1.3607, abs=5e-4)
    assert zimmert_lower(0, 1) == pytest.approx(1.2704, abs=5e-4)


def test_alpha_constant():
    # A = 0 leaves only the signature deduction
    assert alpha_constant(0.0, 123.0, 1, 0) == pytest.approx(-(GAMMA + 1 + math.log(math.pi)) / 2)
    assert alpha_constant(0.0, 123.0, 0, 1) == pytest.approx(-(GAMMA + math.log(2)))
    assert alpha_constant(1.0938, 3.0204, 0, 1) == pytest.approx(2.0334, abs=5e-4)
    # worked-example-1 coarse assembly
    val = alpha_constant(1.0938, G_EX1, 0, 1) / math.log(2)
    assert val == pytest.approx(30.689, abs=1e-3)


def test_mean_exponent_upper():
    assert mean_exponent_upper(1, 2, 0.0, 5) == 5
    assert mean_exponent_upper(2, 2, 2 * math.log(2), 0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        mean_exponent_upper(0, 2, 1.0)


def test_per_level_bound():
    assert per_level_bound(1, 1, 100.0, 3, 0.0, 2) == 3
    assert per_level_bound(5, 0, 100.0, 3, 1.0, 2) == 0.0
    # with d_n = index * t exactly and no tame set, the per-level bound
    # collapses to the assembled bound at rate t and trivial signature
    index, t, B, g = 8, 3, 1.05, 40.0
    lhs = per_level_bound(index, index * t, g, 0, B, 2)
    rhs = mean_exponent_upper(t, 2, alpha_constant(B, g, 0, 0), 0)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_optimize_reads_only_up_to_ell_star_0():
    g = 30.0
    read = []

    def weight(q):
        return (1 + q % 5) / g

    def stream():
        for q in sieve_primes(10**6):
            read.append(q)
            yield Candidate(q, q, weight(q))
        raise AssertionError("read past the end")

    sol = optimize(TVProblem(x0=0, x1=2 / g), stream())
    stop = sol.ell_star_0.norm
    assert read[-1] == stop and weight(stop) != sol.prefix[-1].weight
    payoff = sum(c.weight * b_coeff(c.norm) for c in sol.prefix) + sol.alpha * weight(stop) * b_coeff(stop)
    assert sol.sum_b_bound == pytest.approx(payoff, rel=1e-14)
    listed = optimize(TVProblem(x0=0, x1=2 / g), [Candidate(q, q, weight(q)) for q in read + [10007, 10009]])
    assert listed == sol


def test_optimize_degenerate_uses_common_assembly():
    fixed = ((P(9), 0.01),)
    sol = optimize(TVProblem(x0=0.1, x1=0.02, fixed=fixed), [Candidate(2, 2, 0.0)])
    assert sol.degenerate and sol.ell_star_0 is None and sol.prefix == ()
    assert sol.B_upper == assemble_B(b_coeff(9) * 0.01, 0.1, 0.02)


def _exact_fill(left: Fraction, cands):
    """Fractional knapsack in exact arithmetic, items in descending payoff/budget
    ratio, with a(q) and b(q) rounded once to Fraction: (stop, alpha, payoff)."""
    items = [(c, Fraction(a_coeff(c.norm)), Fraction(b_coeff(c.norm)), Fraction(c.weight)) for c in cands]
    items.sort(key=lambda item: item[2] / item[1], reverse=True)
    payoff = Fraction(0)
    for c, a, b, w in items:
        if w * a <= left:
            left -= w * a
            payoff += w * b
        else:
            alpha = left / (w * a)
            return c, alpha, payoff + alpha * w * b
    return None, Fraction(0), payoff


@pytest.mark.parametrize("seed", range(12))
def test_float_greedy_matches_exact_knapsack(seed):
    rng = random.Random(seed)
    g = rng.uniform(12.0, 40.0)
    x0, x1 = rng.choice([0.0, 1 / g]), rng.choice([1.0, 2.0]) / g
    cands = sorted(
        (Candidate(ell, ell ** rng.choice([1, 1, 1, 2]), rng.choice([0, 1, 2, 4]) / g)
         for ell in sieve_primes(3000) if rng.random() < 0.8),
        key=lambda c: c.norm,
    )
    sol = optimize(TVProblem(x0=x0, x1=x1), cands)
    left = 1 - Fraction(A0_REAL) * Fraction(x0) - Fraction(A1_COMPLEX) * Fraction(x1)
    stop, alpha, payoff = _exact_fill(left, cands)
    assert sol.ell_star_0 is not None and sol.ell_star_0 == stop
    assert abs(sol.alpha - alpha) <= 1e-12
    assert abs(sol.sum_b_bound - payoff) <= 1e-12


def test_norm_order_is_ratio_order():
    """b(q)/a(q), rounded once to Fraction, strictly decreases over q <= 10^5."""
    ratios = [Fraction(b_coeff(q)) / Fraction(a_coeff(q)) for q in range(2, 10**5 + 1)]
    assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))


def _reference_optimize(problem, candidates):
    """The greedy fill one candidate at a time: the reference that
    `optimize`, which reads whole records, is checked against."""
    left = budget(problem)
    filled = []
    ell_star_0 = None
    alpha = 0.0
    consumed = 0.0
    last_norm = 0
    seen_primes: set[int] = set()
    for cand in candidates:
        if cand.norm <= last_norm:
            raise DomainError("candidates must be strictly ascending by norm value")
        if cand.weight < 0:
            raise DomainError("candidate weights must be nonnegative")
        if cand.prime in seen_primes:
            raise DomainError(f"two candidates for prime {cand.prime}")
        seen_primes.add(cand.prime)
        last_norm = cand.norm
        cost = cand.weight * a_coeff(cand.norm)
        if cost <= left - consumed:
            consumed += cost
            if cand.weight > 0:
                filled.append(cand)
        else:
            ell_star_0 = cand
            alpha = (left - consumed) / cost
            break
    degenerate = not filled and ell_star_0 is None
    if ell_star_0 is None and not degenerate and left - consumed > 1e-12:
        raise NeedsLargerEnumerationError(f"candidates exhausted with budget {left - consumed:.6g} unconsumed")

    sum_b = problem.fixed_payoff()
    sum_b += left_sum(cand.weight * b_coeff(cand.norm) for cand in filled)
    if ell_star_0 is not None:
        sum_b += alpha * ell_star_0.weight * b_coeff(ell_star_0.norm)
    return TVSolution(
        ell_star_0=ell_star_0,
        alpha=alpha,
        sum_b_bound=sum_b,
        B_upper=assemble_B(sum_b, problem.x0, problem.x1),
        budget=left,
        filled=tuple(filled),
        degenerate=degenerate,
    )


def _assert_same_fill(got, want):
    """Every `TVSolution` field, `filled` as the candidates it holds, the floats bit for bit."""
    for field in TVSolution._fields:
        name = "prefix" if field == "filled" else field
        a, b = getattr(got, name), getattr(want, name)
        assert a.hex() == b.hex() if isinstance(b, float) else a == b, name


def _expand(records):
    return chain.from_iterable(rec.expand() for rec in records)


def _fill_both(problem, records):
    """optimize over the records, checked against the reference fill over
    the same records expanded to one candidate each."""
    sol = optimize(problem, records)
    _assert_same_fill(sol, _reference_optimize(problem, _expand(records)))
    return sol


def _rejected_by_both(problem, records, message):
    """optimize and the reference fill reject the records with the same message."""
    for fill, arg in ((optimize, records), (_reference_optimize, _expand(records))):
        with pytest.raises(DomainError, match=message):
            fill(problem, arg)


def test_run_checks_ascending_order_across_its_boundaries():
    prob = TVProblem(x0=0, x1=0.1)
    for records in (
        [CandidateRun([2, 3, 5], 0.01), Candidate(5, 5, 0.01)],
        [Candidate(7, 7, 0.01), CandidateRun([5, 11], 0.01)],
        [CandidateRun([2, 3], 0.01), CandidateRun([3, 5], 0.01)],
        [CandidateRun([3, 2], 0.01)],
        [CandidateRun([2, 5, 7, 7], 0.01)],
    ):
        _rejected_by_both(prob, records, "strictly ascending")
    _rejected_by_both(prob, [CandidateRun([1, 2], 0.01)], "^norm must be >= 2, got 1$")
    # a single record of norm 1 gets the message a_coeff gives
    _rejected_by_both(prob, [Candidate(1, 1, 0.01)], "^norm must be >= 2, got 1$")
    records = [CandidateRun([2, 3], 0.01), Candidate(5, 25, 0.01), CandidateRun([29, 31], 0.01), Candidate(37, 37, 10.0)]
    sol = _fill_both(prob, records)
    assert [c.norm for c in sol.prefix] == [2, 3, 25, 29, 31]


def test_run_and_single_record_for_one_prime():
    prob = TVProblem(x0=0, x1=0.1)
    for ell, records in (
        (3, [CandidateRun([2, 3, 5], 0.01), Candidate(3, 9, 0.01)]),
        (2, [CandidateRun([2, 3, 5], 0.01), Candidate(2, 8, 0.01)]),
        (5, [CandidateRun([2, 3, 5], 0.01), CandidateRun([7], 0.01), Candidate(5, 25, 0.01)]),
        (3, [Candidate(3, 3, 0.01), CandidateRun([5, 7], 0.01), Candidate(3, 9, 0.01)]),
        (2, [Candidate(2, 2, 0.01), Candidate(2, 4, 0.01)]),
    ):
        _rejected_by_both(prob, records, f"^two candidates for prime {ell}$")


def test_run_weight_must_be_nonnegative():
    _rejected_by_both(TVProblem(x0=0, x1=0.1), [CandidateRun([2, 3], -0.01)], "^candidate weights must be nonnegative$")


def test_empty_run_is_skipped():
    g = 30.0
    prob = TVProblem(x0=0, x1=2 / g)
    empty = CandidateRun((), -1.0)
    sol = _fill_both(prob, [empty, Candidate(2, 2, 1 / g), empty, CandidateRun((3, 5, 7), 1 / g), empty]
                     + [Candidate(q, q, 1 / g) for q in sieve_primes(200)[4:]])
    assert [c.norm for c in sol.prefix[:5]] == [2, 3, 5, 7, 11] and empty not in sol.filled
    assert optimize(TVProblem(x0=0, x1=0), [empty, CandidateRun([], 0.01)]).degenerate


def test_zero_weight_run_fills_nothing():
    g = 30.0
    sol = _fill_both(TVProblem(x0=0, x1=2 / g), [CandidateRun([2, 3], 0.0)] + [
        Candidate(q, q, 4 / g) for q in sieve_primes(200)[2:]])
    assert sol.prefix[0].norm == 5 and all(isinstance(rec, Candidate) for rec in sol.filled)


def test_run_stop_at_its_first_prime():
    g = 30.0
    prob = TVProblem(x0=0, x1=2 / g)
    first = Candidate(2, 2, 0.999 * budget(prob) / a_coeff(2))
    run = CandidateRun(sieve_primes(200)[1:], 4 / g)
    sol = _fill_both(prob, [first, run])
    assert sol.filled == (first,)
    assert sol.ell_star_0 == Candidate(3, 3, 4 / g) and 0 < sol.alpha < 1


def test_run_stop_in_its_middle():
    g = 30.0
    run = CandidateRun(sieve_primes(200), 4 / g)
    sol = _fill_both(TVProblem(x0=0, x1=2 / g), [run])
    stop = run.primes.index(sol.ell_star_0.norm)
    assert 0 < stop < len(run.primes) - 1
    assert sol.filled == (run.head(stop),) and sol.ell_star_0 == run.candidate(run.primes[stop])


def test_run_fills_to_its_last_prime_when_the_budget_ends_there():
    # a weight, within 2000 ulps of left / sum(a), whose running total ends
    # exactly at the budget: the last prime passes the fit test with equality
    prob = TVProblem(x0=0, x1=0.1)
    left, primes = budget(prob), [2, 3, 5, 7, 11]
    w0 = left / sum(a_coeff(q) for q in primes)
    for k in range(-2000, 2000):
        run = CandidateRun(primes, w0 + k * math.ulp(w0))
        costs = list(run.costs())
        totals = list(accumulate(costs))
        if totals[-1] == left and costs[-1] == left - totals[-2]:
            break
    else:
        pytest.fail("no weight puts the budget's end at the last prime")
    sol = _fill_both(prob, [run, Candidate(13, 13, run.weight)])
    assert sol.filled == (run,)
    assert sol.ell_star_0 == Candidate(13, 13, run.weight) and sol.alpha == 0.0


def test_record_coefficients_are_the_formula_bit_for_bit(monkeypatch):
    """costs() and payoffs() give the float of today's expression, by
    float.hex, read from empty per-process tables and again from the filled
    ones; only norms up to MAX_NORM_BOUND are kept."""
    monkeypatch.setattr(tv, "_A_OF", {})
    monkeypatch.setattr(tv, "_B_OF", {})
    primes = sieve_primes(3000) + primes_between(MAX_NORM_BOUND - 300, MAX_NORM_BOUND + 300)
    # squares of the primes from 1423 on lie past the bound
    squares = [Candidate(q, q * q, 0.5) for q in sieve_primes(2000)]
    records = [CandidateRun(tuple(primes), 4 / G_EX1), CandidateRun(tuple(primes[::7]), 1.0), *squares]
    records += [Candidate(q, q, w) for q in primes[::50] for w in (0.25, 1 / 3, 7.0)]

    def formula(rec):
        w = rec.weight
        return ([(w * (math.log(q) / (math.sqrt(q) - 1.0))).hex() for q in map(float, rec.norms)],
                [(w * math.log(q / (q - 1.0))).hex() for q in map(float, rec.norms)])

    for _ in ("cold", "warm"):
        for rec in records:
            got = ([c.hex() for c in rec.costs()], [b.hex() for b in rec.payoffs()])
            assert got == formula(rec), rec
    norms = {q for rec in records for q in rec.norms}
    kept = {q for q in norms if q <= MAX_NORM_BOUND}
    assert set(tv._A_OF) == set(tv._B_OF) == kept and len(kept) < len(norms)
