import functools
import itertools
import math
import random

import pytest

from meanexp import cli, propgroups
from meanexp.arith import sieve_primes
from meanexp.errors import DomainError, InapplicableError, SeriesError
from meanexp.propgroups import (
    WITNESS_N_MAX,
    GSGroupParams,
    SeriesExpansion,
    ZassenhausRanks,
    _float_log_ranks,
    b_power_of_two,
    gs_ranks,
    gs_series,
    index_log,
    power_sum_check,
    power_sums,
    theo2_witnesses,
    uniform_lower,
    prop_theo1_bound,
    window_rank,
    zassenhaus_ranks,
)

GRID = [(4, 4), (5, 6), (6, 9)]


def _moebius_table(n: int) -> list[int]:
    """mu(0..n) by sieving: flip the sign on multiples of each prime q,
    zero the multiples of q^2 (mu[0] is unused).  The Moebius values of the
    reference routes below, independent of the strided pass."""
    mu = [1] * (n + 1)
    for q in sieve_primes(n) if n >= 2 else ():
        for m in range(q, n + 1, q):
            mu[m] = -mu[m]
        for m in range(q * q, n + 1, q * q):
            mu[m] = 0
    return mu


def reconstruct_series(ranks: ZassenhausRanks, order: int) -> SeriesExpansion:
    """Expand prod_i (1 + T^i + ... + T^{(p-1)i})^{b_i} to the given order.

    Independent of the extraction route (plain truncated-polynomial
    arithmetic), so a round trip through zassenhaus_ranks is a real check.
    """
    p = ranks.p
    coeffs = [1] + [0] * order
    for i, bi in enumerate(ranks.b, start=1):
        if i > order:
            break
        if bi == 0:
            continue
        # multiply by (1 - T^{p*i})^{b_i} * (1 - T^i)^{-b_i}
        factor = [0] * (order + 1)
        for j in range(0, order // (p * i) + 1):
            factor[p * i * j] = (-1) ** j * math.comb(bi, j) if j <= bi else 0
        inv = [0] * (order + 1)
        for k in range(0, order // i + 1):
            inv[i * k] = math.comb(bi + k - 1, k)
        mixed = _poly_mul(factor, inv, order)
        coeffs = _poly_mul(coeffs, mixed, order)
    return SeriesExpansion(tuple(coeffs))


def _poly_mul(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > order:
            continue
        for j, bj in enumerate(b):
            if j > order - i:
                break
            if bj:
                out[i + j] += ai * bj
    return out


def _reference_ranks(series: SeriesExpansion, p: int, order: int) -> tuple[int, ...]:
    """The series-based route: invert the series alongside the Newton power
    sums, fold in the p-th powers, then Moebius strides in place (k
    descending, so v[k] is still V_k when read) and the checks in order."""
    coeffs = series.coeffs[: order + 1]
    support = []
    v = [0] * (order + 1)
    for m in range(1, order + 1):
        e_m = -coeffs[m] - sum(e_j * coeffs[m - j] for j, e_j in support)
        v[m] = -m * e_m - sum(e_j * v[m - j] for j, e_j in support)
        if e_m:
            support.append((m, e_m))
    for m in range(p, order + 1, p):
        v[m] += p * v[m // p]
    mu = _moebius_table(order)
    for k in range(order // 2, 0, -1):
        v_k = v[k]
        for e in range(2, order // k + 1):
            if mu[e]:
                v[e * k] += mu[e] * v_k
    for i in range(1, order + 1):
        if v[i] % i != 0:
            raise SeriesError(f"rank b_{i} is not integral ({v[i]}/{i})")
        v[i] //= i
        if v[i] < 0:
            raise SeriesError(f"rank b_{i} = {v[i]} < 0: series is not realizable at p = {p}")
    return tuple(v[1:])


def _reference_outcome(params: GSGroupParams, order: int):
    """b from gs_series and the reference route, or the error it raises."""
    try:
        return _reference_ranks(gs_series(params, order), params.p, order)
    except (DomainError, SeriesError) as exc:
        return type(exc), str(exc)


def _outcome(params: GSGroupParams, order: int):
    try:
        return gs_ranks(params, order).b
    except (DomainError, SeriesError) as exc:
        return type(exc), str(exc)


def test_gs_series_examples():
    assert gs_series(GSGroupParams(d=4, r=4, p=2), 4).coeffs == (1, 4, 12, 32, 80)
    # 1/(1 - 2T + T^2) = sum (n+1) T^n
    assert gs_series(GSGroupParams(d=2, r=1, p=2), 3).coeffs == (1, 2, 3, 4)
    assert gs_series(GSGroupParams(d=1, r=0, p=2), 3).coeffs == (1, 1, 1, 1)


def test_gs_series_rejects_negative_coefficients():
    with pytest.raises(SeriesError):
        gs_series(GSGroupParams(d=1, r=1, p=2), 4)


def test_power_sums():
    s = power_sums(4, 4, 4)
    assert s == [2, 4, 8, 16, 32]


def test_zassenhaus_ranks_example():
    series = gs_series(GSGroupParams(d=4, r=4, p=3), 8)
    ranks = zassenhaus_ranks(series, 3, 8)
    assert ranks.b[:3] == (4, 2, 8)
    assert ranks.b[3] == 6
    # first-order coefficient pins b_1
    assert ranks.b[0] == series.coeffs[1]


def test_zassenhaus_large_p_degenerates():
    # factors with p - 1 >= N terms behave identically for every large p
    series = gs_series(GSGroupParams(d=4, r=4, p=2), 8)
    big1 = zassenhaus_ranks(series, 11, 8)
    big2 = zassenhaus_ranks(series, 101, 8)
    assert big1.b == big2.b


def test_round_trip_exact():
    for d, r in GRID:
        series = gs_series(GSGroupParams(d=d, r=r, p=2), 64)
        for p in (3, 5):
            ranks = zassenhaus_ranks(series, p, 64)
            back = reconstruct_series(ranks, 64)
            assert back.coeffs == series.coeffs[:65], (d, r, p)


def test_round_trip_from_random_ranks():
    # these series do not come from gs_series, so their inverse is dense and
    # the extraction runs on its general path
    rng = random.Random(20151)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7))
        order = rng.randint(1, 40)
        b = tuple(rng.randint(0, 4) for _ in range(order))
        series = reconstruct_series(ZassenhausRanks(p=p, b=b), order)
        assert zassenhaus_ranks(series, p, order).b == b, (p, b)


def test_moebius_table():
    mu = _moebius_table(300)
    assert mu[1:11] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    for n in range(1, 301):
        assert sum(mu[e] for e in range(1, n + 1) if n % e == 0) == (n == 1), n
    assert _moebius_table(1) == [1, 1]


def test_all_ranks_nonnegative_for_gs_type():
    for d, r in GRID:
        assert d * d >= 4 * r and r >= d
        series = gs_series(GSGroupParams(d=d, r=r, p=2), 64)
        for p in (3, 5):
            ranks = zassenhaus_ranks(series, p, 64)
            assert all(b >= 0 for b in ranks.b)


def test_power_sum_check():
    params = GSGroupParams(d=4, r=4, p=3)
    series = gs_series(params, 32)
    ranks = zassenhaus_ranks(series, 3, 32)
    assert power_sum_check(params, 2, ranks)  # s_2 = 8 = b_1 + 2 b_2
    with pytest.raises(InapplicableError):
        power_sum_check(params, 3, ranks)
    # ... and the identity genuinely fails at p | m: b_3 = 8 but the
    # power-sum route would need (s_3 - s_1)/3 = 4
    s = power_sums(4, 4, 3)
    assert (s[3] - s[1]) // 3 == 4 and ranks.rank(3) == 8

    params5 = GSGroupParams(d=4, r=4, p=5)
    ranks5 = zassenhaus_ranks(gs_series(params5, 8), 5, 8)
    assert ranks5.rank(3) == 4
    assert power_sum_check(params5, 3, ranks5)


def test_power_sum_check_grid():
    for d, r in GRID:
        for p in (3, 5):
            params = GSGroupParams(d=d, r=r, p=p)
            ranks = zassenhaus_ranks(gs_series(params, 32), p, 32)
            for m in range(1, 31):
                if m % p:
                    assert power_sum_check(params, m, ranks), (d, r, p, m)


def test_b_power_of_two():
    params = GSGroupParams(d=4, r=4, p=3)
    assert b_power_of_two(params, 1) == 2
    assert b_power_of_two(params, 2) == 6  # (s_4 - s_2)/4 = (32 - 8)/4
    ranks = zassenhaus_ranks(gs_series(params, 16), 3, 16)
    for n in (1, 2, 3, 4):
        assert b_power_of_two(params, n) == ranks.rank(2**n)
    with pytest.raises(InapplicableError):
        b_power_of_two(GSGroupParams(d=4, r=4, p=2), 1)


def test_b_power_of_two_degenerate_double_root():
    # d = 2, r = 1 has a double root at 1: s_m = 2 for all m, so every
    # power-of-two rank above b_1 vanishes
    params = GSGroupParams(d=2, r=1, p=3)
    for n in (1, 2, 3):
        assert b_power_of_two(params, n) == 0


def test_index_and_window():
    params = GSGroupParams(d=4, r=4, p=3)
    ranks = zassenhaus_ranks(gs_series(params, 16), 3, 16)
    assert index_log(ranks, 0) == 0
    assert index_log(ranks, 1) == 4
    assert window_rank(ranks, 1) == 10  # b_2 + b_3
    for n in (0, 1, 2):
        assert window_rank(ranks, n) == index_log(ranks, n + 1) - index_log(ranks, n)
    with pytest.raises(DomainError):
        window_rank(ranks, 4)


def test_witnesses_exact():
    params = GSGroupParams(d=4, r=4, p=3)
    rows = theo2_witnesses(params, 0.5, 6)
    assert len(rows) == 6
    assert all(row.regime == "exact" for row in rows)
    assert any(row.satisfied for row in rows)
    # the scan reads the same ranks as a direct extraction
    ranks = zassenhaus_ranks(gs_series(params, 16), 3, 16)
    assert rows[0].index_log == index_log(ranks, 1)
    assert rows[1].window_rank == window_rank(ranks, 2)


def test_witnesses_p2_via_series_matching():
    rows = theo2_witnesses(GSGroupParams(d=4, r=4, p=2), 0.5, 4)
    assert all(row.regime == "exact" for row in rows)
    ranks = zassenhaus_ranks(gs_series(GSGroupParams(d=4, r=4, p=2), 32), 2, 32)
    assert rows[2].index_log == index_log(ranks, 3)
    assert rows[2].window_rank == window_rank(ranks, 3)


def test_witnesses_epsilon_monotone():
    params = GSGroupParams(d=5, r=6, p=3)
    rows_tight = theo2_witnesses(params, 0.1, 6)
    rows_loose = theo2_witnesses(params, 0.9, 6)
    for tight, loose in zip(rows_tight, rows_loose):
        if tight.satisfied:
            assert loose.satisfied


def test_witnesses_float_regime_matches_exact():
    # the first two float rows against the logs of the exact ranks to 2^14 - 1
    for d, r, p in ((4, 4, 3), (5, 2, 2), (3, 2, 5)):
        params = GSGroupParams(d=d, r=r, p=p)
        rows = theo2_witnesses(params, 0.5, 13)
        ranks = gs_ranks(params, 2**14 - 1)
        for row in rows[11:]:
            assert row.regime == "float-log"
            want = math.log(index_log(ranks, row.n)), math.log(window_rank(ranks, row.n))
            assert row.index_log == pytest.approx(want[0], rel=1e-12, abs=0), (d, r, p, row.n)
            assert row.window_rank == pytest.approx(want[1], rel=1e-12, abs=0), (d, r, p, row.n)


def test_witnesses_float_regime_rejects_non_quadratic(capsys):
    # the float-log regime models X^2 - d*X + r only; other degrees must not
    # silently reuse it
    params = GSGroupParams(d=4, r=3, p=3, relation_degrees=(2, 3, 5))
    with pytest.raises(InapplicableError):
        theo2_witnesses(params, 0.5, 12)
    argv = ["propgroup", "witnesses", "--d", "4", "--r", "3", "--p", "3", "--degrees", "2,3,5"]
    assert cli.main([*argv, "--N", "12"]) == 2
    assert "float regime needs quadratic relations" in capsys.readouterr().err
    # rows up to n = 11 fit under the limit and read the exact ranks, in the
    # log domain once they outgrow a float
    rows = theo2_witnesses(params, 0.5, 11)
    ranks = zassenhaus_ranks(gs_series(params, 4095), 3, 4095)
    assert rows[2].regime == "exact"
    assert (rows[2].index_log, rows[2].window_rank) == (index_log(ranks, 3), window_rank(ranks, 3))
    il, wr = index_log(ranks, 11), window_rank(ranks, 11)
    assert (rows[10].index_log, rows[10].window_rank) == (math.log(il), math.log(wr))


def test_witnesses_survive_float_overflow_boundary():
    # around n = 10-11 the exact window ranks outgrow raw floats; rows must
    # switch to the log representation without breaking the telescoping
    params = GSGroupParams(d=4, r=4, p=3)
    rows = theo2_witnesses(params, 0.5, 12)
    regimes = [row.regime for row in rows]
    assert "exact" in regimes and "float-log" in regimes
    for prev, nxt in zip(rows, rows[1:]):
        if prev.regime == "float-log" and nxt.regime == "float-log":
            # log(index at n+1) == log(window at n) + log(1 + index/window)
            assert nxt.index_log >= prev.window_rank - 1e-9
    assert all(row.satisfied for row in rows)
    # below the exact limit a row in the log domain holds the logs of the exact ranks
    ranks = gs_ranks(params, 2**12 - 1)
    overflowed = [row for row in rows if row.regime == "float-log" and 2 ** (row.n + 1) - 1 <= 4096]
    assert overflowed
    for row in overflowed:
        il, wr = index_log(ranks, row.n), window_rank(ranks, row.n)
        assert (row.index_log, row.window_rank) == (math.log(il), math.log(wr))
        assert row.rhs == 1.5 * row.index_log and row.satisfied == (row.window_rank >= row.rhs)


@functools.cache
def _full_window_log_sum(d, r, p, lo, hi):
    """log of sum(b_i, lo <= i < hi) over every term of the window: the
    float-log regime before it kept only the top terms."""
    disc = d * d - 4 * r
    alpha = (d + math.sqrt(disc)) / 2.0
    beta = (d - math.sqrt(disc)) / 2.0
    log_alpha = math.log(alpha)

    def log_s(m):
        base = m * log_alpha
        if beta > 0:
            ratio = m * (math.log(beta) - log_alpha)
            if ratio > -700:
                return base + math.log1p(math.exp(ratio))
        return base

    def log_V(m):
        out = log_s(m)
        if m % p == 0 and (m - m // p) * log_alpha < 750:
            mm = m
            scale = 1.0
            while mm % p == 0:
                mm //= p
                scale *= p
                delta = log_s(mm) + math.log(scale) - out
                if delta > -700:
                    out += math.log1p(math.exp(delta))
        return out

    top = 0
    while top + 1 < hi and (top + 1 - (top + 1) // 2) * log_alpha < 750:
        top += 1
    mu = _moebius_table(top)
    divisors = [[] for _ in range(lo, top + 1)]
    for e in range(2, top + 1):
        if mu[e]:
            for i in range(-(-lo // e) * e, top + 1, e):
                divisors[i - lo].append(e)
    terms = []
    for i in range(lo, hi):
        lv = log_V(i)
        corr = 0.0
        for e in divisors[i - lo] if i <= top else ():
            delta = log_V(i // e) - lv
            if delta > -700:
                corr += mu[e] * math.exp(delta)
        terms.append(lv + math.log1p(max(corr, -0.999999)) - math.log(i))
    peak = max(terms)
    return peak + math.log(sum(math.exp(t - peak) for t in terms))


TOP_K_TRIPLES = [(4, 4, 3), (5, 4, 2), (6, 5, 5), (3, 2, 3)]


@pytest.mark.parametrize("d, r, p", TOP_K_TRIPLES)
def test_float_log_top_terms_match_full_window(d, r, p):
    # below order 4,095 the function models no window: it sums s_i/i only
    params = GSGroupParams(d=d, r=r, p=p)
    for n in range(12, 17):
        for lo, hi in ((1, 2**n), (2**n, 2 ** (n + 1))):
            want = _full_window_log_sum(d, r, p, lo, hi)
            assert _float_log_ranks(params, lo, hi) == pytest.approx(want, rel=1e-15, abs=0), (n, lo)


def test_float_log_witness_rows_unchanged():
    rows = theo2_witnesses(GSGroupParams(d=4, r=4, p=3), 0.5, 16)
    # n <= 11 reads the exact ranks to order 4095; n = 12..16 the float regime
    assert [row.n for row in rows] == list(range(1, 17))
    for row in rows[11:]:
        assert row.regime == "float-log"
        il = _full_window_log_sum(4, 4, 3, 1, 2**row.n)
        wr = _full_window_log_sum(4, 4, 3, 2**row.n, 2 ** (row.n + 1))
        assert row.index_log == pytest.approx(il, rel=1e-15, abs=0)
        assert row.window_rank == pytest.approx(wr, rel=1e-15, abs=0)
        assert row.rhs == pytest.approx(1.5 * il, rel=1e-15, abs=0)
        assert row.satisfied == (wr >= 1.5 * il)


@pytest.mark.parametrize("d, r, p", TOP_K_TRIPLES + [(3, 0, 5), (40, 400, 7)])
def test_float_log_dropped_terms_below_the_stated_bound(d, r, p):
    # the docstring's tail bound, in exact integers: for every window end hi
    # up to order 4095 that drops anything, the ranks below hi - K sum to
    # less than 2^-55 * b_{hi-1}
    alpha = (d + math.sqrt(d * d - 4 * r)) / 2
    k = math.ceil(45 / math.log(alpha)) + 2
    b = zassenhaus_ranks(gs_series(GSGroupParams(d=d, r=r, p=p), 4095), p, 4095).b
    below = [0, *itertools.accumulate(b)]  # below[i] = b_1 + ... + b_i
    for hi in range(k + 2, 4096):
        assert below[hi - k - 1] << 55 < b[hi - 2], hi


def test_witnesses_validation():
    with pytest.raises(DomainError):
        theo2_witnesses(GSGroupParams(d=4, r=4, p=3), 1.5, 3)


def test_uniform_lower():
    assert uniform_lower(2, 3) == (3, 6)
    assert uniform_lower(1, 1) == (1, 1)
    # grows linearly in n, unlike the bounded tower examples
    bounds = [uniform_lower(3, n)[0] for n in range(1, 6)]
    assert bounds == [1, 2, 3, 4, 5]


def test_prop_theo1_bound():
    assert prop_theo1_bound(2.5, 8) == 20
    assert prop_theo1_bound(2.5, 1) == 2.5
    assert prop_theo1_bound(1.5, 10) == pytest.approx(10 * prop_theo1_bound(1.5, 1))
    with pytest.raises(DomainError):
        prop_theo1_bound(-1.0, 2)


REFERENCE_DEGREES = [(2,), (2, 3, 5), (2, 4), (3, 3), (5,)]


@pytest.mark.parametrize("degrees", REFERENCE_DEGREES)
def test_ranks_match_the_series_route(degrees):
    for p in (2, 3, 5):
        params = GSGroupParams(d=4, r=len(degrees), p=p, relation_degrees=degrees)
        series = gs_series(params, 600)
        want = _reference_ranks(series, p, 600)
        assert gs_ranks(params, 600).b == want, (degrees, p)
        assert zassenhaus_ranks(series, p, 600).b == want, (degrees, p)
        for order in (0, 1, 2, 3, 17, 64):
            assert gs_ranks(params, order).b == want[:order], (degrees, p, order)


def test_ranks_match_the_series_route_at_the_witness_order():
    params = GSGroupParams(d=4, r=4, p=3)
    assert gs_ranks(params, 4095).b == _reference_ranks(gs_series(params, 4095), 3, 4095)


FAILURE_DEGREES = [(), (2,), (2, 2), (2, 2, 2), (2, 2, 2, 2, 2), (3,), (2, 3), (2, 3, 5), (2, 4), (3, 3, 3)]


def test_ranks_fail_where_the_series_route_fails():
    # same ranks or the same error, message included: a negative c_n where
    # the series route stops there, else the same rank check at the same i
    failures = set()
    for d in range(1, 6):
        for degrees in FAILURE_DEGREES:
            for p in (2, 3, 5):
                params = GSGroupParams(d=d, r=len(degrees), p=p, relation_degrees=degrees)
                for order in range(-1, 41):
                    want = _reference_outcome(params, order)
                    assert _outcome(params, order) == want, (d, degrees, p, order)
                    if want and isinstance(want[0], type):
                        failures.add(want[1].split(" ", 1)[0])
    # every kind of failure is among the cases
    assert failures == {"coefficient", "order", "rank"}


def test_successful_ranks_never_expand_the_series(monkeypatch, capsys):
    calls = []
    real = propgroups.gs_series

    def counted(params, order):
        calls.append(order)
        return real(params, order)

    monkeypatch.setattr(propgroups, "gs_series", counted)
    base = ["propgroup", "--d", "4", "--r", "4", "--p", "3", "--json"]
    assert cli.main(["propgroup", "ranks", *base[1:], "--N", "300"]) == 0
    assert cli.main(["propgroup", "witnesses", *base[1:], "--N", "12"]) == 0
    # only the first terms, which reject a presentation that fails there
    assert calls == [propgroups._SERIES_PROBE] * 2 and propgroups._SERIES_PROBE <= 16
    # a failing order expands it, for the c_n < 0 message
    assert cli.main(["propgroup", "ranks", "--d", "1", "--r", "1", "--p", "2", "--N", "4"]) == 2
    assert calls[2:] == [4]
    capsys.readouterr()


def test_witness_scan_asks_for_its_exact_rows_only(monkeypatch):
    asked = []
    real = propgroups.gs_ranks

    def recorded(params, order):
        asked.append(order)
        return real(params, order)

    monkeypatch.setattr(propgroups, "gs_ranks", recorded)
    params = GSGroupParams(d=4, r=4, p=3)
    for n_max in (12, 16, 11, 5, 3, 1, 0):
        theo2_witnesses(params, 0.5, n_max)
    # b_(2^(n+1) - 1) is the last rank an exact row n reads
    assert asked == [4095, 4095, 4095, 63, 15, 3]


def test_witness_scan_length_is_bounded():
    with pytest.raises(DomainError, match="at most 1022"):
        theo2_witnesses(GSGroupParams(d=4, r=4, p=3), 0.5, WITNESS_N_MAX + 1)
    rows = theo2_witnesses(GSGroupParams(d=4, r=4, p=3), 0.5, WITNESS_N_MAX)
    assert len(rows) == WITNESS_N_MAX and math.isfinite(rows[-1].rhs)
    for n_max in (-1, -3):
        with pytest.raises(DomainError, match=f"^n_max must be nonnegative, got {n_max}$"):
            theo2_witnesses(GSGroupParams(d=4, r=4, p=3), 0.5, n_max)
    assert theo2_witnesses(GSGroupParams(d=4, r=4, p=3), 0.5, 0) == []
