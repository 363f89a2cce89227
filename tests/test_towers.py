import decimal
import random

import pytest

from meanexp.errors import DomainError
from meanexp.towers import (
    GSVerdict,
    critere_real_quadratic,
    ershov_schmidt_ratio,
    genus_rank_bound,
    gs_finite_requires,
    gs_verdict,
    hajir_refined_lower,
    rank_lower_bound_ST,
    schreier_upper,
    shafarevich_relation_upper,
    tsplit_criterion,
)


def test_rank_lower_bound():
    assert rank_lower_bound_ST(10, 2, 1, 0, 1) == 8
    assert rank_lower_bound_ST(0, 0, 1, 0, 0) == -1
    for t in range(5):
        assert rank_lower_bound_ST(t, 0, 0, 1, 0) == t - 1


def test_genus_rank_bound():
    assert genus_rank_bound(6, 1, 0, 1) == 4
    assert genus_rank_bound(2, 1, 0, 1) == 0
    # stacked along a tower: (|T| + 2) * m ramified places over a totally
    # real degree-2m level leave a bound of |T| * m - 1
    for m in (1, 2, 4, 8):
        t = 22
        bound = genus_rank_bound(t * m + 2 * m, 2 * m, 0, 1)
        assert bound == t * m - 1
        assert bound >= (t - 1) * m


@pytest.mark.parametrize(
    "args, message",
    [
        ((-1, 2, 0, 1), "rho must be nonnegative, got -1"),
        ((6, -2, 0, 1), "r1 must be nonnegative, got -2"),
        ((6, 1, -1, 1), "r2 must be nonnegative, got -1"),
        ((6, 0, 0, 1), "r1 \\+ r2 must be positive"),
        ((0, 0, 0, 0), "r1 \\+ r2 must be positive"),
    ],
)
def test_genus_rank_bound_rejects_negative_counts(args, message):
    with pytest.raises(DomainError, match=message):
        genus_rank_bound(*args)


def test_genus_rank_bound_accepts_zero_counts():
    assert genus_rank_bound(0, 1, 0, 0) == -1
    assert genus_rank_bound(0, 0, 1, 1) == -2


def test_gs():
    assert gs_finite_requires(16) == 64
    assert gs_verdict(16, 48) is GSVerdict.MUST_BE_INFINITE
    assert gs_verdict(4, 4) is GSVerdict.INCONCLUSIVE
    assert gs_verdict(5, 6) is GSVerdict.MUST_BE_INFINITE


def test_shafarevich_chain():
    assert shafarevich_relation_upper(3, 1, 0, 0, 0) == 3
    assert shafarevich_relation_upper(0, 2, 1, 3, 1) == 6  # correction only
    # degree-16 totally real field with 16 T-places: correction 32, so the
    # relation rank is at most 48 and the group must be infinite
    r_upper = shafarevich_relation_upper(16, 16, 0, 16, 1)
    assert r_upper == 48
    assert gs_verdict(16, r_upper) is GSVerdict.MUST_BE_INFINITE


def test_tsplit_criterion():
    # boundary equality counts as satisfied: 5 = 3 + 2*sqrt(1)
    assert tsplit_criterion(5, 0, 1, 0, 0, 0, 1, 0, 0, 0)
    assert not tsplit_criterion(4, 0, 1, 0, 0, 0, 1, 0, 0, 0)
    assert not tsplit_criterion(0, 0, 0, 0, 0, 0, 1, 1, 1, 1)
    # worked example 2 shape: quadratic step over Q with 21 ramified primes,
    # 15 rational T-primes of which 8 stay inert, 22 T-places upstairs;
    # another exact boundary: 21 + 8 = 3 + 1 + 15 - 1 + 1 + 2*sqrt(25)
    assert tsplit_criterion(21, 8, 1, 0, 15, 1, 2, 0, 22, 1)
    assert not tsplit_criterion(20, 8, 1, 0, 15, 1, 2, 0, 22, 1)


def test_critere_real_quadratic():
    assert critere_real_quadratic(21, 7, 15)
    assert critere_real_quadratic(21, 7, 22)  # equality: 21 = 11 + 2*sqrt(25)
    assert critere_real_quadratic(8, 0, 1)  # equality: 8 = 4 + 2*sqrt(4)
    assert not critere_real_quadratic(5, 0, 0)  # 5 < 4 + 2*sqrt(3)
    with pytest.raises(DomainError, match="^t_dec = 3 exceeds t_total = 2$"):
        critere_real_quadratic(10, 3, 2)


@pytest.mark.parametrize(
    "args, message",
    [
        ((8, 0, -1), "^t_total must be nonnegative, got -1$"),
        ((8, -1, 1), "^t_dec must be nonnegative, got -1$"),
        ((-1, 0, 1), "^rho must be nonnegative, got -1$"),
        ((8, -2, -1), "^t_dec must be nonnegative, got -2$"),
    ],
)
def test_critere_rejects_negative_counts_before_comparing(args, message):
    with pytest.raises(DomainError, match=message):
        critere_real_quadratic(*args)


def test_critere_monotonicity():
    # more ramification helps; more T hurts; more decomposed T hurts
    for rho in range(0, 26):
        for t_dec in range(0, 6):
            for t_total in range(t_dec, 12):
                cur = critere_real_quadratic(rho, t_dec, t_total)
                if cur:
                    assert critere_real_quadratic(rho + 1, t_dec, t_total)
                else:
                    assert not critere_real_quadratic(rho, t_dec, t_total + 1)
                    if t_dec + 1 <= t_total:
                        assert not critere_real_quadratic(rho, t_dec + 1, t_total)


def test_exact_comparison_matches_high_precision():
    rng = random.Random(20260810)
    decimal.getcontext().prec = 60
    for _ in range(2000):
        rho = rng.randrange(0, 10**6)
        a = rng.randrange(0, 10**6)
        b = rng.randrange(0, 10**6)
        exact = (rho - a) >= 0 and (rho - a) ** 2 >= 4 * b
        hp = decimal.Decimal(rho) >= decimal.Decimal(a) + 2 * decimal.Decimal(b).sqrt()
        assert exact == hp, (rho, a, b)
    # explicit boundary ties
    assert critere_real_quadratic(8, 0, 1) and not critere_real_quadratic(8, 0, 2)


def test_schreier_and_hajir():
    assert schreier_upper(23, 4) == 89
    for idx in (1, 2, 7):
        assert schreier_upper(1, idx) == 1
    assert hajir_refined_lower(22, 2) == 45
    assert hajir_refined_lower(1, 1) == 2
    # sandwich: t * index <= schreier_upper(d_base, index) - 1 when t <= d_base - 1
    for d_base in range(2, 12):
        for index in (1, 2, 5, 16):
            for t in range(1, d_base):
                assert t * index <= schreier_upper(d_base, index) - 1
    # refined lower sits two above the plain genus count
    for t in (1, 5, 22):
        for index in (1, 4, 32):
            assert hajir_refined_lower(t, index) == (t * index - 1) + 2


def test_ershov_schmidt():
    assert ershov_schmidt_ratio(22, 0, 2) == 20
    assert ershov_schmidt_ratio(1, 1, 0) == 0
    # matches the T-split rank growth rate |T| - (r1 + r2)
    assert ershov_schmidt_ratio(9, 1, 1) == 7
