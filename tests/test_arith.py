import math
import random

import pytest
from hypothesis import given, strategies as st

from meanexp.arith import (
    left_sum,
    PrimePower,
    factor,
    is_prime,
    kronecker,
    primes_between,
    sieve_primes,
    tame_local_factor,
    vp,
)
from meanexp.errors import DomainError


def trial_division_primes(limit):
    return [n for n in range(2, limit + 1) if all(n % d for d in range(2, n))]


def test_sieve_small():
    assert sieve_primes(10) == [2, 3, 5, 7]
    assert sieve_primes(2) == [2]


def test_sieve_against_trial_division():
    primes = sieve_primes(100)
    assert primes == trial_division_primes(100)
    assert len(primes) == 25
    assert primes[-1] == 97


def test_sieve_rejects_empty_range():
    with pytest.raises(DomainError):
        sieve_primes(1)


def test_kronecker_examples():
    # squares mod 7 are {1,2,4}; -3 = 4 mod 7
    assert kronecker(-3, 7) == 1
    # squares mod 11 contain 5
    assert kronecker(5, 11) == 1
    assert kronecker(22, 11) == 0
    assert kronecker(0, 5) == 0


def test_kronecker_rejects_zero_modulus():
    with pytest.raises(DomainError):
        kronecker(3, 0)


def test_kronecker_matches_quadratic_residues():
    # full agreement with brute-force residue testing, all odd primes < 1000
    for p in sieve_primes(999):
        if p == 2:
            continue
        squares = {x * x % p for x in range(1, p)}
        for a in range(-999, 1000):
            expected = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert kronecker(a, p) == expected, (a, p)


@given(
    st.integers(min_value=-400, max_value=400),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=200),
)
def test_kronecker_multiplicative_in_odd_modulus(a, m, n):
    m = 2 * m + 1
    n = 2 * n + 1
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_vp_examples():
    assert vp(12, 2) == 2
    assert vp(12, 3) == 1
    assert vp(7, 5) == 0
    with pytest.raises(DomainError):
        vp(0, 3)
    with pytest.raises(DomainError):
        vp(10, 4)


@given(st.integers(min_value=1, max_value=10**6), st.sampled_from([2, 3, 5, 7, 11]))
def test_vp_shifts_by_one_under_multiplication(n, p):
    assert vp(n * p, p) == vp(n, p) + 1


def test_tame_local_factor_examples():
    # 7 = 1 + 2*3 with 3 odd: v_2(4) + 1 = 3
    assert tame_local_factor(7, 2) == 3
    assert tame_local_factor(13, 2) == 2
    assert tame_local_factor(7, 2, split_completely=True) == 1
    assert tame_local_factor(9, 7) == 0  # odd p, v_7(8) = 0
    with pytest.raises(DomainError):
        tame_local_factor(9, 3)


def test_tame_local_factor_positive_on_unit_norms():
    for p in (2, 3, 5):
        for q in range(3, 400):
            if q % p == 1:
                assert tame_local_factor(q, p) >= 1, (q, p)


def test_tame_local_sum():
    from meanexp.arith import tame_local_sum

    assert tame_local_sum([], 2) == 0
    assert tame_local_sum([7, 13], 2) == 5  # 3 + 2
    assert tame_local_sum([7, 13], 2, split_completely=True) == 3  # 1 + 2


def test_prime_power():
    pp = PrimePower(3, 2)
    assert pp.value == 9
    assert PrimePower.from_value(9) == pp
    assert PrimePower.from_value(7) == PrimePower(7, 1)
    assert PrimePower.from_value(2) == PrimePower(2, 1)
    assert PrimePower.from_value(1024) == PrimePower(2, 10)
    assert PrimePower.from_value(65521**2) == PrimePower(65521, 2)
    with pytest.raises(DomainError):
        PrimePower(4, 1)
    for q in (1, 12, 15, 2 * 65521):
        with pytest.raises(DomainError):
            PrimePower.from_value(q)


def test_prime_power_from_value_needs_no_trial_division():
    # exact integer roots and Miller-Rabin: each of these would take minutes
    # by trial division up to sqrt(q)
    assert PrimePower.from_value(2**61 - 1) == PrimePower(2**61 - 1, 1)
    assert PrimePower.from_value(3**40) == PrimePower(3, 40)
    assert PrimePower.from_value((2**61 - 1) ** 3) == PrimePower(2**61 - 1, 3)
    assert PrimePower.from_value(2**64) == PrimePower(2, 64)
    for q in ((2**31 - 1) * (2**61 - 1), 3 * (2**61 - 1) ** 2, 0, -8):
        with pytest.raises(DomainError):
            PrimePower.from_value(q)


def test_prime_power_from_value_matches_factor():
    for q in range(2, 5000):
        primes = factor(q)
        if primes[0] == primes[-1]:
            assert PrimePower.from_value(q) == PrimePower(primes[0], len(primes)), q
        else:
            with pytest.raises(DomainError):
                PrimePower.from_value(q)


def test_factor():
    assert factor(1) == factor(-1) == []
    assert factor(360) == [2, 2, 2, 3, 3, 5]
    assert factor(-3 * 7 * 7) == [3, 7, 7]
    assert factor(65521) == [65521]
    with pytest.raises(DomainError):
        factor(0)
    for n in range(2, 500):
        primes = factor(n)
        assert primes == sorted(primes) and all(is_prime(q) for q in primes)
        assert math.prod(primes) == n


def test_is_prime_smallish():
    primes = set(sieve_primes(2000))
    for n in range(2, 2000):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_primes_between_segments():
    primes = sieve_primes(5000)
    for lo, hi in ((1, 2), (2, 3), (3, 4), (1, 100), (100, 1000), (128, 256), (1000, 5000), (4000, 4000)):
        assert primes_between(lo, hi) == [q for q in primes if lo < q <= hi]
    # doubling segments tile the range with nothing sieved twice
    segments = [primes_between(lo, min(2 * lo, 5000)) for lo in (100, 200, 400, 800, 1600, 3200)]
    assert sieve_primes(100) + sum(segments, []) == primes


def test_primes_between_matches_is_prime_on_every_small_range():
    for lo in range(1, 200):
        for hi in range(lo + 1, 201):
            assert primes_between(lo, hi) == [x for x in range(lo + 1, hi + 1) if is_prime(x)], (lo, hi)


def test_primes_between_matches_is_prime_on_random_ranges():
    rng = random.Random(18)
    for _ in range(60):
        lo = rng.randrange(1, 10**7)
        hi = lo + rng.choice([1, 2, 3, rng.randrange(1, 20_000)])
        assert primes_between(lo, hi) == [x for x in range(lo + 1, hi + 1) if is_prime(x)], (lo, hi)
    # segments starting on a square of a sieving prime, and just past it
    for q in (3, 97, 997, 3_001):
        for lo in (q * q - 1, q * q, q * q + 1):
            assert primes_between(lo, lo + 500) == [x for x in range(lo + 1, lo + 501) if is_prime(x)], lo


def test_is_prime_matches_sieve_to_a_million():
    primes = bytearray(10**6 + 1)
    for q in sieve_primes(10**6):
        primes[q] = 1
    assert all(is_prime(n) == primes[n] for n in range(10**6 + 1))
    # strong pseudoprimes to the bases 2, 3, 5 and to 2, 3, 5, 7
    assert not is_prime(25_326_001)
    assert not is_prime(3_215_031_751)


def test_left_sum_adds_left_to_right():
    # a compensated sum (math.fsum, or built-in sum from Python 3.12 on)
    # recovers the two ones; left to right, 1e100 absorbs them
    values = [1.0, 1e100, 1.0, -1e100]
    assert math.fsum(values) == 2.0
    assert left_sum(values) == 0.0
    assert left_sum(iter(values)) == ((1.0 + 1e100) + 1.0) - 1e100
    assert left_sum([]) == 0 and type(left_sum([])) is int
    assert left_sum([3, 4]) == 7
