import math
import random
import sys
import threading
from itertools import compress

import pytest
from hypothesis import given, strategies as st

from meanexp import arith
from meanexp.arith import (
    MAX_NORM_BOUND,
    left_sum,
    PrimePower,
    factor,
    is_prime,
    kronecker,
    prime_flags,
    primes_between,
    sieve_primes,
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


def _reference_sieve(limit):
    """Byte n is 1 when n is prime, for n in [0, limit]: Eratosthenes over
    every integer, sharing no code with the library."""
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for q in range(2, math.isqrt(limit) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, limit + 1, q)))
    return flags


@pytest.fixture(scope="module")
def reference():
    return _reference_sieve(MAX_NORM_BOUND + 60_000)


@pytest.fixture
def cold_table(monkeypatch):
    """An empty prime table, as a fresh process starts with."""
    monkeypatch.setattr(arith, "_odd_flags", bytearray())


def _want(reference, lo, hi):
    """prime_flags(lo, hi) and primes_between(lo, hi) read off the reference."""
    x0 = (lo + 1) | 1
    flags = reference[x0 : hi + 1 : 2] if hi >= x0 else bytearray()
    return flags, list(compress(range(lo + 1, hi + 1), reference[lo + 1 : hi + 1]))


def test_prime_table_matches_a_reference_sieve(reference, cold_table):
    """From an empty table, segments in a seeded random order grow it; whole
    ranges end just below, at and past the cap, and segments lie on both
    sides of it, across it, and empty."""
    cap = MAX_NORM_BOUND
    rng = random.Random(25)
    cases = [(lo, hi) for lo in (1, 2) for hi in (cap - 2, cap - 1, cap, cap + 1, cap + 2)]
    cases += [(lo, rng.randrange(1, cap)) for lo in (1, 2) for _ in range(6)]
    for _ in range(60):
        lo = rng.randrange(1, cap + 40_000)
        cases.append((lo, lo + rng.choice([1, 2, 3, rng.randrange(1, 20_000)])))
    cases += [(cap - rng.randrange(1, 9_000), cap + rng.randrange(1, 9_000)) for _ in range(6)]
    cases += [(1, 1), (2, 2), (2, 1), (9, 9), (10, 9), (cap, cap), (cap - 1, cap - 3), (cap + 1, cap + 1),
              (cap + 7, cap)]
    rng.shuffle(cases)
    for lo, hi in cases:
        flags, primes = _want(reference, lo, hi)
        assert prime_flags(lo, hi) == flags, (lo, hi)
        assert primes_between(lo, hi) == primes, (lo, hi)
    # the table stops at the cap, whatever was asked past it
    assert 2 * len(arith._odd_flags) + 1 in (cap - 1, cap + 1)
    assert arith._odd_flags == reference[3 : cap + 1 : 2]


def test_prime_table_grows_by_doubling(cold_table):
    tops = []
    for hi in range(100, 3000, 100):
        prime_flags(1, hi)
        tops.append(2 * len(arith._odd_flags) + 1)
    # each growth takes the top t to at least the largest odd number up to
    # 2t, so the 29 asks make 6 tables
    grown = sorted(set(tops))
    assert all(b >= 2 * a - 1 for a, b in zip(grown, grown[1:]))
    assert grown == [99, 199, 397, 793, 1585, 3169]


def test_writing_into_prime_flags_leaves_the_table_unchanged(reference):
    prime_flags(1, 10_000)
    table = bytes(arith._odd_flags)
    for lo, hi in ((1, 10_000), (2, 501), (4_000, 4_100)):
        flags = prime_flags(lo, hi)
        flags[:] = bytes(len(flags))
    assert arith._odd_flags[: len(table)] == table
    assert (prime_flags(1, 10_000), primes_between(1, 10_000)) == _want(reference, 1, 10_000)


def test_prime_table_grows_correctly_under_threads(reference, monkeypatch):
    """Eight threads on two cores grow one table from empty, each asking
    for segments whose tops climb by a jittered factor, so that growths
    overlap; a growth that extended a table another thread had replaced
    would shift every later flag.  Sixty rounds, each from empty."""
    rng = random.Random(2501)
    wrong = []

    def work(segments):
        try:
            for lo, hi in segments:
                if primes_between(lo, hi) != _want(reference, lo, hi)[1]:
                    wrong.append((lo, hi))
        except Exception as exc:  # a thread's exception would otherwise be lost
            wrong.append(repr(exc))

    def climb():
        hi, segments = rng.randrange(20, 200), []
        while hi < 1_000_000:
            segments.append((max(1, hi - rng.randrange(1, 300)), hi))
            hi = int(hi * rng.uniform(1.2, 2.5))
        return segments

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(60):
            monkeypatch.setattr(arith, "_odd_flags", bytearray())
            threads = [threading.Thread(target=work, args=(climb(),)) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
