"""Elementary number-theoretic primitives.

Everything here is exact integer arithmetic, left_sum aside; callers that
need floats convert at the boundary.  All functions are pure but one:
`prime_flags` keeps the primality of the odd numbers up to MAX_NORM_BOUND
in one table per process, sieved on first use and grown by doubling, so
that every sieve call after the first reads it in place of sieving again.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import compress
from math import isqrt
from operator import add

from .errors import DomainError
from .frozen import Frozen

# Witnesses making Miller-Rabin deterministic below 3.3 * 10^24 (> 2^64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: Input checks keep the integers they test for primality below this bound
#: in absolute value: is_prime is deterministic below it, and one test of a
#: number of a few thousand digits can take seconds.
PRIME_TEST_BOUND = 1 << 64

#: The one enumeration cap: the candidate stream reads norms up to it, and
#: the prime table of `prime_flags` holds the odd numbers up to it (1 MB).
MAX_NORM_BOUND = 2_000_000

# byte i is 1 when 3 + 2i is prime, for the odd numbers up to 2 * len + 1;
# only _odd_table replaces it, whole, by one assignment, and never writes it
_odd_flags = bytearray()


def left_sum(values):
    """sum(values), added strictly left to right.

    Built-in sum() compensates float sums from Python 3.12 on, which moves
    the last digits; every float total that reaches a report goes through
    here, so the report bytes do not depend on the interpreter.
    """
    return reduce(add, values, 0)


def is_prime(n: int) -> bool:
    """Miller-Rabin, deterministic below 2^64, 40 random rounds above."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < 3_215_031_751:  # the first four witnesses suffice here (Jaeschke 1993)
        witnesses = _MR_WITNESSES[:4]
    elif n < 1 << 64:
        witnesses = _MR_WITNESSES
    else:
        rng = random.Random(n)
        witnesses = tuple(rng.randrange(2, n - 1) for _ in range(40))
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve_primes(limit: int) -> list[int]:
    """All primes in [2, limit], ascending, limit <= MAX_NORM_BOUND."""
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    return primes_between(1, limit)


def prime_flags(lo: int, hi: int) -> bytearray:
    """One segment of a sieve over the odd numbers, one byte each: byte i is
    1 when x0 + 2i is prime, for the odd x0 + 2i in (lo, hi],
    x0 = (lo + 1) | 1, lo >= 1, hi <= MAX_NORM_BOUND.  The prime 2 is left
    to the caller.

    The segment is a copy of a slice of the process's prime table, which the
    caller may write into."""
    x0 = (lo + 1) | 1
    n = len(range(x0, hi + 1, 2))
    start = (x0 - 3) // 2
    return _odd_table(hi)[start : start + n]


def _odd_table(hi: int) -> bytearray:
    """The prime table, grown to hold every odd number up to hi: to at least
    twice its top, but not past MAX_NORM_BOUND, so a process sieves each
    number once and grows the table O(log hi) times.  A hi past the cap is
    a DomainError, and the table stays as it was.

    A table is never written after it is made, and each growth reads and
    extends one snapshot, so threads that grow it at once each get a table
    that holds their hi, and the last one made stays."""
    global _odd_flags
    table = _odd_flags
    top = 2 * len(table) + 1
    if hi <= top:
        return table
    if hi > MAX_NORM_BOUND:
        raise DomainError(f"primes are sieved up to MAX_NORM_BOUND = {MAX_NORM_BOUND}, got {hi}")
    new_top = min(max(hi, 2 * top), MAX_NORM_BOUND)
    primes = primes_between(2, isqrt(new_top))  # odd; may itself grow the table
    table = _odd_flags
    # the odd numbers from x0 past the snapshot's top, crossed off by each p
    # from p^2, or its first odd multiple from x0 on; odd multiples are 2p
    # apart, so p bytes apart
    x0 = 2 * len(table) + 3
    n = len(range(x0, new_top + 1, 2))
    flags = bytearray([1]) * n
    zeros = bytes(n // 3 + 1)
    for p in primes:
        first = -(-x0 // p) * p
        first = max(p * p, first if first % 2 else first + p)
        first = (first - x0) // 2
        flags[first::p] = zeros[: (n - 1 - first) // p + 1]
    table = _odd_flags = table + flags
    return table


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes in (lo, hi], ascending, hi <= MAX_NORM_BOUND."""
    odd = compress(range((lo + 1) | 1, hi + 1, 2), prime_flags(lo, hi))
    return [2, *odd] if lo < 2 <= hi else list(odd)


def _iroot(n: int, m: int) -> int:
    """The integer m-th root of n >= 1: the largest r with r^m <= n.

    Newton's iteration in integers: started above the root, at
    2^ceil(bits/m), it descends strictly until it reaches the root."""
    r = 1 << -(-n.bit_length() // m)
    while True:
        s = ((m - 1) * r + n // r ** (m - 1)) // m
        if s >= r:
            return r
        r = s


def factor(n: int) -> list[int]:
    """Prime factors of |n| with multiplicity, ascending, by trial division.

    Meant for desk-scale inputs; factor(1) and factor(-1) are [].
    """
    if n == 0:
        raise DomainError("0 has no prime factorization")
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), the full multiplicative extension of Legendre.

    Conventions: (a|2) is 0 for even a, +1 for a = +-1 mod 8, -1 for
    a = +-3 mod 8; (a|-1) is -1 exactly when a < 0; (a|0) is undefined.
    """
    if n == 0:
        raise DomainError("kronecker symbol (a|0) is undefined")
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # Jacobi symbol on the odd part via reciprocity.
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


class PrimePower(Frozen):
    """A prime power q = ell^m, kept factored."""

    __slots__ = ("ell", "m")

    def __post_init__(self):
        if self.m < 1:
            raise DomainError(f"exponent must be >= 1, got {self.m}")
        if not is_prime(self.ell):
            raise DomainError(f"{self.ell} is not prime")

    @property
    def value(self) -> int:
        return self.ell**self.m

    @classmethod
    def from_value(cls, q: int) -> "PrimePower":
        """q = ell^m exactly when, for some m <= log2 q, the integer m-th
        root r of q has r^m = q and r is prime; no trial division."""
        if q < 2:
            raise DomainError(f"{q} is not a prime power")
        for m in range(1, q.bit_length()):
            r = _iroot(q, m)
            if r**m == q and is_prime(r):
                return cls(r, m)
        raise DomainError(f"{q} is not a prime power")

    def __int__(self) -> int:
        return self.value
