"""Quadratic and biquadratic number fields at the level of splitting data.

A field is carried as its degree, signature and the factored fundamental
discriminants of its quadratic subfields.  That is all the downstream
machinery needs: genus, root discriminant, prime splitting and norm
enumeration are pure functions of the subfield discriminants, so no ideal
arithmetic is ever required.  Radicands are kept factored end to end, which
means ramified-prime enumeration never factors anything.

The fully split primes of a whole range come from a mask, not from one
Kronecker symbol per prime.  A fundamental discriminant D is the product of
prime discriminants: q* = +-q = 1 mod 4 for each odd q | D, and a 2-part of
-4, 8 or -8 when D is even.  So chi_D(ell) is the product of the characters
chi_{q*}(ell) = (ell/q), which depend only on ell mod q, and chi_{2-part}(ell),
which depends only on ell mod 8 (Cohen, GTM 138, 1.4 and 5.1).  The mask
covers the odd numbers only, one bit each: the prime 2 is decided on its own.
Each factor is a non-residue pattern over the odd residues, q bits for q*
and 2 or 4 for the 2-part; the patterns of one character are XOR-ed together
once, in groups whose period stays at most 2^16, and cached as big integers.
Over a segment, each group's window is cut from its repeated pattern by
shifts; XOR-ing the windows of a character marks where it is -1, and the
prime flags of the segment, less the ramified primes and the marked
positions, are the split primes.
"""

from __future__ import annotations

import enum
import functools
from itertools import accumulate, repeat
from math import log, prod
from operator import add, attrgetter, mul

from .arith import factor, is_prime, kronecker, left_sum, prime_flags
from .errors import DegenerateFieldError, DomainError
from .frozen import Frozen


class SplitType(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


def _factor_map(factors) -> tuple[int, dict[int, int]]:
    """(sign, prime -> exponent) from a factor list like [-1, 2, 2, 2, 5];
    a negative prime -q counts as -1 and q."""
    sign = 1
    out: dict[int, int] = {}
    for f in factors:
        if f < 0:
            sign = -sign
        if f == -1:
            continue
        if f == 0 or f == 1:
            raise DomainError("factor lists may not contain 0 or 1")
        q = abs(f)
        if not is_prime(q):
            raise DomainError(f"{q} is not prime; radicands must be given factored")
        out[q] = out.get(q, 0) + 1
    return sign, out


class QuadraticSpec(Frozen):
    """A quadratic field given by a factored radicand (sign included)."""

    __slots__ = ("factors",)

    @classmethod
    def of(cls, radicand) -> "QuadraticSpec":
        if isinstance(radicand, int):
            if radicand in (0, 1):
                raise DomainError("radicand must not be 0 or 1")
            return cls(tuple(([-1] if radicand < 0 else []) + factor(radicand)))
        return cls(tuple(radicand))

    def squarefree_core(self) -> tuple[int, dict[int, int]]:
        sign, fm = _factor_map(self.factors)
        return sign, {p: 1 for p, e in fm.items() if e % 2 == 1}


def _discriminant_of_core(sign: int, core: dict[int, int]) -> tuple[int, dict[int, int]]:
    """(sign, factored |d|) of the fundamental discriminant of Q(sqrt(sign * core)),
    core a squarefree factor map."""
    if not core and sign == 1:
        raise DomainError("radicand is a perfect square; the field is degenerate")
    d_mod4 = sign
    for p, _ in core.items():
        d_mod4 = d_mod4 * p % 4
    if d_mod4 % 4 == 1:
        return sign, core
    out = dict(core)
    out[2] = out.get(2, 0) + 2
    return sign, out


def _value(sign: int, fm: dict[int, int]) -> int:
    val = sign
    for p, e in fm.items():
        val *= p**e
    return val


def fundamental_discriminant_factored(radicand) -> tuple[int, dict[int, int]]:
    """(sign, factored |d|) of the fundamental discriminant of Q(sqrt(radicand))."""
    return _discriminant_of_core(*QuadraticSpec.of(radicand).squarefree_core())


def fundamental_discriminant(radicand) -> int:
    """d if the squarefree core is 1 mod 4, else 4 * core."""
    return _value(*fundamental_discriminant_factored(radicand))


class FieldDescriptor(Frozen):
    """Degree, signature and factored discriminant data of a field in scope."""

    # subfield_discs: the fundamental discriminants of the quadratic subfields,
    # one for a quadratic field, three for a biquadratic one
    __slots__ = ("degree", "r1", "r2", "abs_disc_factored", "subfield_discs")
    _defaults = {"subfield_discs": ()}
    _key = attrgetter("degree", "r1", "r2", "subfield_discs")  # not abs_disc_factored

    def __post_init__(self):
        if self.r1 + 2 * self.r2 != self.degree:
            raise DomainError(
                f"signature ({self.r1},{self.r2}) does not match degree {self.degree}"
            )

    @property
    def abs_disc(self) -> int:
        return _value(1, self.abs_disc_factored)

    def log_abs_disc(self) -> float:
        return left_sum(e * log(p) for p, e in self.abs_disc_factored.items())

    def genus(self) -> float:
        return 0.5 * self.log_abs_disc()

    def root_discriminant(self) -> float:
        from math import exp

        return exp(self.log_abs_disc() / self.degree)

    def ramified_primes(self) -> list[int]:
        return sorted(self.abs_disc_factored)

    def delta(self, p: int) -> int:
        """1 when the field contains the p-th roots of unity.

        Only p = 2 (always 1) and p = 3 (needs Q(sqrt(-3)) as a subfield) are
        decidable for the field shapes in scope; larger p would force degree
        >= 4 cyclotomic subfields these shapes cannot contain, so 0.
        """
        if p == 2:
            return 1
        if p == 3:
            return 1 if -3 in self.subfield_discs else 0
        return 0


def _quadratic(sign: int, fm: dict[int, int]) -> FieldDescriptor:
    """The quadratic field of fundamental discriminant sign * prod(p^e for fm)."""
    d = _value(sign, fm)
    r1, r2 = (2, 0) if d > 0 else (0, 1)
    return FieldDescriptor(
        degree=2,
        r1=r1,
        r2=r2,
        abs_disc_factored=fm,
        subfield_discs=(d,),
    )


def quadratic_field(radicand) -> FieldDescriptor:
    return _quadratic(*fundamental_discriminant_factored(radicand))


def biquadratic_field(d1_radicand, d2_radicand) -> FieldDescriptor:
    """Compositum of two distinct quadratic fields.

    The discriminant comes from the conductor-discriminant formula:
    |disc| is the product of the discriminants of the three quadratic
    subfields, the third being generated by the product of the radicands.
    Each radicand is validated once: the third subfield's squarefree core is
    the primes in exactly one of the two cores, with the product of the signs.
    """
    spec1 = QuadraticSpec.of(d1_radicand)
    spec2 = QuadraticSpec.of(d2_radicand)
    sign1, core1 = spec1.squarefree_core()
    disc1 = _discriminant_of_core(sign1, core1)
    sign2, core2 = spec2.squarefree_core()
    disc2 = _discriminant_of_core(sign2, core2)
    if _value(*disc1) == _value(*disc2):
        raise DegenerateFieldError("the two radicands generate the same quadratic field")
    core3 = {p: 1 for p in (*core1, *core2) if (p in core1) != (p in core2)}
    disc_fact: dict[int, int] = {}
    values = []
    for sign, fm in (disc1, disc2, _discriminant_of_core(sign1 * sign2, core3)):
        for p, e in fm.items():
            disc_fact[p] = disc_fact.get(p, 0) + e
        values.append(_value(sign, fm))
    D1, D2, D3 = values
    if D1 > 0 and D2 > 0:
        r1, r2 = 4, 0
    else:
        r1, r2 = 0, 2
    return FieldDescriptor(
        degree=4,
        r1=r1,
        r2=r2,
        abs_disc_factored=disc_fact,
        subfield_discs=(D1, D2, D3),
    )


def quadratic_subfield(fld: FieldDescriptor) -> FieldDescriptor:
    """The quadratic subfield of discriminant fld.subfield_discs[0], read off
    the factored discriminant with nothing validated again: Q(sqrt(d1)) for
    biquadratic_field(d1, d2), and the field itself for a quadratic one."""
    if fld.degree == 2:
        return fld
    D = fld.subfield_discs[0]
    m = abs(D)
    fm: dict[int, int] = {}
    for q in fld.abs_disc_factored:
        while m % q == 0:
            m //= q
            fm[q] = fm.get(q, 0) + 1
    return _quadratic(1 if D > 0 else -1, fm)


def splitting_type(fld: FieldDescriptor, ell: int) -> SplitType:
    """Splitting of a rational prime in a quadratic field."""
    if fld.degree != 2:
        raise DomainError("splitting_type is defined for quadratic fields")
    d = fld.subfield_discs[0]
    if d % ell == 0:
        return SplitType.RAMIFIED
    return SplitType.SPLIT if kronecker(d, ell) == 1 else SplitType.INERT


def norms_above(fld: FieldDescriptor, ell: int, split: bool | None = None) -> list[tuple[int, int]]:
    """[(norm, count)] for the places of the field above a rational prime.

    Quadratic case: split -> two places of norm ell, inert -> one of norm
    ell^2, ramified -> one of norm ell.

    Biquadratic case, from the three quadratic subfields: an odd prime
    ramifies in none or exactly two of them.  Unramified with all three
    Kronecker characters +1 means four places of norm ell; otherwise two of
    norm ell^2.  Away from the ramified primes chi_D3 = chi_D1 * chi_D2, so
    the first two characters decide, and the second is needed only when the
    first is +1.  Ramified in two subfields leaves the splitting in the third
    to decide between two places of norm ell and one of norm ell^2.  A prime
    ramified in all three subfields (only ell = 2) is totally ramified: one
    place of norm ell.

    `split`, when given, decides the splitting of an unramified prime (and of
    a biquadratic prime ramified in two subfields) in place of the Kronecker
    verdict; ramification is always derived.
    """
    if fld.degree == 2:
        d = fld.subfield_discs[0]
        if d % ell == 0:
            return [(ell, 1)]
        if split is None:
            split = kronecker(d, ell) == 1
        return [(ell, 2)] if split else [(ell * ell, 1)]
    if fld.degree != 4 or len(fld.subfield_discs) != 3:
        raise DomainError("norms_above supports quadratic and biquadratic fields only")
    discs = fld.subfield_discs
    ram = [D % ell == 0 for D in discs]
    n_ram = sum(ram)
    if n_ram == 0:
        if split is None:
            split = kronecker(discs[0], ell) == 1 and kronecker(discs[1], ell) == 1
        return [(ell, 4)] if split else [(ell * ell, 2)]
    if n_ram == 2:
        if split is None:
            split = kronecker(discs[ram.index(False)], ell) == 1
        return [(ell, 2)] if split else [(ell * ell, 1)]
    if n_ram == 3:
        return [(ell, 1)]
    raise DomainError(f"prime {ell} ramifies in exactly one quadratic subfield")


# odd prime discriminants up to this size get a cached pattern (one bit per
# odd residue, so at most 8 KiB, and at most 32 characters' groups are kept);
# a character with a larger one is evaluated per surviving prime instead
_PATTERN_LIMIT = 1 << 16

# a 0/1 byte string to the ASCII digits int(..., 2) reads
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _nonresidue_pattern(d: int) -> bytes:
    """Byte i is 1 when chi_d(2i + 1) = -1, for 0 <= i < m, d a prime
    discriminant, m = |d| when d is odd and |d| / 2 for d = -4, 8, -8: the
    character at the odd numbers, over one period.

    For odd d = +-q, chi_d(r) is the Legendre symbol (r/q), so the pattern is
    the complement of the squares mod q read at r = 1, 3, ..., 2q - 1; for
    d = -4, 8, -8 it is read off the Kronecker symbol at the odd residues.
    """
    m = abs(d)
    if m % 2 == 0:
        return bytes(kronecker(d, 2 * i + 1) == -1 for i in range(m // 2))
    pattern = bytearray([1]) * m
    pattern[0] = 0
    for r in range(1, m // 2 + 1):
        pattern[r * r % m] = 0
    return bytes((pattern * 2)[1::2])


@functools.lru_cache(maxsize=32)
def _character_patterns(parts: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The non-residue patterns of one character's prime discriminants,
    XOR-ed together in groups whose period, the product of their |d|, stays
    at most _PATTERN_LIMIT.  Each group is (m, bits): bit i of the m-bit
    string bits, most significant first, is 1 when an odd number of its
    characters is -1 at the odd residue 2i + 1; m is the group's period, or
    half of it when a 2-part makes that even.  A segment then cuts a few long
    patterns instead of many short ones."""
    groups: list[list[int]] = []
    for d in sorted(parts, key=abs):
        if groups and prod(map(abs, groups[-1])) * abs(d) <= _PATTERN_LIMIT:
            groups[-1].append(d)
        else:
            groups.append([d])
    patterns = []
    for group in groups:
        odd = list(map(_nonresidue_pattern, group))
        m = prod(map(len, odd))
        bits = 0
        for pattern in odd:
            bits ^= int((pattern * (m // len(pattern))).translate(_DIGITS), 2)
        patterns.append((m, bits))
    return tuple(patterns)


def _window(m: int, bits: int, start: int, n: int) -> int:
    """The n bits from position start on of the bit string that repeats the
    m-bit string bits, most significant first."""
    start %= m
    while m < start + n:
        bits |= bits << m
        m *= 2
    return bits >> (m - start - n) & ((1 << n) - 1)


def _prime_discriminants(fld: FieldDescriptor, D: int) -> list[int]:
    """The prime discriminants whose product is the subfield discriminant D."""
    odd = [q if q % 4 == 1 else -q for q in fld.abs_disc_factored if q != 2 and D % q == 0]
    two_part = D // prod(odd)
    return odd if two_part == 1 else odd + [two_part]


def split_primes_between(fld: FieldDescriptor, lo: int, hi: int) -> list[int]:
    """The primes in (lo, hi], lo >= 1, that are prime to the discriminant and
    at which every independent character is +1: chi_D1 and chi_D2 for a
    biquadratic field (chi_D3 is their product there), chi_D for a quadratic
    one.  These are the primes `norms_above` gives (ell, 4), resp. (ell, 2).
    """
    characters = fld.subfield_discs[:2]
    primes = []
    if lo < 2 <= hi and 2 not in fld.abs_disc_factored and all(kronecker(D, 2) == 1 for D in characters):
        primes.append(2)
    flags = prime_flags(lo, hi)  # byte i: x0 + 2i
    n = len(flags)
    if not n:
        return primes
    x0 = (lo + 1) | 1
    for q in fld.abs_disc_factored:
        if q % 2 and x0 <= q <= hi:
            flags[(q - x0) // 2] = 0
    negative = 0  # bit i, most significant first, is 1 when some character is -1 at x0 + 2i
    per_prime = []
    for D in characters:
        parts = _prime_discriminants(fld, D)
        if max(map(abs, parts), default=0) > _PATTERN_LIMIT:
            per_prime.append(D)
            continue
        chi_negative = 0
        for m, bits in _character_patterns(tuple(parts)):
            chi_negative ^= _window(m, bits, x0 // 2, n)
        negative |= chi_negative
    flags = int(flags.translate(_DIGITS), 2)
    # the split bits (flags & ~negative would make a negative int, which is
    # several times slower), as text after a leading 1; their positions come
    # from the lengths of the zero stretches between them, 2 apart per bit:
    # no int is made per odd number, as compress(range(...), ...) would
    split = bin((flags ^ (flags & negative)) | 1 << n)[3:]
    steps = map(mul, map(add, map(len, split.split("1")), repeat(1)), repeat(2))
    primes += list(accumulate(steps, initial=x0 - 2))[1:-1]
    for D in per_prime:
        primes = [ell for ell in primes if kronecker(D, ell) == 1]
    return primes


def ramified_place_count(base: FieldDescriptor | None, extension_radicand, p: int = 2) -> int:
    """Number of places of the base ramifying in base(sqrt(radicand))/base.

    The base is Q (pass None) or a quadratic field.  For p = 2 the count
    includes real places that become complex.  Over a quadratic base only
    radicands with odd squarefree core congruent to 1 mod 4 are supported
    (no wild 2-adic analysis is attempted).
    """
    spec = QuadraticSpec.of(extension_radicand)
    sign, core = spec.squarefree_core()
    if not core and sign == 1:
        raise DegenerateFieldError("trivial extension")
    if base is None:
        dsign, dfact = fundamental_discriminant_factored(spec.factors)
        finite = len(dfact)
        arch = 1 if (dsign < 0 and p == 2) else 0
        return finite + arch
    if base.degree != 2:
        raise DomainError("ramified_place_count supports base Q or quadratic bases")
    if 2 in core or _value(sign, core) % 4 != 1:
        raise DomainError(
            "2-adic ramification over a quadratic base is out of scope; "
            "radicand core must be odd and 1 mod 4"
        )
    finite = 0
    for ell in sorted(core):
        st = splitting_type(base, ell)
        finite += 2 if st is SplitType.SPLIT else 1
    arch = base.r1 if (sign < 0 and p == 2) else 0
    return finite + arch

