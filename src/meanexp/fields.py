"""Quadratic and biquadratic number fields at the level of splitting data.

A field is carried as its degree, signature and the factored fundamental
discriminants of its quadratic subfields.  That is all the downstream
machinery needs: genus, root discriminant, prime splitting and norm
enumeration are pure functions of the subfield discriminants, so no ideal
arithmetic is ever required.  Radicands are kept factored end to end, which
means ramified-prime enumeration never factors anything.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import log

from .arith import PrimePower, factor, is_prime, kronecker, sieve_primes
from .errors import DegenerateFieldError, DomainError


class SplitType(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


def _factor_map(factors) -> tuple[int, dict[int, int]]:
    """(sign, prime -> exponent) from a factor list like [-1, 2, 2, 2, 5]."""
    sign = 1
    out: dict[int, int] = {}
    for f in factors:
        if f == -1:
            sign = -sign
        elif f == 0 or f == 1:
            raise DomainError("factor lists may not contain 0 or 1")
        elif f < 0:
            sign = -sign
            out[-f] = out.get(-f, 0) + 1
        else:
            if not is_prime(f):
                raise DomainError(f"{f} is not prime; radicands must be given factored")
            out[f] = out.get(f, 0) + 1
    return sign, out


@dataclass(frozen=True)
class QuadraticSpec:
    """A quadratic field given by a factored radicand (sign included)."""

    factors: tuple[int, ...]

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


def fundamental_discriminant_factored(radicand) -> tuple[int, dict[int, int]]:
    """(sign, factored |d|) of the fundamental discriminant of Q(sqrt(radicand))."""
    spec = QuadraticSpec.of(radicand)
    sign, core = spec.squarefree_core()
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


def fundamental_discriminant(radicand) -> int:
    """d if the squarefree core is 1 mod 4, else 4 * core."""
    sign, fm = fundamental_discriminant_factored(radicand)
    val = sign
    for p, e in fm.items():
        val *= p**e
    return val


@dataclass(frozen=True)
class FieldDescriptor:
    """Degree, signature and factored discriminant data of a field in scope."""

    degree: int
    r1: int
    r2: int
    abs_disc_factored: dict[int, int] = field(compare=False)
    # fundamental discriminants of the quadratic subfields:
    # one entry for a quadratic field, three for a biquadratic one
    subfield_discs: tuple[int, ...] = ()
    label: str = ""

    def __post_init__(self):
        if self.r1 + 2 * self.r2 != self.degree:
            raise DomainError(
                f"signature ({self.r1},{self.r2}) does not match degree {self.degree}"
            )

    @property
    def abs_disc(self) -> int:
        val = 1
        for p, e in self.abs_disc_factored.items():
            val *= p**e
        return val

    def log_abs_disc(self) -> float:
        return sum(e * log(p) for p, e in self.abs_disc_factored.items())

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


def quadratic_field(radicand, label: str = "") -> FieldDescriptor:
    sign, fm = fundamental_discriminant_factored(radicand)
    d = sign
    for p, e in fm.items():
        d *= p**e
    r1, r2 = (2, 0) if d > 0 else (0, 1)
    return FieldDescriptor(
        degree=2,
        r1=r1,
        r2=r2,
        abs_disc_factored=fm,
        subfield_discs=(d,),
        label=label,
    )


def biquadratic_field(d1_radicand, d2_radicand, label: str = "") -> FieldDescriptor:
    """Compositum of two distinct quadratic fields.

    The discriminant comes from the conductor-discriminant formula:
    |disc| is the product of the discriminants of the three quadratic
    subfields, the third being generated by the product of the radicands.
    """
    spec1 = QuadraticSpec.of(d1_radicand)
    spec2 = QuadraticSpec.of(d2_radicand)
    if fundamental_discriminant(spec1.factors) == fundamental_discriminant(spec2.factors):
        raise DegenerateFieldError("the two radicands generate the same quadratic field")
    disc_fact: dict[int, int] = {}
    values = []
    for factors in (
        spec1.factors,
        spec2.factors,
        tuple(spec1.factors) + tuple(spec2.factors),
    ):
        sign, fm = fundamental_discriminant_factored(factors)
        val = sign
        for p, e in fm.items():
            val *= p**e
            disc_fact[p] = disc_fact.get(p, 0) + e
        values.append(val)
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
        label=label,
    )


def disc_with_tame_conductor(fld: FieldDescriptor, norms, p: int) -> dict[int, int]:
    """Factored |disc(K)| * prod of the norms of a tame place set.

    `norms` is an iterable of place norms (prime powers) coprime to p.
    """
    out = dict(fld.abs_disc_factored)
    for q in norms:
        pp = q if isinstance(q, PrimePower) else PrimePower.from_value(q)
        if pp.ell == p:
            raise DomainError(f"place of norm {pp.value} lies above p = {p}; the set is not tame")
        out[pp.ell] = out.get(pp.ell, 0) + pp.m
    return out


def log_disc_with_tame_conductor(fld: FieldDescriptor, norms, p: int) -> float:
    fact = disc_with_tame_conductor(fld, norms, p)
    return sum(e * log(q) for q, e in fact.items())


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

    `split`, when given, pins the splitting of a biquadratic field's prime in
    place of the Kronecker verdict; ramification, and the splitting in a
    quadratic field, are always derived.
    """
    if fld.degree == 2:
        st = splitting_type(fld, ell)
        if st is SplitType.SPLIT:
            return [(ell, 2)]
        if st is SplitType.INERT:
            return [(ell * ell, 1)]
        return [(ell, 1)]
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


def enumerate_norms(fld: FieldDescriptor, bound: int) -> list[tuple[int, int]]:
    """All (norm, count) pairs with norm <= bound, sorted by norm."""
    if bound < 2:
        return []
    out = []
    for ell in sieve_primes(bound):
        for norm, count in norms_above(fld, ell):
            if norm <= bound:
                out.append((norm, count))
    out.sort()
    return out


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
    core_val = sign
    for q in core:
        core_val *= q
    if 2 in core or core_val % 4 != 1:
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


def field_from_spec(spec: dict, label: str = "") -> FieldDescriptor:
    """Build a descriptor from the scenario-file JSON representation."""
    kind = spec.get("type")
    if kind == "quadratic":
        return quadratic_field(spec["radicand_factors"], label=label)
    if kind == "biquadratic":
        return biquadratic_field(spec["d1_factors"], spec["d2_factors"], label=label)
    raise DomainError(f"unknown field type {kind!r}")
