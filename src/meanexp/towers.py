"""Rank bounds and infinitude criteria for restricted-ramification towers.

Everything is exact integer arithmetic.  The square-root criteria are
evaluated by squaring, never through floating point: several of the worked
examples sit exactly on the boundary, where a rounded sqrt could flip the
verdict.  rho >= a + 2*sqrt(b) holds iff rho - a >= 0 and (rho - a)^2 >= 4b.
"""

from __future__ import annotations

import enum

from .errors import DomainError


def rank_lower_bound_ST(size_s: int, size_t: int, r1: int, r2: int, delta: int) -> int:
    """Lower bound |S| - (r1 + r2 + |T| - delta) for the p-rank of the
    S-ramified T-split abelianization.  May be negative; returned as-is."""
    return size_s - (r1 + r2 + size_t - delta)


def genus_rank_bound(rho: int, r1: int, r2: int, delta: int) -> int:
    """Genus-theory p-rank bound for a cyclic degree-p extension:
    rho - 1 - (r1 + r2 - 1 + delta), rho counting ramified places of the base
    (archimedean ones included when p = 2)."""
    _require_nonnegative(rho=rho, r1=r1, r2=r2)
    if r1 + r2 == 0:
        raise DomainError("r1 + r2 must be positive: a number field has an archimedean place")
    return rho - 1 - (r1 + r2 - 1 + delta)


def _require_nonnegative(**counts: int) -> None:
    for name, value in counts.items():
        if value < 0:
            raise DomainError(f"{name} must be nonnegative, got {value}")


class GSVerdict(enum.Enum):
    MUST_BE_INFINITE = "must_be_infinite"
    INCONCLUSIVE = "inconclusive"


def gs_finite_requires(d: int) -> int:
    """Smallest relation rank a finite pro-p group with d generators can have:
    ceil(d^2 / 4)."""
    if d < 1:
        raise DomainError("generator rank must be >= 1")
    return -(-d * d // 4)


def gs_verdict(d: int, r_upper: int) -> GSVerdict:
    """Contrapositive of the generator/relation inequality for finite groups:
    if every presentation has r < d^2/4 the group cannot be finite."""
    if d < 1 or r_upper < 0:
        raise DomainError("need d >= 1 and r_upper >= 0")
    if 4 * r_upper < d * d:
        return GSVerdict.MUST_BE_INFINITE
    return GSVerdict.INCONCLUSIVE


def shafarevich_relation_upper(d: int, r1: int, r2: int, size_t: int, delta_sp: int) -> int:
    """Euler-characteristic upper bound for the relation rank:
    r <= d + (r1 + r2 - 1 + delta_{S,p} + |T|)."""
    if min(d, r1, r2, size_t) < 0 or delta_sp not in (0, 1):
        raise DomainError("inputs must be nonnegative with delta in {0,1}")
    return d + (r1 + r2 - 1 + delta_sp + size_t)


def _geq_plus_2sqrt(lhs: int, base: int, radicand: int) -> bool:
    """Exact test of lhs >= base + 2*sqrt(radicand) for integers."""
    diff = lhs - base
    if diff < 0:
        return False
    return diff * diff >= 4 * radicand


def tsplit_criterion(
    rho: int,
    i_t: int,
    r1_base: int,
    r2_base: int,
    t_base: int,
    delta_base: int,
    r1_ext: int,
    r2_ext: int,
    t_ext: int,
    delta_ext: int,
) -> bool:
    """T-split genus criterion for an infinite tower over a cyclic degree-p step:

        rho + i_T >= 3 + r1(k) + r2(k) + |T(k)| - 1 + delta_k
                       + 2*sqrt(r1(K) + r2(K) + |T(K)| + delta_K)
    """
    if min(rho, i_t, r1_base, r2_base, t_base, r1_ext, r2_ext, t_ext) < 0:
        raise DomainError("inputs must be nonnegative")
    base = 3 + r1_base + r2_base + t_base - 1 + delta_base
    radicand = r1_ext + r2_ext + t_ext + delta_ext
    return _geq_plus_2sqrt(rho + i_t, base, radicand)


def critere_real_quadratic(rho: int, t_dec: int, t_total: int) -> bool:
    """Specialization to real quadratic base fields and odd T:
    the T-split 2-tower is infinite once rho >= 4 + |T_dec| + 2*sqrt(3 + |T|),
    rho counting ramified primes outside T."""
    _require_nonnegative(rho=rho, t_dec=t_dec, t_total=t_total)
    if t_dec > t_total:
        raise DomainError(f"t_dec = {t_dec} exceeds t_total = {t_total}")
    return _geq_plus_2sqrt(rho, 4 + t_dec, 3 + t_total)


def schreier_upper(d_base: int, index: int) -> int:
    """Subgroup rank bound from the free-group index formula:
    d_p of the level-n class group is at most (d_base - 1) * index + 1."""
    if d_base < 1 or index < 1:
        raise DomainError("need d_base >= 1 and index >= 1")
    return (d_base - 1) * index + 1


def ershov_schmidt_ratio(t: int, r1: int, r2: int) -> int:
    """Per-index rank growth extracted from local generators:
    d_p(G_i)/[G:G_i] >= t - (r1 + r2)."""
    if min(t, r1, r2) < 0:
        raise DomainError("inputs must be nonnegative")
    return t - (r1 + r2)


def hajir_refined_lower(t: int, index: int) -> int:
    """Refined genus lower bound t * index + 1 (two better than the plain
    genus estimate t * index - 1)."""
    if t < 1 or index < 1:
        raise DomainError("need t >= 1 and index >= 1")
    return t * index + 1
