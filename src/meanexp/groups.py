"""Finite abelian p-groups, their mean exponent, and Iwasawa-type asymptotics.

Mean exponents are exact rationals internally; they only become floats at
output boundaries, so published-decimal comparisons see a single rounding.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .arith import is_prime
from .errors import DomainError, InconsistentParametersError
from .frozen import Frozen


class AbelianPShape(Frozen):
    """A finite abelian p-group as sorted elementary-divisor exponents.

    exps = (a_1, ..., a_d) with a_1 >= ... >= a_d >= 1 describes the group
    Z/p^a_1 x ... x Z/p^a_d; the empty tuple is the trivial group.
    """

    __slots__ = ("p", "exps")
    _defaults = {"exps": ()}

    def __post_init__(self):
        if not is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
        if any(a < 1 for a in self.exps):
            raise DomainError("exponents must be >= 1")
        normalized = tuple(sorted(self.exps, reverse=True))
        object.__setattr__(self, "exps", normalized)

    def to_json(self) -> dict:
        return {"p": self.p, "exps": list(self.exps)}


def mean_exponent(shape: AbelianPShape) -> Fraction:
    """Average elementary-divisor exponent; 0 for the trivial group."""
    if not shape.exps:
        return Fraction(0)
    return Fraction(sum(shape.exps), len(shape.exps))


def exponent_log(shape: AbelianPShape) -> int:
    """a_1, i.e. log_p of the group exponent (0 for the trivial group)."""
    return shape.exps[0] if shape.exps else 0


def rank(shape: AbelianPShape) -> int:
    return len(shape.exps)


def order_log(shape: AbelianPShape) -> int:
    """log_p of the group order."""
    return sum(shape.exps)


class IwasawaParams(Frozen):
    """Growth invariants along a Z_p-extension.

    Order grows as mu * p^n + lambda * n + nu while the rank grows as
    s * p^n + lambda + c; mu vanishes exactly when s does, which is enforced.
    """

    __slots__ = ("p", "mu", "lam", "nu", "s", "c")

    def __post_init__(self):
        if not is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
        if self.mu < 0 or self.lam < 0 or self.s < 0 or self.c < 0:
            raise DomainError("mu, lambda, s, c must be nonnegative")
        if (self.mu == 0) != (self.s == 0):
            raise InconsistentParametersError("mu = 0 exactly when s = 0")


def iwasawa_level_data(params: IwasawaParams, n: int) -> tuple[int, int, Fraction]:
    """(order_log, rank, mean exponent) at level n of the extension.

    The growth formulas are asymptotic in n; the caller is responsible for
    supplying an n in the stable range, and inconsistent outputs (rank <= 0,
    or order smaller than rank) are rejected rather than repaired.
    """
    order = params.mu * params.p**n + params.lam * n + params.nu
    rk = params.s * params.p**n + params.lam + params.c
    if rk <= 0 or order < rk:
        raise InconsistentParametersError(
            f"level {n}: order_log = {order}, rank = {rk} is not a valid group shape"
        )
    return order, rk, Fraction(order, rk)


class IwasawaClass(enum.Enum):
    GROWS_LOG = "grows_log"
    CONSTANT_MU_OVER_S = "constant_mu_over_s"
    CONSTANT_NU_OVER_C = "constant_nu_over_c"


def iwasawa_asymptotic_class(params: IwasawaParams) -> tuple[IwasawaClass, Fraction]:
    """Limit behavior of the mean exponent along the extension.

    Returns the class together with its rate: delta = lambda/(lambda+c)
    for logarithmic growth (mean ~ delta * log_p of the degree), mu/s or
    nu/c for the two bounded regimes.
    """
    if params.mu != 0:
        return IwasawaClass.CONSTANT_MU_OVER_S, Fraction(params.mu, params.s)
    if params.lam != 0:
        return IwasawaClass.GROWS_LOG, Fraction(params.lam, params.lam + params.c)
    if params.c == 0:
        raise InconsistentParametersError(
            "mu = lambda = 0 with c = 0 leaves no nontrivial stable shape"
        )
    return IwasawaClass.CONSTANT_NU_OVER_C, Fraction(params.nu, params.c)
