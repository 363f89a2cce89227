"""Generalized Brauer-Siegel machinery in the Tsfasman-Vladut normalization.

The object being bounded is the limit B of log(h_n * Reg_n)/g_n along an
asymptotically exact tower, expressed through the place densities

    B = 1 + sum_q phi_q * log(q/(q-1)) - phi_R * log 2 - phi_C * log(2 pi),

where phi_q, phi_R, phi_C are the densities of finite places of norm q and
of real/complex places relative to the genus.  The densities obey a budget

    sum_q a(q) phi_q + a0 phi_R + a1 phi_C <= 1,

and per rational prime ell the masses satisfy
sum_m m * phi_{ell^m} <= phi_R + 2 phi_C.  Since both log(q/(q-1)) and
a(q) = log q/(sqrt(q)-1) decrease in q, with the payoff-per-budget ratio
also decreasing, the maximizing allocation fills each prime's cheapest
admissible norm in ascending order; `optimize` performs that greedy fill
with a fractional last step.

All phi-type quantities here are absolute densities (already divided by the
genus); scenario code converts from genus-scaled integers at the boundary.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import accumulate, chain, islice, repeat
from math import exp, log, pi, sqrt
from operator import le, lt, sub

from .arith import MAX_NORM_BOUND, left_sum
from .errors import DomainError, InfeasibleProblemError, NeedsLargerEnumerationError
from .frozen import Frozen

#: Euler-Mascheroni constant, 20 digits.
GAMMA = 0.57721566490153286061

#: Archimedean budget coefficients.
A0_REAL = log(2 * sqrt(2 * pi)) + pi / 4 + GAMMA / 2
A1_COMPLEX = log(8 * pi) + GAMMA

#: Archimedean payoff coefficients.
B0_REAL = log(2.0)
B1_COMPLEX = log(2 * pi)


def _a(qv: float) -> float:
    return log(qv) / (sqrt(qv) - 1.0)


def _b(qv: float) -> float:
    return log(qv / (qv - 1.0))


def a_coeff(q) -> float:
    """Budget coefficient log q / (sqrt(q) - 1); its floats strictly decrease over integers 2..MAX_NORM_BOUND."""
    qv = float(int(q))
    if qv < 2:
        raise DomainError(f"norm must be >= 2, got {q}")
    return _a(qv)


def b_coeff(q) -> float:
    """Payoff coefficient log(q/(q-1)); its floats strictly decrease over integers 2..MAX_NORM_BOUND."""
    qv = float(int(q))
    if qv < 2:
        raise DomainError(f"norm must be >= 2, got {q}")
    return _b(qv)


# a(q) and b(q) by norm q <= MAX_NORM_BOUND, each computed once per process
# by `Record.costs`/`payoffs`; both are positive there, so a miss reads None
_A_OF: dict[int, float] = {}
_B_OF: dict[int, float] = {}


def _miss(table: dict[int, float], coeff, q) -> float:
    """coeff(float(q)), kept in table when q <= MAX_NORM_BOUND."""
    value = coeff(float(q))
    if q <= MAX_NORM_BOUND:
        table[q] = value
    return value


def universal_B(mode: str) -> float:
    """Universal upper bounds for B: 'GRH', 'GRH_totally_imaginary',
    or 'Unconditional'."""
    table = {
        "GRH": 1.0939,
        "GRH_totally_imaginary": 1.0765,
        "Unconditional": 1.1589,
    }
    try:
        return table[mode]
    except KeyError:
        raise DomainError(f"unknown mode {mode!r}; expected one of {sorted(table)}") from None


def zimmert_lower(x0: float, x1: float) -> float:
    """Regulator-density lower bound:
    (log sqrt(pi e) + gamma/2) * phi_R + (log 2 + gamma) * phi_C."""
    if x0 < 0 or x1 < 0:
        raise DomainError("densities must be nonnegative")
    return (log(sqrt(pi * exp(1))) + GAMMA / 2) * x0 + (log(2.0) + GAMMA) * x1


class Record:
    """Candidates that `optimize` reads as one; the protocol is in its docstring."""

    __slots__ = ()

    def costs(self) -> list[float]:
        """weight * a_coeff(q) per norm q, in the same float operations; a(q)
        is computed once per process for q <= MAX_NORM_BOUND and then read."""
        w, a = self.weight, _A_OF.get
        return [w * (a(q) or _miss(_A_OF, _a, q)) for q in self.norms]

    def payoffs(self) -> list[float]:
        """weight * b_coeff(q) per norm q, in the same float operations; b(q)
        is computed once per process for q <= MAX_NORM_BOUND and then read."""
        w, b = self.weight, _B_OF.get
        return [w * (b(q) or _miss(_B_OF, _b, q)) for q in self.norms]

    def expand(self):
        return map(self.at, range(len(self.norms)))


class Candidate(Record, Frozen):
    """A prime's cheapest admissible norm (a power of `prime`) with its
    absolute density cap: a record of one."""

    __slots__ = ("prime", "norm", "weight")

    @property
    def primes(self) -> tuple[int]:
        return (self.prime,)

    @property
    def norms(self) -> tuple[int]:
        return (self.norm,)

    def at(self, i: int) -> "Candidate":
        return self


class CandidateRun(Record, Frozen):
    """Consecutive candidates, one per prime in `primes`, each of norm its
    prime and all of one `weight`.

    With `primes` a tuple, the run (and a solution holding it) hashes."""

    __slots__ = ("primes", "weight")

    @property
    def norms(self) -> Sequence[int]:
        return self.primes

    def candidate(self, prime: int) -> Candidate:
        return Candidate(prime, prime, self.weight)

    def at(self, i: int) -> Candidate:
        return self.candidate(self.primes[i])

    def head(self, count: int) -> "CandidateRun":
        """The run of its first `count` primes."""
        return self._replace(primes=self.primes[:count])


class TVProblem(Frozen):
    """Fixed archimedean densities plus the pinned finite part.

    `fixed` carries the norms whose densities are known exactly (the set
    Sigma), as (PrimePower, density) pairs.
    """

    __slots__ = ("x0", "x1", "fixed")
    _defaults = {"fixed": ()}

    def __post_init__(self):
        if self.x0 < 0 or self.x1 < 0:
            raise DomainError("archimedean densities must be nonnegative")
        if any(x < 0 for _, x in self.fixed):
            raise DomainError("fixed densities must be nonnegative")
        per_prime: dict[int, float] = {}
        for q, x in self.fixed:
            per_prime[q.ell] = per_prime.get(q.ell, 0.0) + q.m * x
        cap = self.x0 + 2 * self.x1
        for ell, used in per_prime.items():
            if used > cap * (1 + 1e-12) + 1e-15:
                raise DomainError(
                    f"fixed densities at prime {ell} use {used}, above the cap {cap}"
                )

    def fixed_budget_use(self) -> float:
        return left_sum(a_coeff(q) * x for q, x in self.fixed)

    def fixed_payoff(self) -> float:
        return left_sum(b_coeff(q) * x for q, x in self.fixed)


def budget(problem: TVProblem) -> float:
    """Remaining budget 1 - a0*x0 - a1*x1 - sum over fixed of a(q)*x_q."""
    left = 1.0 - A0_REAL * problem.x0 - A1_COMPLEX * problem.x1 - problem.fixed_budget_use()
    if left < -1e-12:
        raise InfeasibleProblemError(
            f"fixed data violates the basic inequality by {-left:.3e}"
        )
    return max(left, 0.0)


class TVSolution(Frozen):
    """Greedy fill result with every intermediate needed for auditing.

    `filled` holds the records filled whole, as read: candidates, and runs
    cut to the primes filled; `prefix` is the same as one candidate per
    prime.  `ell_star_0` is the candidate filled by the fraction `alpha`."""

    # __dict__ holds the cached prefix
    __slots__ = ("ell_star_0", "alpha", "sum_b_bound", "B_upper", "budget", "filled", "degenerate", "__dict__")
    _defaults = {"degenerate": False}

    @cached_property
    def prefix(self) -> tuple[Candidate, ...]:
        return tuple(chain.from_iterable(c.expand() for c in self.filled))


def assemble_B(sum_b: float, x0: float, x1: float) -> float:
    """B = 1 + sum_b - x0 * log 2 - x1 * log(2 pi)."""
    return 1.0 + sum_b - x0 * B0_REAL - x1 * B1_COMPLEX


def optimize(problem: TVProblem, candidates: Iterable[Record]) -> TVSolution:
    """Greedy fractional fill of the budget over ascending candidate norms.

    Candidates must be one per rational prime, in strictly ascending norm
    order, each carrying its admissible density weight.  The first candidate
    that does not fit whole becomes ell_star_0 and is filled fractionally by
    alpha in [0, 1); the payoff bound and the B upper bound follow, B
    assembled from the problem's own x0 and x1 (`assemble_B`).
    Nothing after ell_star_0 is read, so `candidates` may be an unbounded
    stream.  Running out of candidates with budget left is an error unless no
    weight is positive, which makes the solution degenerate.

    Candidates come as records: a `Candidate` is a record of one, a
    `CandidateRun` one of consecutive primes (an empty run is skipped).  A
    record has `primes`, their `norms`, one `weight`, `costs()`/`payoffs()`
    over its norms and `at(i)`, its candidate at i; a run also has `head(k)`.
    Each record is checked whole, also past the stop, and read in one pass
    with the same float operations and fit test as one candidate at a time.
    """
    left = budget(problem)
    filled: list[Record] = []
    ell_star_0: Candidate | None = None
    alpha = 0.0
    consumed = 0.0
    last_norm = 0
    seen_primes: set[int] = set()
    for rec in candidates:
        norms = rec.norms
        if not norms:
            continue
        if norms[0] <= last_norm or not all(map(lt, norms, islice(norms, 1, None))):
            raise DomainError("candidates must be strictly ascending by norm value")
        if norms[0] < 2:
            raise DomainError(f"norm must be >= 2, got {norms[0]}")
        if rec.weight < 0:
            raise DomainError("candidate weights must be nonnegative")
        # every prime read so far is at most last_norm, below norms[0]; a run's
        # primes are its norms, so only a higher power can repeat a prime
        primes = rec.primes
        if primes[0] < norms[0] and primes[0] in seen_primes:
            raise DomainError(f"two candidates for prime {primes[0]}")
        seen_primes.update(primes)
        last_norm = norms[-1]
        costs = rec.costs()
        totals = list(accumulate(costs, initial=consumed))
        # fits[i] is the per-candidate test at i: cost_i <= left - consumed_{i-1}
        fits = list(map(le, costs, map(sub, repeat(left), totals)))
        stop = fits.index(False) if False in fits else len(fits)
        consumed = totals[stop]
        if rec.weight > 0 and stop:
            filled.append(rec if stop == len(fits) else rec.head(stop))
        if stop < len(fits):
            ell_star_0 = rec.at(stop)
            alpha = (left - consumed) / costs[stop]
            break
    # a positive weight lands either in the prefix or at ell_star_0
    degenerate = not filled and ell_star_0 is None
    if ell_star_0 is None and not degenerate and left - consumed > 1e-12:
        raise NeedsLargerEnumerationError(f"candidates exhausted with budget {left - consumed:.6g} unconsumed")

    sum_b = problem.fixed_payoff()
    sum_b += left_sum(chain.from_iterable(c.payoffs() for c in filled))
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


def alpha_constant(B_value: float, log_sqrt_disc: float, r1: int, r2: int) -> float:
    """Archimedean-corrected numerator of the mean-exponent bound:

        B * log sqrt(disc(K,S)) - (r1/2)(gamma + 1 + log pi) - r2 (gamma + log 2).
    """
    return (
        B_value * log_sqrt_disc
        - (r1 / 2.0) * (GAMMA + 1.0 + log(pi))
        - r2 * (GAMMA + log(2.0))
    )


def mean_exponent_upper(epsilon, p: int, alpha_value: float, a_sigma: int = 0) -> float:
    """Assembled asymptotic mean-exponent bound (1/eps)(alpha/log p + a(Sigma))."""
    eps = float(epsilon)
    if eps <= 0:
        raise DomainError("the linear-growth rate epsilon must be positive")
    return (alpha_value / log(p) + a_sigma) / eps


def per_level_bound(
    index: int,
    d_n: int,
    log_sqrt_disc_ks: float,
    a_sigma: int,
    ratio_h_over_g: float,
    p: int,
) -> float:
    """Single-level mean-exponent bound
    ([K_n:K]/d_n) * (log_p sqrt(disc(K,S)) * log(h_n)/g_n + a(Sigma));
    a trivial group (d_n = 0) contributes 0."""
    if d_n == 0:
        return 0.0
    if d_n < 0 or index < 1:
        raise DomainError("need index >= 1 and d_n >= 0")
    if ratio_h_over_g < 0:
        raise DomainError("log(h)/g ratio must be nonnegative")
    return (index / d_n) * (log_sqrt_disc_ks / log(p) * ratio_h_over_g + a_sigma)
