"""Dimension series and filtration ranks of one-relator-type pro-p groups.

For a finitely presented pro-p group whose relations have degrees a_1..a_r
with respect to the dimension (Zassenhaus) filtration, the graded group
algebra has coefficient series bounded below by 1/(1 - d*T + sum_i T^{a_i}),
with equality in cohomological dimension <= 2.  The coefficients c_n then
satisfy the linear recurrence c_n = d*c_{n-1} - sum_{a_i <= n} c_{n-a_i}.

The filtration ranks b_i are tied to the series by the product identity

    U(T) = prod_{i>=1} ((T^{p*i} - 1)/(T^i - 1))^{b_i},

and are extracted exactly, in integer arithmetic, along one route that
starts from the nonzero terms (j, e_j) of the inverse series 1/U:

1. read off the Newton power sums w_m of U from that support,
   w_m = -m*e_m - sum_{j in supp, j < m} e_j w_{m-j}.  For a GS group the
   inverse is the relation polynomial P(T) = 1 - d*T + sum_i T^{a_i}
   itself (gs_ranks), so for k distinct degrees this costs O(N*k) and the
   series is never expanded; a general series (zassenhaus_ranks) is
   inverted first, at O(N^2) for a dense inverse;
2. fold in the p-th powers: V_m = w_m + p * V_{m/p} (second term only when
   p | m), so that V_m = sum_{i | m} i*b_i;
3. invert that divisor sum, i*b_i = sum_{e | i} mu(e) V_{i/e}, in place by
   one strided pass per prime q <= N, V_m -> V_m - V_{m/q} for q | m (the
   Moebius function is the product of the factors 1 - q^-s), and divide
   each i*b_i by i.

The float-log witness regime (quadratic relations only) starts past
EXACT_ORDER_LIMIT, where the p-th power fold and the Moebius inversion move
no float, so it reads i*b_i as the power sum s_i there.  power_sums (the
integer recurrence s_m = d*s_{m-1} - r*s_{m-2}, exact for any sign of
d^2 - 4r) shares no code with this route and serves as a check on it.
"""

from __future__ import annotations

import math
from operator import sub

from . import WITNESS_N_MAX
from .arith import is_prime, left_sum, sieve_primes
from .errors import DomainError, InapplicableError, SeriesError
from .frozen import Frozen

#: Largest order kept in exact big-integer arithmetic, and the one split
#: between the witness scan's exact rows and its log-domain float rows.
EXACT_ORDER_LIMIT = 4096


class GSGroupParams(Frozen):
    """Presentation data: d generators, r relations with given degrees
    (no degrees: all r relations are quadratic)."""

    __slots__ = ("d", "r", "p", "relation_degrees")
    _defaults = {"relation_degrees": ()}

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("need at least one generator")
        if self.r < 0:
            raise DomainError("relation rank must be nonnegative")
        if not is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
        degrees = tuple(self.relation_degrees)
        if degrees and len(degrees) != self.r:
            raise DomainError("one degree per relation required")
        if any(a < 2 for a in degrees):
            raise DomainError("relation degrees must be >= 2")
        object.__setattr__(self, "relation_degrees", degrees)

    @property
    def quadratic(self) -> bool:
        return all(a == 2 for a in self.relation_degrees)

    def gs_type(self) -> bool:
        """Quadratic relations with d^2 >= 4r."""
        return self.quadratic and self.d * self.d >= 4 * self.r


class SeriesExpansion(Frozen):
    __slots__ = ("coeffs",)

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != 1:
            raise SeriesError("series must start with constant term 1")

    def order(self) -> int:
        return len(self.coeffs) - 1


class ZassenhausRanks(Frozen):
    __slots__ = ("p", "b")  # b[0] is b_1

    def rank(self, i: int) -> int:
        if not 1 <= i <= len(self.b):
            raise DomainError(f"rank b_{i} not computed (have {len(self.b)})")
        return self.b[i - 1]


def gs_series(params: GSGroupParams, order: int) -> SeriesExpansion:
    """Coefficients of 1/(1 - d*T + sum_i T^{a_i}) to the given order."""
    if order < 0:
        raise DomainError("order must be nonnegative")
    support = _relation_polynomial(params)
    c = [1]
    for n in range(1, order + 1):
        val = 0
        for j, e_j in support:
            if j > n:
                break
            val -= e_j * c[n - j]
        if val < 0:
            raise SeriesError(
                f"coefficient c_{n} = {val} < 0: relations too heavy for d = {params.d}"
            )
        c.append(val)
    return SeriesExpansion(tuple(c))


def power_sums(d: int, r: int, up_to: int) -> list[int]:
    """s_m = alpha^m + beta^m for the roots of X^2 - d*X + r, exactly."""
    s = [2, d]
    for _ in range(2, up_to + 1):
        s.append(d * s[-1] - r * s[-2])
    return s[: up_to + 1]


def _relation_polynomial(params: GSGroupParams) -> list[tuple[int, int]]:
    """Support [(j, e_j)] of P(T) = 1 - d*T + sum_i T^{a_i} past its constant
    term: the inverse of the GS series, ascending in j."""
    degree_counts = {2: params.r} if params.r and not params.relation_degrees else {}
    for a in params.relation_degrees:
        degree_counts[a] = degree_counts.get(a, 0) + 1
    return [(1, -params.d), *sorted(degree_counts.items())]


def _inverse_support(coeffs: tuple[int, ...]) -> list[tuple[int, int]]:
    """Nonzero terms (j, e_j), j >= 1, of e = 1/c for c_0 = 1, ascending:
    e_m = -c_m - sum_{j in supp, j < m} e_j c_{m-j}."""
    support: list[tuple[int, int]] = []
    for m in range(1, len(coeffs)):
        e_m = -coeffs[m] - sum(e_j * coeffs[m - j] for j, e_j in support)
        if e_m:
            support.append((m, e_m))
    return support


def _ranks_from_inverse(support: list[tuple[int, int]], p: int, order: int) -> ZassenhausRanks:
    """b_1..b_order from the nonzero terms (j, e_j) of the inverse series.

    Raises SeriesError at the first i whose b_i is not integral, or else
    negative, checking integrality first.
    """
    # Newton: w_m = -m*e_m - sum_{j in supp, j < m} e_j w_{m-j}, with w_m at
    # v[pad + m], so that the pad zeros below w_1 stand in for the j >= m
    support = [(j, e_j) for j, e_j in support if j <= order]
    pad = support[-1][0] if support else 0
    v = [0] * (pad + order + 1)
    for j, e_j in support:
        v[pad + j] = -j * e_j
    for k in range(pad + 1, pad + order + 1):
        w = v[k]
        for j, e_j in support:
            w -= e_j * v[k - j]
        v[k] = w
    del v[:pad]
    # in place, V_m = w_m + p*V_{m/p}
    for m in range(p, order + 1, p):
        v[m] += p * v[m // p]
    # i*b_i = sum_{e | i} mu(e) V_{i/e}: mu is the Dirichlet product of
    # (1 - q^-s) over the primes q, so one pass per prime q <= order takes
    # V_m - V_{m/q} at each multiple m of q, reading the values before it
    for q in sieve_primes(order) if order >= 2 else ():
        v[q::q] = map(sub, v[q::q], v[1 : order // q + 1])
    for i in range(1, order + 1):
        b_i, rest = divmod(v[i], i)
        if rest:
            raise SeriesError(f"rank b_{i} is not integral ({v[i]}/{i})")
        if b_i < 0:
            raise SeriesError(f"rank b_{i} = {b_i} < 0: series is not realizable at p = {p}")
        v[i] = b_i
    return ZassenhausRanks(p=p, b=tuple(v[1:]))


def zassenhaus_ranks(series: SeriesExpansion, p: int, order: int) -> ZassenhausRanks:
    """The unique b_1..b_order matching the product expansion, exactly.

    Order-by-order matching is equivalent to: V_m = w_m + p*V_{m/p} with w
    the Newton power sums of the series, then i*b_i = sum_{e|i} mu(e) V_{i/e}.
    Non-integral or negative b_i mean the series is not realizable and raise.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if order > series.order():
        raise DomainError(
            f"series carries only {series.order()} coefficients, need {order}"
        )
    return _ranks_from_inverse(_inverse_support(series.coeffs[: order + 1]), p, order)


#: Series terms gs_ranks expands before it computes any rank.
_SERIES_PROBE = 16


def gs_ranks(params: GSGroupParams, order: int) -> ZassenhausRanks:
    """zassenhaus_ranks(gs_series(params, order), params.p, order), read off
    the relation polynomial without expanding the series.

    A negative coefficient c_n is reported as gs_series reports it:
    nonnegative integral b_1..b_N make every c_n with n <= N nonnegative, so
    when some c_n is negative the ranks fail.  The first _SERIES_PROBE terms
    are expanded before any power sum, so a presentation that fails there
    costs no rank work; past them, the series is expanded only when the
    ranks fail.
    """
    if order < 0:
        raise DomainError("order must be nonnegative")
    gs_series(params, min(order, _SERIES_PROBE))
    try:
        return _ranks_from_inverse(_relation_polynomial(params), params.p, order)
    except SeriesError:
        gs_series(params, order)
        raise


def power_sum_check(params: GSGroupParams, m: int, ranks: ZassenhausRanks) -> bool:
    """Cross-check s_m = sum_{i|m} i*b_i, valid only for m coprime to p."""
    if not params.quadratic:
        raise InapplicableError("power-sum identity requires quadratic relations")
    if m % params.p == 0:
        raise InapplicableError(f"identity needs m coprime to p; got m = {m}, p = {params.p}")
    if m > len(ranks.b):
        raise DomainError(f"ranks computed only to order {len(ranks.b)}")
    s = power_sums(params.d, params.r, m)
    rhs = sum(i * ranks.rank(i) for i in range(1, m + 1) if m % i == 0)
    return s[m] == rhs


def b_power_of_two(params: GSGroupParams, n: int) -> int:
    """Exact b_{2^n} for odd p via (s_{2^n} - s_{2^(n-1)}) / 2^n."""
    if params.p == 2:
        raise InapplicableError("the power-of-two shortcut needs 2 coprime to p")
    if not params.quadratic:
        raise InapplicableError("requires quadratic relations")
    if n < 1:
        raise DomainError("n must be >= 1")
    s = power_sums(params.d, params.r, 2**n)
    num = s[2**n] - s[2 ** (n - 1)]
    if num % 2**n != 0:
        raise SeriesError(f"b_(2^{n}) is not integral")
    return num // 2**n


def index_log(ranks: ZassenhausRanks, n: int) -> int:
    """log_p of the index of the 2^n-th filtration step: sum of b_i, i < 2^n."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    top = 2**n - 1
    if top > len(ranks.b):
        raise DomainError(f"need ranks to order {top}, have {len(ranks.b)}")
    return sum(ranks.b[: top])


def window_rank(ranks: ZassenhausRanks, n: int) -> int:
    """Rank of the 2^n-th step modulo the next: sum of b_i over [2^n, 2^(n+1))."""
    top = 2 ** (n + 1) - 1
    if top > len(ranks.b):
        raise DomainError(f"need ranks to order {top}, have {len(ranks.b)}")
    return sum(ranks.b[2**n - 1 : top])


class WitnessRow(Frozen):
    """One row of the growth-witness scan.

    In the "exact" regime index_log, window_rank and rhs are the literal
    quantities.  In the "float-log" regime the same three fields carry
    natural logarithms (the raw values overflow floats); the comparison is
    order-preserving so `satisfied` means the same thing in both regimes.
    """

    __slots__ = ("n", "index_log", "window_rank", "rhs", "satisfied", "regime")
    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


def _float_log_ranks(params: GSGroupParams, lo: int, hi: int) -> float:
    """log of sum(b_i, lo <= i < hi) in the float regime (quadratic case),
    for a window that ends past EXACT_ORDER_LIMIT.

    Only the top K = ceil(45/log alpha) + 2 terms, max(lo, hi - K) <= i < hi,
    are summed; the rest of the window lies below float precision.  With
    integer d and r, alpha > 1 forces alpha >= 2, and 0 <= beta <= alpha, so
    s_t = alpha^t + beta^t is in [alpha^t, 2 alpha^t].  The ranks are
    nonnegative, and V_i = sum_{j | i} j*b_j = sum_{p^k | i} p^k s_{i/p^k}, so

        alpha^i <= V_i <= 2 alpha^i + 4i alpha^(i/2),      i*b_i <= V_i,
        H*b_H >= V_H - sum_{j <= H/2} V_j >= alpha^H / 2     (H = hi - 1),

    the last because alpha^H >= alpha^(K+1) >= e^45 alpha^3 when anything is
    dropped.  Summing over the dropped indices i < N = hi - K (N >= 2):

        sum_{lo <= i < N} b_i <= (16 (H/N) alpha^-K + 28 H alpha^(N/2 - H)) b_H
                              <= 620 e^-45 b_H < 2^-55 b_H,

    using alpha^K >= e^45 alpha^2, H/N <= (K + 1)/2 and, for alpha >= 2,
    (K + 1)/alpha^2 <= 17.2 (the two terms give 138 and 482).  The dropped
    terms therefore move the log-sum by less than 2^-55, while the log-sum
    exceeds log b_H > 40, where one ulp is 2^-47 or more.

    Each summed term is log(s_i) - log(i).  K <= 67 at alpha >= 2, so a
    window with hi >= 4,096, as every float row's is, sums only indices
    past 4,028.  There
    i*b_i differs from s_i by the p-th power fold and the Moebius
    corrections, fewer than 2i terms, each at most 2i*alpha^(i/2): relative
    to s_i >= alpha^i, each is at most 2i*alpha^(-i/2) < 2^-2000, and all of
    them together lie below the smallest positive float.  Nothing but s_i is
    representable there.
    """
    if not params.quadratic:
        raise InapplicableError("float regime needs quadratic relations")
    d, r = params.d, params.r
    disc = d * d - 4 * r
    if disc < 0:
        raise InapplicableError("float regime needs real roots (d^2 >= 4r)")
    alpha = (d + math.sqrt(disc)) / 2.0
    beta = (d - math.sqrt(disc)) / 2.0
    if alpha <= 1.0:
        raise InapplicableError("dominant root must exceed 1")
    log_alpha = math.log(alpha)

    def log_s(m: int) -> float:
        # log(alpha^m + beta^m), beta possibly below 1
        base = m * log_alpha
        if beta > 0:
            ratio = m * (math.log(beta) - log_alpha)
            if ratio > -700:
                return base + math.log1p(math.exp(ratio))
        return base

    first = max(lo, hi - (math.ceil(45 / log_alpha) + 2))
    terms = [log_s(i) - math.log(i) for i in range(first, hi)]
    peak = max(terms)
    return peak + math.log(left_sum(math.exp(t - peak) for t in terms))


def theo2_witnesses(params: GSGroupParams, epsilon: float, n_max: int) -> list[WitnessRow]:
    """Scan n = 1..n_max for window_rank(n) >= index_log(n)^(2 - epsilon).

    The underlying growth theorem guarantees infinitely many such n for
    non-analytic groups of this type; the scan records which small n witness
    it.  Rows with 2^(n+1) - 1 <= EXACT_ORDER_LIMIT (n <= 11) are exact;
    beyond that the quantities switch to the log-domain float regime and the
    row is marked.  The float regime models quadratic relations only and
    raises InapplicableError for other degrees.  n_max is at most
    WITNESS_N_MAX.
    """
    if not 0 < epsilon < 1:
        raise DomainError("epsilon must be in (0, 1)")
    if n_max < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_max}")
    if n_max > WITNESS_N_MAX:
        raise DomainError(f"n_max must be at most {WITNESS_N_MAX}, got {n_max}")
    rows: list[WitnessRow] = []
    # rows 1..n_exact are exact: 2^(n+1) - 1 <= EXACT_ORDER_LIMIT
    n_exact = min(n_max, (EXACT_ORDER_LIMIT + 1).bit_length() - 2)
    ranks = gs_ranks(params, 2 ** (n_exact + 1) - 1) if n_exact >= 1 else None

    for n in range(1, n_max + 1):
        if n <= n_exact:
            il = index_log(ranks, n)
            wr = window_rank(ranks, n)
            try:
                rhs = float(il) ** (2 - epsilon) if il > 0 else 0.0
                rows.append(WitnessRow(n, float(il), float(wr), rhs, float(wr) >= rhs, "exact"))
                continue
            except OverflowError:
                # the ranks are exact but too large for raw floats: report the
                # row in the log domain (math.log is exact-input on big ints)
                log_il = math.log(il)
                log_wr = math.log(wr) if wr > 0 else float("-inf")
        else:
            log_il = _float_log_ranks(params, 1, 2**n)
            log_wr = _float_log_ranks(params, 2**n, 2 ** (n + 1))
        log_rhs = (2 - epsilon) * log_il
        rows.append(WitnessRow(n, log_il, log_wr, log_rhs, log_wr >= log_rhs, "float-log"))
    return rows


def uniform_lower(d: int, n: int) -> tuple[int, int]:
    """Mean-exponent lower bound along the p-central series of a uniform
    group of dimension d: the n-th step has mean exponent >= n, at index
    log_p = d*n.  Returns (bound, index_log)."""
    if d < 1 or n < 1:
        raise DomainError("need d >= 1 and n >= 1")
    return n, d * n


def prop_theo1_bound(c_kst: float, index: int) -> float:
    """Linear-in-index mean-exponent bound C * [G:U]."""
    if c_kst <= 0:
        raise DomainError("the constant must be positive")
    if index < 1:
        raise DomainError("index must be >= 1")
    return c_kst * index
