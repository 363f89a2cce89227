"""Ground truth for imaginary quadratic class groups via reduced forms.

Class numbers and class-group structure are recomputed from scratch here:
reduced positive-definite binary quadratic forms enumerate the classes, and
classical Dirichlet composition gives the group law.  Nothing in this module
shares code with the bound machinery it is used to cross-check; its square
roots modulo prime powers are its own.

The forms are enumerated by square roots, not by trial division: for each
a <= sqrt(|D|/3) the middle coefficients b in (-a, a] with b^2 = D (mod 4a)
are the CRT combinations of the roots of D modulo 2^(s+1) (brute force, for
a = 2^s * m with m odd) and modulo each odd prime power of m (Tonelli-Shanks
and a Hensel lift, or brute force when the prime divides D).  Only those
(a, b) are tested for reduction and primitivity, so the enumeration costs
about sqrt(|D|) root combinations plus h.

The structure takes one enumeration of the forms (class_group): for each
p | h = p^k * m, the m-th powers of the forms generate the Sylow
p-subgroup, which is closed coset by coset until it has p^k elements, and
its p-power map then gives the torsion counts |S[p^j]| that fix the
elementary divisors.  Every count is checked to be an exact power of p.

Scale limits are deliberate: |D| up to about 10^6, class numbers in the
low thousands.  Composition is plain Dirichlet composition with reduction;
no NUCOMP, and no baby-step giant-step.
"""

from __future__ import annotations

import random
from functools import total_ordering
from math import gcd, isqrt

from .arith import factor
from .errors import DomainError, InternalInconsistencyError
from .frozen import Frozen
from .groups import AbelianPShape


def _check_disc(D: int) -> None:
    if D >= 0 or D % 4 not in (0, 1):
        raise DomainError(f"discriminant must be negative and 0 or 1 mod 4, got {D}")


@total_ordering
class QuadForm(Frozen):
    """Primitive positive-definite form a*x^2 + b*x*y + c*y^2; forms order as (a, b, c)."""

    __slots__ = ("a", "b", "c")

    def __lt__(self, other):
        return self._k < other._k if other.__class__ is self.__class__ else NotImplemented

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        return abs(b) <= a <= c and not (b < 0 and (abs(b) == a or a == c))

    def inverse(self) -> "QuadForm":
        return reduce_form(QuadForm(self.a, -self.b, self.c))


def reduce_form(f: QuadForm) -> QuadForm:
    """Unique reduced representative of the proper equivalence class."""
    a, b, c = f.a, f.b, f.c
    D = b * b - 4 * a * c
    if D >= 0 or a <= 0:
        raise DomainError("only positive definite forms are handled")
    while True:
        if b > a or b <= -a:
            b = b % (2 * a)
            if b > a:
                b -= 2 * a
            c = (b * b - D) // (4 * a)
            continue
        if c < a:
            a, b, c = c, -b, a
            continue
        if b < 0 and (a == c or -b == a):
            b = -b
            continue
        return QuadForm(a, b, c)


def principal_form(D: int) -> QuadForm:
    _check_disc(D)
    if D % 4 == 0:
        return QuadForm(1, 0, -D // 4)
    return QuadForm(1, 1, (1 - D) // 4)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def compose(f1: QuadForm, f2: QuadForm) -> QuadForm:
    """Dirichlet composition of two primitive forms of equal discriminant."""
    if f1.disc != f2.disc:
        raise DomainError("forms must share a discriminant")
    D = f1.disc
    a1, b1, c1 = f1.a, f1.b, f1.c
    a2, b2, c2 = f2.a, f2.b, f2.c
    if a1 > a2:
        a1, b1, c1, a2, b2, c2 = a2, b2, c2, a1, b1, c1
    s = (b1 + b2) // 2
    n = (b1 - b2) // 2
    d0, u0, v0 = _xgcd(a1, a2)  # u0*a1 + v0*a2 = d0
    d, x, w = _xgcd(d0, s)  # x*d0 + w*s = d = gcd(a1, a2, s)
    v = x * v0  # so (x*u0)*a1 + v*a2 + w*s = d
    a3 = (a1 // d) * (a2 // d)
    b3 = (b2 + 2 * (a2 // d) * (v * n - w * c2)) % (2 * a3)
    c3 = (b3 * b3 - D) // (4 * a3)
    return reduce_form(QuadForm(a3, b3, c3))


def form_pow(f: QuadForm, e: int, D: int) -> QuadForm:
    result = principal_form(D)
    if e < 0:
        f = f.inverse()
        e = -e
    base = reduce_form(f)
    while e:
        if e & 1:
            result = compose(result, base)
        base = compose(base, base)
        e >>= 1
    return result


def _sqrt_mod_prime(n: int, q: int) -> int | None:
    """x with x^2 = n (mod q) for an odd prime q not dividing n, by
    Tonelli-Shanks; None when n is not a square mod q."""
    n %= q
    if pow(n, (q - 1) // 2, q) != 1:
        return None
    s, t = 0, q - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    z = 2
    while pow(z, (q - 1) // 2, q) != q - 1:
        z += 1
    c, x, u = pow(z, t, q), pow(n, (t + 1) // 2, q), pow(n, t, q)
    while u != 1:
        # the least i with u^(2^i) = 1; then x^2 = n*u keeps holding
        i, u2 = 0, u
        while u2 != 1:
            u2, i = u2 * u2 % q, i + 1
        b = pow(c, 1 << (s - i - 1), q)
        s, c = i, b * b % q
        x, u = x * b % q, u * c % q
    return x


def _sqrt_mod_prime_power(D: int, q: int, k: int) -> list[int]:
    """All x in [0, q^k) with x^2 = D (mod q^k), ascending, q an odd prime."""
    m = q**k
    if D % q == 0:
        return [x for x in range(m) if (x * x - D) % m == 0]
    x = _sqrt_mod_prime(D, q)
    if x is None:
        return []
    while (x * x - D) % m:  # Hensel lift by Newton steps
        x = (x - (x * x - D) * pow(2 * x, -1, m)) % m
    return sorted((x, m - x))


def reduced_forms(D: int) -> list[QuadForm]:
    """All primitive reduced forms of discriminant D; the count is h(D).

    A reduced form has a <= sqrt(|D|/3), b in (-a, a] and b^2 = D (mod 4a).
    Those b are residues mod 2a: the roots x mod 2^(s+1) of x^2 = D
    (mod 2^(s+2)) for a = 2^s * m with m odd, combined by CRT with the
    roots mod each odd prime power of m.
    """
    _check_disc(D)
    top = isqrt(-D // 3)
    spf = list(range(top + 1))  # smallest prime factor
    for q in range(2, isqrt(top) + 1):
        if spf[q] == q:
            for j in range(q * q, top + 1, q):
                if spf[j] == j:
                    spf[j] = q
    two_roots: dict[int, list[int]] = {}
    odd_roots: dict[int, list[int]] = {}
    forms = []
    for a in range(1, top + 1):
        s = (a & -a).bit_length() - 1
        mod = 2 << s
        roots = two_roots.get(s)
        if roots is None:
            roots = two_roots[s] = [x for x in range(D & 1, mod, 2) if (x * x - D) % (2 * mod) == 0]
        rest = a >> s
        while rest > 1 and roots:
            q, k = spf[rest], 0
            while rest % q == 0:
                rest //= q
                k += 1
            m = q**k
            more = odd_roots.get(m)
            if more is None:
                more = odd_roots[m] = _sqrt_mod_prime_power(D, q, k)
            inv = pow(mod, -1, m)
            roots = [r + mod * ((t - r) * inv % m) for r in roots for t in more]
            mod *= m
        for b in sorted(x - 2 * a if x > a else x for x in roots):
            c = (b * b - D) // (4 * a)
            if c > a or (c == a and b >= 0):
                if gcd(gcd(a, b), c) == 1:
                    forms.append(QuadForm(a, b, c))
    return forms


def class_number(D: int) -> int:
    return len(reduced_forms(D))


def ambiguous_class_count(D: int) -> int:
    """Number of reduced forms fixed by inversion (b = 0, a = b, or a = c)."""
    return sum(1 for f in reduced_forms(D) if f.b == 0 or f.a == f.b or f.a == f.c)


def _p_log(count: int, p: int) -> int:
    """k with count = p^k, exactly; anything else means a broken group law."""
    k = 0
    rest = count
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise InternalInconsistencyError(
            f"torsion count {count} is not a power of {p}; composition is broken"
        )
    return k


def _sylow_shape(forms: list[QuadForm], D: int, p: int, k: int) -> AbelianPShape:
    """Elementary divisors of the Sylow p-subgroup S of order p^k.

    With h = p^k * m, f -> f^m maps the class group onto S.  S is closed
    under those projections one generator g at a time: the group generated
    by S and g is the union of the cosets S*g^i for i below the first r with
    g^r = z in S, and the closure stops as soon as |S| = p^k.  The p-th
    power of a new element s*g^i is s^p * z^q * g^t with i*p = q*r + t, an
    element already listed, so the map x -> x^p costs one composition per
    element.  Iterating it gives each element's order p^j, the counts
    |S[p^j]| = p^(sum_i min(e_i, j)), and from their successive quotients
    the divisor multiset.
    """
    order = p**k
    m = len(forms) // order
    e = principal_form(D)
    p_th = {e: e}  # the S built so far, each element mapped to its p-th power
    for f in forms:
        if len(p_th) == order:
            break
        g = form_pow(f, m, D)
        if g in p_th:
            continue
        base = list(p_th)
        cosets = [dict(zip(base, base))]  # cosets[i][s] = s * g^i
        power = g
        while power not in cosets[0]:
            if len(p_th) + len(base) > order:
                raise InternalInconsistencyError(
                    f"Sylow {p}-subgroup of {D} outgrows p^{k}; composition is broken"
                )
            coset = {s: compose(s, power) for s in base}
            p_th.update(dict.fromkeys(coset.values()))  # p-th powers set below
            cosets.append(coset)
            if len(p_th) != len(base) * len(cosets):
                raise InternalInconsistencyError(f"cosets in the Sylow {p}-subgroup of {D} overlap")
            power = compose(power, g)
        r, z_powers = len(cosets), [e]
        for i in range(1, r):
            q, t = divmod(i * p, r)
            while len(z_powers) <= q:
                z_powers.append(compose(z_powers[-1], power))
            for s, x in cosets[i].items():
                u = p_th[s] if z_powers[q] == e else compose(p_th[s], z_powers[q])
                if u not in cosets[t]:
                    raise InternalInconsistencyError(
                        f"a p-th power leaves the Sylow {p}-subgroup of {D}; composition is broken"
                    )
                p_th[x] = cosets[t][u]
    if len(p_th) != order:
        raise InternalInconsistencyError(
            f"Sylow {p}-subgroup of {D} has {len(p_th)} elements, expected p^{k}"
        )
    level = {e: 0}  # x -> j with x of order p^j
    for x in p_th:
        chain = []
        while x not in level:
            chain.append(x)
            x = p_th[x]
            if len(chain) > k:
                raise InternalInconsistencyError(
                    f"an element of the Sylow {p}-subgroup of {D} has order above p^{k}"
                )
        j = level[x]
        for y in reversed(chain):
            j += 1
            level[y] = j
    logs = [_p_log(sum(1 for lv in level.values() if lv <= j), p)
            for j in range(max(level.values()) + 1)]
    at_least = [logs[j] - logs[j - 1] for j in range(1, len(logs))]
    exps = []
    for j, cnt in enumerate(at_least):
        nxt = at_least[j + 1] if j + 1 < len(at_least) else 0
        exps.extend([j + 1] * (cnt - nxt))
    shape = AbelianPShape(p=p, exps=tuple(exps))
    if sum(shape.exps) != k:
        raise InternalInconsistencyError("structure does not multiply up to the p-part")
    return shape


def class_group(D: int) -> tuple[int, dict[int, AbelianPShape]]:
    """h(D) and the shape of the p-part for every prime p | h, from one
    enumeration of the reduced forms."""
    _check_disc(D)
    if abs(D) > 10**6:
        raise DomainError("oracle is desk-scale only: |D| <= 10^6")
    forms = reduced_forms(D)
    h = len(forms)
    primes = factor(h)
    return h, {p: _sylow_shape(forms, D, p, primes.count(p)) for p in sorted(set(primes))}


def class_group_structure(D: int, p: int) -> AbelianPShape:
    """Elementary divisors of the p-part of the form class group."""
    h, structures = class_group(D)
    return structures.get(p, AbelianPShape(p=p, exps=()))


def random_law_check(D: int, trials: int, rng: random.Random) -> None:
    """Identity, inverse and associativity spot checks; raises on failure."""
    forms = reduced_forms(D)
    if not forms:
        return
    e = principal_form(D)
    if reduce_form(e) != e:
        raise InternalInconsistencyError(f"principal form of {D} is not reduced")
    for _ in range(trials):
        f1, f2, f3 = (rng.choice(forms) for _ in range(3))
        if compose(compose(f1, f2), f3) != compose(f1, compose(f2, f3)):
            raise InternalInconsistencyError(f"associativity fails at D = {D}")
        if compose(f1, e) != f1:
            raise InternalInconsistencyError(f"identity fails at D = {D}")
        if compose(f1, f1.inverse()) != e:
            raise InternalInconsistencyError(f"inverse fails at D = {D}")
