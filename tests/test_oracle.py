import math
import random
from math import gcd, isqrt

import pytest

from meanexp import oracle
from meanexp.arith import factor
from meanexp.errors import DomainError, InternalInconsistencyError
from meanexp.groups import AbelianPShape, mean_exponent, order_log
from meanexp.oracle import (
    QuadForm,
    ambiguous_class_count,
    class_group,
    class_group_structure,
    class_number,
    compose,
    form_pow,
    principal_form,
    random_law_check,
    reduce_form,
    reduced_forms,
)


def test_classical_class_number_tables():
    # the complete lists of fundamental discriminants with h = 1 and h = 2
    h1 = [-3, -4, -7, -8, -11, -19, -43, -67, -163]
    h2 = [-15, -20, -24, -35, -40, -51, -52, -88, -91, -115, -123, -148,
          -187, -232, -235, -267, -403, -427]
    for D in h1:
        assert class_number(D) == 1, D
    for D in h2:
        assert class_number(D) == 2, D
    # a few larger documented values
    assert class_number(-71) == 7
    assert class_number(-95) == 8
    assert class_number(-199) == 9
    assert class_number(-479) == 25


def test_reduced_forms_counts():
    assert class_number(-23) == 3
    assert class_number(-4) == 1
    assert class_number(-47) == 5
    assert class_number(-3) == 1
    assert reduced_forms(-4) == [QuadForm(1, 0, 1)]
    with pytest.raises(DomainError):
        reduced_forms(-5)
    with pytest.raises(DomainError):
        reduced_forms(4)


def test_reduced_forms_are_reduced_and_primitive():
    for D in (-23, -47, -71, -84, -120, -1155, -4620):
        for f in reduced_forms(D):
            assert f.is_reduced()
            assert f.disc == D
            assert math.gcd(math.gcd(f.a, abs(f.b)), f.c) == 1


def test_composition_identity_inverse():
    D = -47
    e = principal_form(D)
    for f in reduced_forms(D):
        assert compose(f, e) == f
        assert compose(f, f.inverse()) == e


def test_composition_independent_of_representative():
    # apply a unimodular substitution and compose: the class cannot change
    rng = random.Random(11)
    D = -71

    def transform(f, alpha, beta, gamma, delta):
        a = f.a * alpha * alpha + f.b * alpha * gamma + f.c * gamma * gamma
        b = 2 * f.a * alpha * beta + f.b * (alpha * delta + beta * gamma) + 2 * f.c * gamma * delta
        c = f.a * beta * beta + f.b * beta * delta + f.c * delta * delta
        return QuadForm(a, b, c)

    forms = reduced_forms(D)
    for _ in range(40):
        f1, f2 = rng.choice(forms), rng.choice(forms)
        beta, gamma = rng.randrange(-3, 4), rng.randrange(-3, 4)
        # build a determinant-one matrix [[alpha, beta], [gamma, delta]]
        alpha, delta = 1, 1 + beta * gamma
        moved = transform(f1, alpha, beta, gamma, delta)
        assert reduce_form(moved) == f1
        assert compose(moved, f2) == compose(f1, f2)


def test_class_group_structure_examples():
    assert class_group_structure(-23, 3).exps == (1,)
    assert float(mean_exponent(class_group_structure(-23, 3))) == 1.0
    assert class_group_structure(-3, 2).exps == ()
    assert class_group_structure(-3, 5).exps == ()
    # 2-part of the class group of the order of discriminant -4620
    shape = class_group_structure(-4620, 2)
    assert shape.exps == (1, 1, 1)
    assert class_number(-4620) == 24
    # the maximal order underneath, disc -1155, has the same 2-part
    assert class_group_structure(-1155, 2).exps == (1, 1, 1)
    assert class_number(-1155) == 8


def test_structure_orders_multiply_to_h():
    for D in (-23, -47, -84, -120, -231, -1155, -4620):
        h = class_number(D)
        total = 1
        m = h
        p = 2
        while m > 1:
            if m % p == 0:
                shape = class_group_structure(D, p)
                total *= p ** order_log(shape)
                while m % p == 0:
                    m //= p
            p += 1
        assert total == h, D


def test_ambiguous_count_matches_prime_discriminant_factors():
    # fundamental discriminants with known prime-discriminant factorizations
    cases = {
        -23: 1,   # prime discriminant
        -84: 3,   # (-4)(-3)(-7)
        -120: 3,  # (8)(-3)(5)
        -1155: 4, # (-3)(5)(-7)(-11)
    }
    for D, mu in cases.items():
        assert ambiguous_class_count(D) == 2 ** (mu - 1), D


def test_mean_exponent_in_range():
    for D in (-23, -47, -84, -120, -231, -1155):
        h = class_number(D)
        m = h
        p = 2
        while m > 1:
            if m % p == 0:
                shape = class_group_structure(D, p)
                if shape.exps:
                    me = mean_exponent(shape)
                    assert 1 <= me <= math.log(h) / math.log(p)
                while m % p == 0:
                    m //= p
            p += 1


def test_random_law_check_runs():
    rng = random.Random(0)
    for _ in range(10):
        n = rng.randrange(3, 30000)
        D = -n
        while D % 4 not in (0, 1):
            D -= 1
        random_law_check(D, trials=5, rng=rng)


def test_power_and_order():
    D = -47  # cyclic of order 5
    forms = reduced_forms(D)
    e = principal_form(D)
    nontrivial = [f for f in forms if f != e]
    for f in nontrivial:
        assert form_pow(f, 5, D) == e
        assert form_pow(f, 1, D) == f
        assert form_pow(f, -1, D) == f.inverse()
        assert form_pow(f, 2, D) != e  # order exactly 5


def _exact_log(count, p):
    k = 0
    while count % p == 0:
        count //= p
        k += 1
    assert count == 1, "torsion count is not a p-power"
    return k


def _reference_structure(D, p):
    """Exponent filtering over every form: |G[p^j]| = p^(sum_i min(e_i, j))
    is counted by raising each of the h forms to p^j, for j = 1, 2, ...
    until the count stops growing; the successive differences of the logs
    peel off the elementary divisors."""
    forms = reduced_forms(D)
    e = principal_form(D)
    logs = [0]
    j = 0
    while True:
        j += 1
        killed = sum(1 for f in forms if form_pow(f, p**j, D) == e)
        if _exact_log(killed, p) == logs[-1]:
            break
        logs.append(_exact_log(killed, p))
    at_least = [logs[j] - logs[j - 1] for j in range(1, len(logs))]
    exps = []
    for j, cnt in enumerate(at_least):
        nxt = at_least[j + 1] if j + 1 < len(at_least) else 0
        exps.extend([j + 1] * (cnt - nxt))
    return AbelianPShape(p=p, exps=tuple(exps))


def _check_against_reference(D):
    h, shapes = class_group(D)
    assert h == len(reduced_forms(D))
    primes = sorted(set(factor(h)))
    assert list(shapes) == primes, D
    for p in primes:
        assert shapes[p] == _reference_structure(D, p), (D, p)
        assert class_group_structure(D, p) == shapes[p]


def test_class_group_matches_reference_below_1500():
    for n in range(3, 1500):
        if -n % 4 in (0, 1):
            _check_against_reference(-n)


def test_class_group_matches_reference_on_a_sample():
    rng = random.Random(20159)
    for _ in range(40):
        D = -rng.randrange(10**4, 10**5)
        while D % 4 not in (0, 1):
            D -= 1
        _check_against_reference(D)


@pytest.mark.parametrize("D", [-767423, -541528, -517059, -963212])
def test_class_group_matches_reference_near_the_scale_limit(D):
    # h = 985 = 5 * 197; h = 96 with 2-part (3, 1, 1); h = 192 with 2-part
    # (4, 2); h = 648 with 2-part (3) and 3-part (2, 2)
    _check_against_reference(D)


def test_class_group_scale_limit_and_trivial_parts():
    with pytest.raises(DomainError):
        class_group(-(10**6) - 3)
    with pytest.raises(DomainError):
        class_group(-5)
    assert class_group(-4) == (1, {})
    assert class_group(-23) == (3, {3: AbelianPShape(3, (1,))})
    assert class_group_structure(-23, 2) == AbelianPShape(2, ())


def test_class_group_enumerates_the_forms_once(monkeypatch):
    calls = []
    real = oracle.reduced_forms

    def counted(D):
        calls.append(D)
        return real(D)

    monkeypatch.setattr(oracle, "reduced_forms", counted)
    h, shapes = class_group(-4620)
    assert (h, sorted(shapes)) == (24, [2, 3])
    assert calls == [-4620]


def test_class_group_detects_a_broken_law(monkeypatch):
    real = oracle.compose
    # f1 * f2^2 is not a group law on the classes
    monkeypatch.setattr(oracle, "compose", lambda f1, f2: real(f1, real(f2, f2)))
    for D in (-23, -4620, -767423):
        with pytest.raises(InternalInconsistencyError):
            class_group(D)


def _reference_forms(D):
    """The division scan: for each b, try every a from |b| up to
    sqrt((b^2 - D)/4) as a divisor of (b^2 - D)/4."""
    forms = []
    b_max = isqrt(-D // 3)
    for b in range(-b_max, b_max + 1):
        if (b - D) % 2:
            continue
        m = (b * b - D) // 4
        a = max(abs(b), 1)
        while a * a <= m:
            if m % a == 0:
                f = QuadForm(a, b, m // a)
                if f.is_reduced() and gcd(gcd(a, abs(b)), f.c) == 1:
                    forms.append(f)
            a += 1
    forms.sort()
    return forms


def test_reduced_forms_match_the_division_scan_below_6000():
    for n in range(3, 6000):
        if -n % 4 in (0, 1):
            assert reduced_forms(-n) == _reference_forms(-n), -n


def test_reduced_forms_match_the_division_scan_near_the_scale_limit():
    rng = random.Random(20161)
    discs = [-767423, -630191, -999999, -4620]
    for _ in range(60):
        D = -rng.randrange(5 * 10**5, 10**6 + 1)
        while D % 4 not in (0, 1):
            D -= 1
        discs.append(D)
    for D in discs:
        assert reduced_forms(D) == _reference_forms(D), D


def test_square_roots_mod_prime_powers():
    for q in (3, 5, 7, 11, 13, 17, 29, 37, 41, 97):
        for k in (1, 2, 3):
            m = q**k
            if m > 2000:
                continue
            for D in (-3, -4, -q, -4 * q, -q * q, -(q**3) * 7, -999999, -767423, -630191):
                want = [x for x in range(m) if (x * x - D) % m == 0]
                assert oracle._sqrt_mod_prime_power(D, q, k) == want, (D, q, k)
