import math
import random

import pytest

from meanexp.arith import kronecker, primes_between, sieve_primes
from meanexp.errors import DegenerateFieldError, DomainError
from meanexp.fields import (
    FieldDescriptor,
    SplitType,
    biquadratic_field,
    fundamental_discriminant,
    norms_above,
    quadratic_field,
    quadratic_subfield,
    ramified_place_count,
    split_primes_between,
    splitting_type,
)

EX1_D1 = [2, 2, 2, 5, 7, 11, 13, 17, 19, 23]
PACKAGED = ("example1", "example2", "example3", "example4", "example5", "intro")


def _packaged_field(name):
    import json
    from importlib import resources

    spec = json.loads(resources.files("meanexp").joinpath("scenarios", f"{name}.json").read_text())["field"]
    if spec["type"] == "quadratic":
        return quadratic_field(spec["radicand_factors"])
    return biquadratic_field(spec["d1_factors"], spec["d2_factors"])


def enumerate_norms(fld, bound):
    """All (norm, count) pairs with norm <= bound, sorted by norm: the
    reference that classifies every prime up to the bound with norms_above."""
    if bound < 2:
        return []
    return sorted((norm, count) for ell in sieve_primes(bound) for norm, count in norms_above(fld, ell)
                  if norm <= bound)


def test_fundamental_discriminant():
    assert fundamental_discriminant(-3) == -3
    assert fundamental_discriminant(-1) == -4
    assert fundamental_discriminant(2 * 5 * 7 * 11 * 13 * 17 * 19 * 23) == 8 * 5 * 7 * 11 * 13 * 17 * 19 * 23
    assert fundamental_discriminant(5) == 5
    assert fundamental_discriminant(12) == 12  # core 3 = 3 mod 4, so 4 * 3
    with pytest.raises(DomainError):
        fundamental_discriminant(0)
    with pytest.raises(DomainError):
        fundamental_discriminant(1)


def test_biquadratic_examples():
    k = biquadratic_field([-1], [2])
    assert k.abs_disc == 256  # 4 * 8 * 8
    assert (k.r1, k.r2) == (0, 2)

    ex1 = biquadratic_field(EX1_D1, [-1, 3])
    assert math.isqrt(ex1.abs_disc) == 892371480
    assert math.isqrt(ex1.abs_disc) ** 2 == ex1.abs_disc

    f = biquadratic_field([5], [-1, 5])
    assert f.abs_disc == 400  # |5 * (-20) * (-4)|
    assert (f.r1, f.r2) == (0, 2)

    with pytest.raises(DegenerateFieldError):
        biquadratic_field([5], [5])


def test_conductor_discriminant_product():
    rng = random.Random(7)
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29]
    for _ in range(25):
        s1 = rng.sample(primes, rng.randrange(1, 4))
        s2 = rng.sample(primes, rng.randrange(1, 4))
        if rng.random() < 0.5:
            s1 = [-1] + s1
        if rng.random() < 0.5:
            s2 = [-1] + s2
        try:
            f = biquadratic_field(s1, s2)
        except DegenerateFieldError:
            continue
        prod = 1
        for d in f.subfield_discs:
            prod *= abs(d)
        assert f.abs_disc == prod
        for d in f.subfield_discs:
            assert f.abs_disc % abs(d) == 0


def test_genus():
    f = biquadratic_field([5], [-1, 5])
    assert f.genus() == pytest.approx(math.log(20), abs=1e-12)
    ex1 = biquadratic_field(EX1_D1, [-1, 3])
    assert ex1.genus() == pytest.approx(math.log(892371480), abs=1e-9)
    unit = FieldDescriptor(degree=1, r1=1, r2=0, abs_disc_factored={})
    assert unit.genus() == 0.0


def test_splitting_type():
    f = quadratic_field(-3)
    assert splitting_type(f, 7) is SplitType.SPLIT
    assert splitting_type(f, 3) is SplitType.RAMIFIED
    assert splitting_type(f, 5) is SplitType.INERT
    # ramified exactly at the primes of the fundamental discriminant
    g = quadratic_field(2 * 5 * 7)
    for ell in [2, 3, 5, 7, 11, 13]:
        expected = ell in g.ramified_primes()
        assert (splitting_type(g, ell) is SplitType.RAMIFIED) == expected


def test_enumerate_norms_quadratic():
    f = quadratic_field(-3)
    assert enumerate_norms(f, 7) == [(3, 1), (4, 1), (7, 2)]
    assert enumerate_norms(f, 1) == []


def test_enumerate_norms_worked_example_field():
    # published norm list: 4, 7, 7, 9, 13, 13, 19, 19, 25, then 31, 37, 43...
    # with the 43 entry pinned at four places; the published single entries
    # at 31 and 37 are not consistent with their own weight bookkeeping,
    # which uses four places for each (both split in all three subfields)
    ex1 = biquadratic_field(EX1_D1, [-1, 3])
    got = enumerate_norms(ex1, 43)
    assert got == [(4, 1), (7, 2), (9, 1), (13, 2), (19, 2), (25, 1), (31, 4), (37, 4), (43, 4)]


def test_enumerate_norms_degree_sum():
    # unramified primes: sum of residue degree * count equals the field degree
    ex1 = biquadratic_field(EX1_D1, [-1, 3])
    for ell in [29, 31, 37, 41, 43, 47, 53]:
        total = 0
        for norm, count in norms_above(ex1, ell):
            f_deg = round(math.log(norm, ell))
            total += f_deg * count
        assert total == 4, ell


def test_ramified_place_count_over_q():
    # disc(Q(sqrt(-1155))) = -1155: four finite ramified primes + 1 archimedean
    assert ramified_place_count(None, -1155, 2) == 5
    assert ramified_place_count(None, 2, 2) == 1
    assert ramified_place_count(None, -4620, 2) == 5  # same field as -1155
    with pytest.raises(DegenerateFieldError):
        ramified_place_count(None, 4, 2)


def test_ramified_place_count_quadratic_base():
    k = quadratic_field(EX1_D1)
    # -3 is inert in k; one finite place plus both real places ramify
    assert ramified_place_count(k, -3, 2) == 3
    with pytest.raises(DomainError):
        ramified_place_count(k, -2, 2)


def test_delta():
    ex1 = biquadratic_field(EX1_D1, [-1, 3])
    assert ex1.delta(2) == 1
    assert ex1.delta(3) == 1  # sqrt(-3) generates a subfield
    assert ex1.delta(5) == 0
    plain = quadratic_field(5)
    assert plain.delta(3) == 0


def test_factor_lists_build_fields():
    for factors, disc in (([-1, 3], -3), ([-3], -3), ([-2], -8), ([-1, -5], 5)):
        assert quadratic_field(factors).subfield_discs == (disc,), factors
    assert biquadratic_field([5], [-1, 5]).abs_disc == 400
    assert quadratic_field(-4).subfield_discs == (-4,)
    # a negative factor is -1 times a prime, tested as the prime is
    for composite in (-4, -6, -9):
        with pytest.raises(DomainError, match=f"^{-composite} is not prime"):
            quadratic_field([composite])
        with pytest.raises(DomainError, match=f"^{-composite} is not prime"):
            biquadratic_field([5], [composite])


def test_norms_above_two_characters_match_three():
    primes = sieve_primes(10**5)
    for name in PACKAGED:
        fld = _packaged_field(name)
        for ell in primes:
            if any(D % ell == 0 for D in fld.subfield_discs):
                continue
            split = all(kronecker(D, ell) == 1 for D in fld.subfield_discs)
            assert norms_above(fld, ell) == ([(ell, 4)] if split else [(ell * ell, 2)]), (name, ell)


def _forced_split_table(fld, ell, forced_split):
    """The splitting pin as scenario code once wrote it out beside norms_above."""
    n_ram = sum(D % ell == 0 for D in fld.subfield_discs)
    if n_ram == 0:
        return [(ell, 4)] if forced_split else [(ell * ell, 2)]
    if n_ram == 2:
        return [(ell, 2)] if forced_split else [(ell * ell, 1)]
    return [(ell, 1)]


def test_norms_above_split_pin_matches_forced_split_table():
    for name in PACKAGED:
        fld = _packaged_field(name)
        assert fld.degree == 4
        for ell in sieve_primes(1999):
            for split in (True, False):
                assert norms_above(fld, ell, split) == _forced_split_table(fld, ell, split), (name, ell, split)


def test_norms_above_quadratic_split_pin():
    f = quadratic_field([-1, 5, 7, 11, 13])  # D = -20020: 3 is inert, 5 ramified
    assert norms_above(f, 3) == [(9, 1)]
    assert norms_above(f, 3, True) == [(3, 2)]
    assert norms_above(f, 3, False) == [(9, 1)]
    assert norms_above(f, 5, True) == norms_above(f, 5, False) == [(5, 1)]  # ramification is derived


def _three_character_split(fld, primes):
    """The fully split primes by the definition: prime to the discriminant,
    and every quadratic subfield's Kronecker character +1."""
    return [ell for ell in primes
            if fld.abs_disc % ell and all(kronecker(D, ell) == 1 for D in fld.subfield_discs)]


# quadratic radicands whose fundamental discriminants are 1 mod 4, or have
# 2-part -4, 8 or -8, of both signs
QUADRATIC_RADICANDS = [
    5 * 7 * 11, -3, -7 * 11 * 13, 13 * 17,  # D = 1 mod 4
    -1, 3 * 5, -5 * 7 * 11 * 13, 3 * 7,  # 2-part -4
    2, 2 * 5 * 13, -2 * 3, -2 * 7 * 17,  # 2-part 8
    -2, -2 * 5, 2 * 3, 2 * 3 * 5 * 11,  # 2-part -8
]
SPLIT_CASES = [(name, _packaged_field(name)) for name in PACKAGED] + [
    (str(r), quadratic_field(r)) for r in QUADRATIC_RADICANDS
]


@pytest.mark.parametrize("name, fld", SPLIT_CASES, ids=[name for name, _ in SPLIT_CASES])
def test_split_primes_between_matches_three_characters(name, fld):
    primes = sieve_primes(10**5)
    want = _three_character_split(fld, primes)
    assert split_primes_between(fld, 1, 10**5) == want
    if fld.degree == 4:
        assert all(norms_above(fld, ell) == [(ell, 4)] for ell in want)
    else:
        assert all(norms_above(fld, ell) == [(ell, 2)] for ell in want)


def _two_part(D):
    """D over its odd part, the odd part signed to be 1 mod 4 (a product of
    prime discriminants is): 1, -4, 8 or -8."""
    m = D
    while m % 2 == 0:
        m //= 2
    return D // (m if m % 4 == 1 else -m)


def test_quadratic_radicands_cover_every_two_part_and_sign():
    discs = [quadratic_field(r).subfield_discs[0] for r in QUADRATIC_RADICANDS]
    seen = {(_two_part(D), D > 0) for D in discs}
    assert seen == {(t, sign) for t in (1, -4, 8, -8) for sign in (True, False)}


@pytest.mark.parametrize("name", PACKAGED + ("-2", "-5005"))
def test_split_primes_between_any_segment_start(name):
    fld = _packaged_field(name) if name in PACKAGED else quadratic_field(int(name))
    primes = sieve_primes(30_000)
    want = _three_character_split(fld, primes)
    # every start residue mod 8, starts aligned to no odd prime of the
    # discriminant, and segments shorter than the longest pattern
    for lo in list(range(10_001, 10_009)) + [9_973 * 2 + 1, 1]:
        for length in (1, 5, 97, 1_000, 19_999):
            hi = min(lo + length, 30_000)
            assert split_primes_between(fld, lo, hi) == [ell for ell in want if lo < ell <= hi], (lo, hi)
    # consecutive segments reassemble the whole list
    bounds = [1, 2, 3, 10, 100, 151, 1_000, 4_097, 12_345, 30_000]
    pieces = [ell for lo, hi in zip(bounds, bounds[1:]) for ell in split_primes_between(fld, lo, hi)]
    assert pieces == want


def test_split_primes_between_large_discriminant_prime():
    # a prime of the discriminant past the pattern cache is evaluated per prime
    for r in (10**9 + 7, -2 * (10**9 + 7), 3 * 65_537):
        fld = quadratic_field(r)
        want = _three_character_split(fld, sieve_primes(20_000))
        assert split_primes_between(fld, 1, 20_000) == want
        assert split_primes_between(fld, 7_001, 20_000) == [ell for ell in want if ell > 7_001]


# fields for the per-prime reference: the packaged ones; a quadratic with a
# -4 part (D = 60), with a +8 part (D = 520) and with a -8 part (D = 24);
# fields where 2 splits completely (D = -7; D1 = -7, D2 = 17); and prime
# discriminants past _PATTERN_LIMIT (65537), which take the per-prime path
REFERENCE_CASES = [(name, _packaged_field(name)) for name in PACKAGED] + [
    ("15", quadratic_field(15)),
    ("130", quadratic_field(2 * 5 * 13)),
    ("6", quadratic_field(6)),
    ("-7", quadratic_field(-7)),
    ("-7,17", biquadratic_field([-7], [17])),
    ("196611", quadratic_field(3 * 65_537)),
    ("65537,-1", biquadratic_field([65_537], [-1])),
]


def _reference_split(fld, lo, hi):
    """The fully split primes of (lo, hi], one norms_above call per prime."""
    full = 4 if fld.degree == 4 else 2
    return [ell for ell in primes_between(lo, hi) if norms_above(fld, ell) == [(ell, full)]]


def test_reference_cases_cover_every_two_part_and_the_prime_2():
    cases = dict(REFERENCE_CASES)
    assert [_two_part(cases[name].subfield_discs[0]) for name in ("-7", "15", "130", "6")] == [1, -4, 8, -8]
    for name in ("-7", "-7,17"):
        assert split_primes_between(cases[name], 1, 2) == [2] == _reference_split(cases[name], 1, 2)


@pytest.mark.parametrize("name, fld", REFERENCE_CASES, ids=[name for name, _ in REFERENCE_CASES])
def test_split_primes_between_matches_per_prime_reference(name, fld):
    rng = random.Random(f"split/{name}")
    segments = [(lo, lo + length) for lo in (1, 2, 3, 4) for length in (1, 2, 3, 50)]
    for q in fld.ramified_primes():
        # bounds on a ramified prime, from either side
        segments += [(q, q + 1), (q - 1, q), (q, q + 2), (max(1, q - 2), q), (max(1, q - 30), q + 30)]
    for _ in range(40):
        lo = rng.randrange(1, 300_000)
        segments.append((lo, lo + rng.choice([1, 2, 3, rng.randrange(1, 20_000)])))
    assert {lo % 2 for lo, _ in segments} == {0, 1}
    for lo, hi in segments:
        assert split_primes_between(fld, lo, hi) == _reference_split(fld, lo, hi), (lo, hi)


def test_quadratic_subfield_is_the_first_radicands_field():
    rng = random.Random(11)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    pairs = [(EX1_D1, [-1, 3]), ([-1], [2]), ([5], [-1, 5]), ([3, 3, 5], [3, 7]), ([2, 2, 3], [-2])]
    for _ in range(200):
        pairs.append(tuple([-1] * rng.randrange(2) + rng.choices(primes, k=rng.randrange(1, 5)) for _ in range(2)))
    built = 0
    for d1, d2 in pairs:
        try:
            fld = biquadratic_field(d1, d2)
        except (DegenerateFieldError, DomainError):
            continue
        want, got = quadratic_field(d1), quadratic_subfield(fld)
        assert got == want and list(got.abs_disc_factored.items()) == list(want.abs_disc_factored.items()), (d1, d2)
        built += 1
    assert built > 100
    k = quadratic_field(-7)
    assert quadratic_subfield(k) is k


@pytest.mark.parametrize(
    "d1, d2, error, message",
    [
        ([5], [5], DegenerateFieldError, "the two radicands generate the same quadratic field"),
        ([5], [5, 3, 3], DegenerateFieldError, "the two radicands generate the same quadratic field"),
        ([3, 3], [5], DomainError, "radicand is a perfect square; the field is degenerate"),
        ([5], [2, 2], DomainError, "radicand is a perfect square; the field is degenerate"),
        # the first radicand's fault is the one reported
        ([3, 3], [3, 5], DomainError, "radicand is a perfect square; the field is degenerate"),
        ([3, 5], [3, 3], DomainError, "radicand is a perfect square; the field is degenerate"),
        ([4, 3], [5], DomainError, "4 is not prime; radicands must be given factored"),
        ([3, 3], [4], DomainError, "radicand is a perfect square; the field is degenerate"),
        ([4], [9], DomainError, "4 is not prime; radicands must be given factored"),
        ([5], [0], DomainError, "factor lists may not contain 0 or 1"),
        (7, 1, DomainError, "radicand must not be 0 or 1"),
    ],
)
def test_biquadratic_errors_name_the_first_fault(d1, d2, error, message):
    with pytest.raises(error) as err:
        biquadratic_field(d1, d2)
    assert type(err.value) is error and str(err.value) == message


def test_each_radicand_factor_is_tested_once_per_parse(monkeypatch):
    import json
    from importlib import resources

    from meanexp import fields
    from meanexp.scenario import parse_scenario

    data = json.loads(resources.files("meanexp").joinpath("scenarios", "example2.json").read_text())
    calls = []
    real = fields.is_prime
    monkeypatch.setattr(fields, "is_prime", lambda n: calls.append(n) or real(n))
    parse_scenario(data)
    spec = data["field"]
    assert sorted(calls) == sorted(f for f in spec["d1_factors"] + spec["d2_factors"] if f > 0)
