import math
import random

import pytest

from meanexp.errors import DegenerateFieldError, DomainError
from meanexp.fields import (
    FieldDescriptor,
    SplitType,
    biquadratic_field,
    disc_with_tame_conductor,
    enumerate_norms,
    field_from_spec,
    fundamental_discriminant,
    log_disc_with_tame_conductor,
    norms_above,
    quadratic_field,
    ramified_place_count,
    splitting_type,
)

EX1_D1 = [2, 2, 2, 5, 7, 11, 13, 17, 19, 23]


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


def test_disc_with_tame_conductor():
    f = biquadratic_field([5], [-1, 5])

    def value(fact):
        out = 1
        for p, e in fact.items():
            out *= p**e
        return out

    assert value(disc_with_tame_conductor(f, [], 2)) == 400
    assert value(disc_with_tame_conductor(f, [7, 11], 2)) == 30800
    assert log_disc_with_tame_conductor(f, [7], 2) == pytest.approx(math.log(2800), abs=1e-12)
    with pytest.raises(DomainError):
        disc_with_tame_conductor(f, [4], 2)
    # genus identity with empty conductor set
    assert f.genus() == pytest.approx(0.5 * log_disc_with_tame_conductor(f, [], 3), abs=1e-12)


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


def test_field_from_spec():
    f = field_from_spec({"type": "quadratic", "radicand_factors": [-1, 3]})
    assert f.subfield_discs == (-3,)
    g = field_from_spec({"type": "biquadratic", "d1_factors": [5], "d2_factors": [-1, 5]})
    assert g.abs_disc == 400
    with pytest.raises(DomainError):
        field_from_spec({"type": "cubic"})


def test_norms_above_two_characters_match_three():
    import json
    from importlib import resources

    from meanexp.arith import kronecker, sieve_primes

    primes = sieve_primes(10**5)
    for name in ("example1", "example2", "example3", "example4", "example5", "intro"):
        spec = json.loads(resources.files("meanexp").joinpath("scenarios", f"{name}.json").read_text())["field"]
        fld = field_from_spec(spec)
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
    import json
    from importlib import resources

    from meanexp.arith import sieve_primes

    for name in ("example1", "example2", "example3", "example4", "example5", "intro"):
        spec = json.loads(resources.files("meanexp").joinpath("scenarios", f"{name}.json").read_text())["field"]
        fld = field_from_spec(spec)
        assert fld.degree == 4
        for ell in sieve_primes(1999):
            for split in (True, False):
                assert norms_above(fld, ell, split) == _forced_split_table(fld, ell, split), (name, ell, split)
