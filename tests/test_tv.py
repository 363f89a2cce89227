import math

import pytest

from meanexp.arith import PrimePower, sieve_primes
from meanexp.errors import (
    DomainError,
    InfeasibleProblemError,
    MissingParameterError,
    NeedsLargerEnumerationError,
)
from meanexp.tv import (
    A0_REAL,
    A1_COMPLEX,
    GAMMA,
    Candidate,
    TVProblem,
    a_coeff,
    alpha_constant,
    assemble_B,
    b_coeff,
    budget,
    mean_exponent_upper,
    optimize,
    per_level_bound,
    propmain_upper,
    universal_B,
    zimmert_lower,
)

G_EX1 = math.log(892371480)


def P(q):
    return PrimePower.from_value(q)


def test_constants():
    assert GAMMA == pytest.approx(0.5772156649015329, abs=1e-15)
    assert A0_REAL == pytest.approx(math.log(2 * math.sqrt(2 * math.pi)) + math.pi / 4 + GAMMA / 2)
    assert A1_COMPLEX == pytest.approx(math.log(8 * math.pi) + GAMMA)


def test_coefficients_decreasing():
    qs = [2, 3, 4, 5, 7, 9, 11, 25, 49, 1000, 10**6]
    for q1, q2 in zip(qs, qs[1:]):
        assert a_coeff(q1) > a_coeff(q2)
        assert b_coeff(q1) > b_coeff(q2)


def test_universal_bounds():
    assert universal_B("GRH") == 1.0939
    assert universal_B("GRH_totally_imaginary") == 1.0765
    assert universal_B("Unconditional") == 1.1589
    assert universal_B("GRH_totally_imaginary") < universal_B("GRH") < universal_B("Unconditional")
    with pytest.raises(DomainError):
        universal_B("nope")


def test_budget():
    assert budget(TVProblem(x0=0, x1=0)) == 1.0
    # worked-example-1 data: x1 = 2/g, one fixed norm-9 slot at 1/g
    prob = TVProblem(x0=0, x1=2 / G_EX1, fixed=((P(9), 1 / G_EX1),))
    expected = 1 - A1_COMPLEX * 2 / G_EX1 - a_coeff(9) / G_EX1
    assert budget(prob) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.5778, abs=5e-4)
    with pytest.raises(DomainError):
        TVProblem(x0=0, x1=0.1, fixed=((P(9), 5.0),))  # per-prime cap violated
    with pytest.raises(InfeasibleProblemError):
        budget(TVProblem(x0=1.0, x1=0))  # a0 > 1 already


def test_optimize_budget_consumed_exactly():
    g = 30.0
    prob = TVProblem(x0=0, x1=2 / g)
    cands = [Candidate(P(q), 4 / g) for q in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]]
    sol = optimize(prob, cands)
    assert sol.ell_star_0 is not None
    assert 0 <= sol.alpha < 1
    consumed = sum(w * a_coeff(q) for q, w in sol.prefix)
    consumed += sol.alpha * (4 / g) * a_coeff(sol.ell_star_0)
    assert consumed == pytest.approx(sol.budget, rel=1e-9)


def test_optimize_needs_larger_enumeration():
    g = 30.0
    prob = TVProblem(x0=0, x1=2 / g)
    cands = [Candidate(P(2), 4 / g)]
    with pytest.raises(NeedsLargerEnumerationError):
        optimize(prob, cands)


def test_optimize_degenerate():
    sol = optimize(TVProblem(x0=0, x1=0), [Candidate(P(q), 0.0) for q in (2, 3, 5)])
    assert sol.degenerate
    assert sol.sum_b_bound == 0.0
    assert sol.B_upper == 1.0
    sol2 = optimize(TVProblem(x0=0, x1=0), [])
    assert sol2.degenerate and sol2.B_upper == 1.0


def test_optimize_validates_candidates():
    prob = TVProblem(x0=0, x1=0.1)
    with pytest.raises(DomainError):
        optimize(prob, [Candidate(P(3), 0.1), Candidate(P(2), 0.1)])  # not ascending
    with pytest.raises(DomainError):
        optimize(prob, [Candidate(P(2), 0.1), Candidate(P(4), 0.1)])  # same prime twice


def test_optimize_monotone_in_budget():
    g = 25.0
    cands = [Candidate(P(q), 4 / g) for q in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]]
    fixed = ((P(9), 1 / g),)
    with_fixed = optimize(TVProblem(x0=0, x1=2 / g, fixed=fixed), [c for c in cands if c.norm.ell != 3])
    without_fixed = optimize(TVProblem(x0=0, x1=2 / g), cands)
    # removing a fixed entry frees budget: the payoff bound cannot drop
    assert without_fixed.sum_b_bound >= with_fixed.sum_b_bound - 1e-12
    # an exclusion (dropping a candidate) cannot raise the bound
    excl = optimize(TVProblem(x0=0, x1=2 / g), [c for c in cands if c.norm.value != 2])
    assert excl.sum_b_bound <= without_fixed.sum_b_bound + 1e-12


def test_zimmert():
    assert zimmert_lower(0, 0) == 0
    assert zimmert_lower(1, 0) == pytest.approx(1.3607, abs=5e-4)
    assert zimmert_lower(0, 1) == pytest.approx(1.2704, abs=5e-4)


def test_alpha_constant():
    # A = 0 leaves only the signature deduction
    assert alpha_constant(0.0, 123.0, 1, 0) == pytest.approx(-(GAMMA + 1 + math.log(math.pi)) / 2)
    assert alpha_constant(0.0, 123.0, 0, 1) == pytest.approx(-(GAMMA + math.log(2)))
    assert alpha_constant(1.0938, 3.0204, 0, 1) == pytest.approx(2.0334, abs=5e-4)
    # worked-example-1 coarse assembly
    val = alpha_constant(1.0938, G_EX1, 0, 1) / math.log(2)
    assert val == pytest.approx(30.689, abs=1e-3)


def test_alpha_constant_for_field():
    from meanexp.fields import biquadratic_field
    from meanexp.tv import alpha_constant_for_field

    fld = biquadratic_field([2, 2, 2, 5, 7, 11, 13, 17, 19, 23], [-1, 3])
    # empty tame set reduces to the plain genus form with the field signature
    assert alpha_constant_for_field(1.0938, fld, [], 2) == pytest.approx(
        alpha_constant(1.0938, G_EX1, 0, 2), abs=1e-9
    )
    # adding a norm-7 place raises the log sqrt disc term by log(7)/2
    bumped = alpha_constant_for_field(1.0, fld, [7], 2)
    plain = alpha_constant_for_field(1.0, fld, [], 2)
    assert bumped - plain == pytest.approx(0.5 * math.log(7), abs=1e-12)


def test_mean_exponent_upper():
    assert mean_exponent_upper(1, 2, 0.0, 5) == 5
    assert mean_exponent_upper(2, 2, 2 * math.log(2), 0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        mean_exponent_upper(0, 2, 1.0)


def test_propmain_upper():
    assert propmain_upper(1.0, 1, 2, 10 * math.log(2)) == pytest.approx(10.0)
    assert propmain_upper(1.0, 2, 2, 10 * math.log(2)) == pytest.approx(5.0)
    assert propmain_upper(3.5, 1, 2, 10 * math.log(2)) == pytest.approx(35.0)
    with pytest.raises(MissingParameterError):
        propmain_upper(None, 1, 2, 1.0)
    with pytest.raises(DomainError):
        propmain_upper(1.0, 0, 2, 1.0)


def test_per_level_bound():
    assert per_level_bound(1, 1, 100.0, 3, 0.0, 2) == 3
    assert per_level_bound(5, 0, 100.0, 3, 1.0, 2) == 0.0
    # with d_n = index * t exactly and no tame set, the per-level bound
    # collapses to the assembled bound at rate t and trivial signature
    index, t, B, g = 8, 3, 1.05, 40.0
    lhs = per_level_bound(index, index * t, g, 0, B, 2)
    rhs = mean_exponent_upper(t, 2, alpha_constant(B, g, 0, 0), 0)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_optimize_reads_only_up_to_ell_star_0():
    g = 30.0
    read = []

    def weight(q):
        return (1 + q % 5) / g

    def stream():
        for q in sieve_primes(10**6):
            read.append(q)
            yield Candidate(P(q), weight(q))
        raise AssertionError("read past the end")

    sol = optimize(TVProblem(x0=0, x1=2 / g), stream())
    stop = sol.ell_star_0.value
    assert read[-1] == stop and weight(stop) != sol.prefix[-1][1]
    payoff = sum(w * b_coeff(q) for q, w in sol.prefix) + sol.alpha * weight(stop) * b_coeff(stop)
    assert sol.sum_b_bound == pytest.approx(payoff, rel=1e-14)
    listed = optimize(TVProblem(x0=0, x1=2 / g), [Candidate(P(q), weight(q)) for q in read + [10007, 10009]])
    assert listed == sol


def test_optimize_degenerate_uses_common_assembly():
    fixed = ((P(9), 0.01),)
    sol = optimize(TVProblem(x0=0, x1=0.02, fixed=fixed), [Candidate(P(2), 0.0)], b_deduction=(0.1, 0.0))
    assert sol.degenerate and sol.ell_star_0 is None and sol.prefix == ()
    assert sol.B_upper == assemble_B(b_coeff(9) * 0.01, 0.1, 0.0)
