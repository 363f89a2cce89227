"""Value semantics of the package's immutable records.

Every record compares equal only to a record of its own class with equal
fields, hashes by those fields, refuses assignment, prints as
``Class(field=value, ...)`` and validates its fields when built.
"""

import json
from pathlib import Path

import pytest

from meanexp import arith, fields, groups, oracle, propgroups, scenario, tv
from meanexp.errors import DomainError, InconsistentParametersError, SeriesError

EXAMPLE2 = Path(__file__).resolve().parents[1] / "src" / "meanexp" / "scenarios" / "example2.json"

# (build, a build with one field changed, repr of build())
RECORDS = {
    "PrimePower": (lambda: arith.PrimePower(2, 3), lambda: arith.PrimePower(2, 4), "PrimePower(ell=2, m=3)"),
    "QuadraticSpec": (lambda: fields.QuadraticSpec((-1, 5)), lambda: fields.QuadraticSpec((5,)),
                      "QuadraticSpec(factors=(-1, 5))"),
    "FieldDescriptor": (lambda: fields.quadratic_field(-5), lambda: fields.quadratic_field(-1),
                        "FieldDescriptor(degree=2, r1=0, r2=1, abs_disc_factored={5: 1, 2: 2}, subfield_discs=(-20,))"),
    "Candidate": (lambda: tv.Candidate(3, 9, 0.5), lambda: tv.Candidate(3, 9, 0.25),
                  "Candidate(prime=3, norm=9, weight=0.5)"),
    "CandidateRun": (lambda: tv.CandidateRun((3, 5), 0.25), lambda: tv.CandidateRun((3, 7), 0.25),
                     "CandidateRun(primes=(3, 5), weight=0.25)"),
    "TVProblem": (lambda: tv.TVProblem(0.0, 0.1), lambda: tv.TVProblem(0.0, 0.1, ((arith.PrimePower(2, 1), 0.1),)),
                  "TVProblem(x0=0.0, x1=0.1, fixed=())"),
    "TVSolution": (lambda: tv.TVSolution(tv.Candidate(2, 2, 0.5), 0.25, 0.1, 1.1, 0.5, (tv.CandidateRun((3,), 0.5),)),
                   lambda: tv.TVSolution(None, 0.25, 0.1, 1.1, 0.5, (tv.CandidateRun((3,), 0.5),)),
                   "TVSolution(ell_star_0=Candidate(prime=2, norm=2, weight=0.5), alpha=0.25, sum_b_bound=0.1, "
                   "B_upper=1.1, budget=0.5, filled=(CandidateRun(primes=(3,), weight=0.5),), degenerate=False)"),
    "CandidateInfo": (lambda: scenario.CandidateInfo(3, 9, 0.5, weight_num=2.0, kind="inert_sq"),
                      lambda: scenario.CandidateInfo(3, 9, 0.5, weight_num=2.0, kind="inert_sq", pinned=True),
                      "CandidateInfo(prime=3, norm=9, weight=0.5, weight_num=2.0, kind='inert_sq', pinned=False)"),
    "SplitRun": (lambda: scenario.SplitRun((3, 5), 0.25, 1.0, "split_full"),
                 lambda: scenario.SplitRun((3, 5), 0.25, 1.0, "quadratic"),
                 "SplitRun(primes=(3, 5), weight=0.25, weight_num=1.0, kind='split_full')"),
    "AbelianPShape": (lambda: groups.AbelianPShape(2, (1, 3)), lambda: groups.AbelianPShape(2, (3,)),
                      "AbelianPShape(p=2, exps=(3, 1))"),
    "IwasawaParams": (lambda: groups.IwasawaParams(3, 0, 1, 2, 0, 1), lambda: groups.IwasawaParams(3, 0, 1, 2, 0, 2),
                      "IwasawaParams(p=3, mu=0, lam=1, nu=2, s=0, c=1)"),
    "QuadForm": (lambda: oracle.QuadForm(1, 1, 6), lambda: oracle.QuadForm(2, 1, 3), "QuadForm(a=1, b=1, c=6)"),
    "GSGroupParams": (lambda: propgroups.GSGroupParams(4, 4, 3), lambda: propgroups.GSGroupParams(4, 3, 3),
                      "GSGroupParams(d=4, r=4, p=3, relation_degrees=())"),
    "SeriesExpansion": (lambda: propgroups.SeriesExpansion((1, 4)), lambda: propgroups.SeriesExpansion((1, 5)),
                        "SeriesExpansion(coeffs=(1, 4))"),
    "ZassenhausRanks": (lambda: propgroups.ZassenhausRanks(3, (4, 6)), lambda: propgroups.ZassenhausRanks(3, (4,)),
                        "ZassenhausRanks(p=3, b=(4, 6))"),
    "WitnessRow": (lambda: propgroups.WitnessRow(2, 1.5, 3.0, 2.0, True, "exact"),
                   lambda: propgroups.WitnessRow(2, 1.5, 3.0, 2.0, False, "exact"),
                   "WitnessRow(n=2, index_log=1.5, window_rank=3.0, rhs=2.0, satisfied=True, regime='exact')"),
}


def _scenario():
    return scenario.parse_scenario(json.loads(EXAMPLE2.read_text()))


@pytest.mark.parametrize("name", RECORDS)
def test_equality_hash_and_repr(name):
    build, other, text = RECORDS[name]
    a, b, c = build(), build(), other()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert repr(a) == str(a) == text
    assert len({a, b, c}) == 2


@pytest.mark.parametrize("name", RECORDS)
def test_assignment_and_deletion_raise(name):
    record = RECORDS[name][0]()
    first = repr(record).split("(", 1)[1].split("=", 1)[0]
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, first, 0)
    with pytest.raises(AttributeError):
        delattr(record, first)
    assert repr(record) == before


def test_a_record_equals_no_record_of_another_class():
    cand = tv.Candidate(3, 9, 0.5)
    info = scenario.CandidateInfo(3, 9, 0.5, weight_num=2.0, kind="inert_sq")
    assert cand != info and info != cand and not cand == info
    run = tv.CandidateRun((3, 5), 0.25)
    split = scenario.SplitRun((3, 5), 0.25, 1.0, "split_full")
    assert run != split and split != run
    # a record is not the tuple of its fields
    assert oracle.QuadForm(1, 1, 6) != (1, 1, 6) and arith.PrimePower(2, 3) != (2, 3)
    assert propgroups.SeriesExpansion((1, 4)) != (1, 4)


def test_field_descriptor_ignores_the_factored_discriminant():
    a = fields.FieldDescriptor(2, 0, 1, {5: 1, 2: 2}, (-20,))
    b = fields.FieldDescriptor(2, 0, 1, {3: 1}, (-20,))
    assert a == b and hash(a) == hash(b)
    assert a != fields.FieldDescriptor(2, 0, 1, {5: 1, 2: 2}, (-4,))


def test_defaults():
    assert fields.FieldDescriptor(2, 2, 0, {5: 1}).subfield_discs == ()
    assert tv.TVProblem(0.0, 0.1).fixed == ()
    assert tv.TVSolution(None, 0.0, 0.0, 1.0, 0.0, ()).degenerate is False
    info = scenario.CandidateInfo(3, 9, 0.5, 2.0, "inert_sq")
    assert info.pinned is False and scenario.CandidateInfo(3, 9, 0.5, 2.0, "override", True).pinned is True
    assert scenario.SplitRun((3,), 0.5, 2.0, "split_full").pinned is False
    assert groups.AbelianPShape(5).exps == ()
    assert propgroups.GSGroupParams(4, 4, 3).relation_degrees == ()


def test_fields_by_keyword_and_normalisation():
    assert groups.AbelianPShape(p=2, exps=[1, 3, 2]).exps == (3, 2, 1)
    assert propgroups.GSGroupParams(d=4, r=2, p=3, relation_degrees=[2, 3]).relation_degrees == (2, 3)
    assert tv.TVSolution(ell_star_0=None, alpha=0.0, sum_b_bound=0.0, B_upper=1.0, budget=0.0, filled=(),
                         degenerate=True).degenerate is True
    with pytest.raises(TypeError):
        oracle.QuadForm(1, 1)
    with pytest.raises(TypeError):
        arith.PrimePower(2, 3, 4)
    with pytest.raises(TypeError):
        groups.AbelianPShape(2, exps=(1,), rank=1)


def test_quadform_order():
    forms = [oracle.QuadForm(2, 1, 3), oracle.QuadForm(1, 1, 6), oracle.QuadForm(2, -1, 3)]
    assert sorted(forms) == [oracle.QuadForm(1, 1, 6), oracle.QuadForm(2, -1, 3), oracle.QuadForm(2, 1, 3)]
    a, b = oracle.QuadForm(1, 1, 6), oracle.QuadForm(2, -1, 3)
    assert a < b and a <= b and b > a and b >= a and a <= oracle.QuadForm(1, 1, 6)
    assert not (b < a) and not (a > b)
    with pytest.raises(TypeError):
        a < (2, -1, 3)


@pytest.mark.parametrize(
    "build, exc, message",
    [
        (lambda: arith.PrimePower(2, 0), DomainError, "exponent must be >= 1, got 0"),
        (lambda: arith.PrimePower(4, 1), DomainError, "4 is not prime"),
        (lambda: fields.FieldDescriptor(2, 1, 1, {}), DomainError, "signature (1,1) does not match degree 2"),
        (lambda: tv.TVProblem(-1.0, 0.0), DomainError, "archimedean densities must be nonnegative"),
        (lambda: tv.TVProblem(0.0, 0.1, ((arith.PrimePower(2, 1), -0.1),)), DomainError,
         "fixed densities must be nonnegative"),
        (lambda: tv.TVProblem(0.0, 0.1, ((arith.PrimePower(2, 1), 0.3),)), DomainError,
         "fixed densities at prime 2 use 0.3, above the cap 0.2"),
        (lambda: groups.AbelianPShape(4), DomainError, "4 is not prime"),
        (lambda: groups.AbelianPShape(2, (1, 0)), DomainError, "exponents must be >= 1"),
        (lambda: groups.IwasawaParams(4, 0, 0, 0, 0, 0), DomainError, "4 is not prime"),
        (lambda: groups.IwasawaParams(3, 0, -1, 0, 0, 0), DomainError, "mu, lambda, s, c must be nonnegative"),
        (lambda: groups.IwasawaParams(3, 1, 0, 0, 0, 0), InconsistentParametersError, "mu = 0 exactly when s = 0"),
        (lambda: propgroups.GSGroupParams(0, 1, 3), DomainError, "need at least one generator"),
        (lambda: propgroups.GSGroupParams(2, -1, 3), DomainError, "relation rank must be nonnegative"),
        (lambda: propgroups.GSGroupParams(2, 1, 4), DomainError, "4 is not prime"),
        (lambda: propgroups.GSGroupParams(2, 2, 3, (2,)), DomainError, "one degree per relation required"),
        (lambda: propgroups.GSGroupParams(2, 1, 3, (1,)), DomainError, "relation degrees must be >= 2"),
        (lambda: propgroups.SeriesExpansion(()), SeriesError, "series must start with constant term 1"),
        (lambda: propgroups.SeriesExpansion((2, 1)), SeriesError, "series must start with constant term 1"),
    ],
)
def test_validation_messages(build, exc, message):
    with pytest.raises(exc) as info:
        build()
    assert str(info.value) == message


def test_head_keeps_the_class_and_its_fields():
    run = scenario.SplitRun((3, 5, 7), 0.25, 1.0, "split_full")
    head = run.head(2)
    assert type(head) is scenario.SplitRun
    assert head == scenario.SplitRun((3, 5), 0.25, 1.0, "split_full")
    assert head.candidate(5) == scenario.CandidateInfo(5, 5, 0.25, weight_num=1.0, kind="split_full")
    assert run.primes == (3, 5, 7)
    assert tv.CandidateRun((3, 5, 7), 0.5).head(1) == tv.CandidateRun((3,), 0.5)


def test_solution_caches_its_prefix():
    sol = tv.TVSolution(None, 0.0, 0.0, 1.0, 0.0, (tv.CandidateRun((3, 5), 0.5), tv.Candidate(7, 49, 0.25)))
    assert sol.prefix == (tv.Candidate(3, 3, 0.5), tv.Candidate(5, 5, 0.5), tv.Candidate(7, 49, 0.25))
    assert sol.prefix is sol.prefix
    assert sol == tv.TVSolution(None, 0.0, 0.0, 1.0, 0.0, sol.filled)


def test_scenario_records():
    a, b = _scenario(), _scenario()
    assert a == b and a is not b
    assert repr(a).startswith("Scenario(label='worked-example-2', p=2, field=FieldDescriptor(degree=4, ")
    assert a.genus == a.field.genus()


def test_a_parsed_scenario_is_frozen():
    # nothing mutates a parsed scenario, so it is a record like the others
    scn = _scenario()
    with pytest.raises(AttributeError):
        scn.label = "other"
    with pytest.raises(AttributeError):
        del scn.p
    assert scn.label == "worked-example-2" and scn._replace(label="other").label == "other"


def test_a_bad_call_names_the_class():
    with pytest.raises(TypeError, match=r"^QuadForm\.__init__\(\) missing 1 required positional argument: 'c'$"):
        oracle.QuadForm(1, 1)
    with pytest.raises(TypeError, match=r"^AbelianPShape\.__init__\(\) got an unexpected keyword argument 'rank'$"):
        groups.AbelianPShape(2, rank=1)


def test_records_of_two_classes_with_equal_fields_differ():
    shape, ranks = groups.AbelianPShape(3, (2, 1)), propgroups.ZassenhausRanks(3, (2, 1))
    assert shape != ranks and ranks != shape and len({shape, ranks}) == 2

    class Sub(tv.Candidate):
        __slots__ = ()

    assert Sub(3, 9, 0.5) != tv.Candidate(3, 9, 0.5) and tv.Candidate(3, 9, 0.5) != Sub(3, 9, 0.5)
