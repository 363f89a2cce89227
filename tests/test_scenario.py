import copy
import enum
import hashlib
import heapq
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from importlib import resources
from itertools import chain, takewhile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanexp import arith, cli, fields, tv
from meanexp import scenario as scenario_module
from meanexp.arith import MAX_NORM_BOUND, PrimePower, sieve_primes
from meanexp.errors import InfeasibleProblemError, NeedsLargerEnumerationError, SchemaError
from meanexp.report import PrefixRows, _round_floats, dump_report
from meanexp.scenario import (
    NORM_BOUND_MAX,
    CandidateInfo,
    SplitRun,
    _candidate_for_prime,
    _derived_sigma_fixed,
    build_candidates,
    candidate_stream,
    parse_scenario,
    run_scenario_data,
    run_scenario_obj,
)
from test_tv import _assert_same_fill, _reference_optimize

MINIMAL = {
    "version": 1,
    "label": "t",
    "p": 2,
    "field": {"type": "biquadratic", "d1_factors": [2, 2, 2, 5, 7, 11, 13, 17, 19, 23], "d2_factors": [-1, 3]},
    "T": {"dec": [], "inert": [3]},
    "epsilon_linear": 1,
    "tv": {"x0_num": 0, "x1_num": 2, "norm_bound": 128},
}


def test_schema_version():
    bad = dict(MINIMAL, version=2)
    with pytest.raises(SchemaError) as err:
        parse_scenario(bad)
    assert err.value.location == "version"


def test_schema_field_errors():
    bad = copy.deepcopy(MINIMAL)
    bad["field"] = {"type": "biquadratic", "d1_factors": [4], "d2_factors": [-1, 3]}
    with pytest.raises(SchemaError) as err:
        parse_scenario(bad)
    assert err.value.location == "field"

    bad = copy.deepcopy(MINIMAL)
    bad["p"] = 6
    with pytest.raises(SchemaError) as err:
        parse_scenario(bad)
    assert err.value.location == "p"

    bad = copy.deepcopy(MINIMAL)
    bad["T"] = {"dec": [4], "inert": []}
    with pytest.raises(SchemaError):
        parse_scenario(bad)

    bad = copy.deepcopy(MINIMAL)
    bad["tv"] = dict(MINIMAL["tv"], splitting_overrides={"9": "split"})
    with pytest.raises(SchemaError):
        parse_scenario(bad)


def test_report_runs_and_is_deterministic():
    r1 = run_scenario_data(copy.deepcopy(MINIMAL))
    r2 = run_scenario_data(copy.deepcopy(MINIMAL))
    assert dump_report(r1) == dump_report(r2)
    assert r1["tv"]["ell_star_0"] == 37


def test_norm_bound_auto_extends():
    tight = copy.deepcopy(MINIMAL)
    tight["tv"]["norm_bound"] = 8
    report = run_scenario_data(tight)
    assert report["tv"]["ell_star_0"] == 37
    assert report["tv"]["norm_bound_used"] > 8


def test_pinned_inputs_echoed():
    data = copy.deepcopy(MINIMAL)
    data["tv"]["splitting_overrides"] = {"89": "inert"}
    data["tv"]["eps_caps"] = [{"prime": 2, "eps_num": 2}]
    data["g_override"] = 20.61
    report = run_scenario_data(data)
    pins = report["pinned_inputs"]
    assert pins["splitting_overrides"] == {"89": "inert"}
    assert pins["eps_caps"] == {"2": 2.0}
    assert pins["g_override"] == 20.61
    assert report["field"]["genus_source"] == "override"
    assert report["field"]["genus_used"] == 20.61


def test_sigma_fixed_pin_mismatch_flagged():
    data = copy.deepcopy(MINIMAL)
    data["tv"]["sigma_fixed"] = [{"q": 9, "num": 2}]  # derived value is 1
    report = run_scenario_data(data)
    assert report["pinned_inputs"]["sigma_fixed_matches_derived"] is False
    ok = copy.deepcopy(MINIMAL)
    ok["tv"]["sigma_fixed"] = [{"q": 9, "num": 1}]
    report = run_scenario_data(ok)
    assert report["pinned_inputs"]["sigma_fixed_matches_derived"] is True


def test_gs_block():
    # worked example 2 shape: 22 T-places + 2 archimedean give a level-0
    # rank bound of 21, far past the finiteness threshold
    ex2 = {
        "version": 1,
        "label": "gs",
        "p": 2,
        "field": {
            "type": "biquadratic",
            "d1_factors": [47, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107,
                           109, 113, 127, 131, 137, 139, 149, 151],
            "d2_factors": [-1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 53],
        },
        "T": {"dec": [2, 5, 11, 13, 17, 19, 23], "inert": [3, 7, 29, 31, 37, 41, 43, 53]},
        "tv": {"x0_num": 0, "x1_num": 2, "norm_bound": 64},
    }
    report = run_scenario_data(ex2)
    gs = report["criteria"]["generator_relation"]
    assert gs["rho"] == 24 and gs["d_lower"] == 21
    assert gs["verdict"] == "must_be_infinite"
    # worked example 1: level-0 genus data is too weak to decide
    report = run_scenario_data(copy.deepcopy(MINIMAL))
    assert report["criteria"]["generator_relation"]["verdict"] == "inconclusive"


def test_t_declaration_checked():
    data = copy.deepcopy(MINIMAL)
    data["T"] = {"dec": [3], "inert": []}  # 3 is actually inert in the base
    report = run_scenario_data(data)
    checks = report["T"]["checks"]
    assert checks == [{"prime": 3, "declared": "split", "derived": "inert", "agree": False}]


def test_infeasible_budget_raises():
    data = {
        "version": 1,
        "label": "tiny",
        "p": 2,
        "field": {"type": "quadratic", "radicand_factors": [-1, 3]},
        "T": {"dec": [], "inert": []},
        "tv": {"x0_num": 0, "x1_num": 1, "norm_bound": 64},
    }
    # g = log sqrt(3): x1 = 1/g makes the archimedean cost alone exceed 1
    with pytest.raises(InfeasibleProblemError):
        run_scenario_data(data)


def test_degenerate_scenario():
    data = {
        "version": 1,
        "label": "degenerate",
        "p": 2,
        "field": {"type": "quadratic", "radicand_factors": [-1, 3]},
        "T": {"dec": [], "inert": []},
        "tv": {"x0_num": 0, "x1_num": 0, "norm_bound": 64},
    }
    report = run_scenario_data(data)
    assert report["tv"]["degenerate"] is True
    assert report["tv"]["B_upper"] == 1.0
    assert report["tv"]["sum_b_bound"] == 0.0


def test_candidate_weights_worked_example_1():
    sc = parse_scenario(
        dict(
            copy.deepcopy(MINIMAL),
            tv={"x0_num": 0, "x1_num": 2, "eps_caps": [{"prime": 2, "eps_num": 2}], "norm_bound": 50},
        )
    )
    cands = {c.norm: c for c in build_candidates(sc, 50)}
    assert cands[4].weight_num == 1  # (4 - 2)/2 capped against one place
    assert cands[25].weight_num == 1  # single place of norm 25
    assert cands[7].weight_num == 2  # two places of norm 7
    assert cands[31].weight_num == 4  # totally split
    assert cands[31].kind == "split_full"
    assert 9 not in cands  # the T prime is closed


def test_capacity_override_and_exclusion():
    data = copy.deepcopy(MINIMAL)
    data["tv"]["capacity_overrides"] = [{"prime": 7, "norm": 7, "weight_num": 3}]
    sc = parse_scenario(data)
    cands = {c.norm: c for c in build_candidates(sc, 50)}
    assert cands[7].weight_num == 3 and cands[7].pinned

    data = copy.deepcopy(MINIMAL)
    data["tv"]["excluded"] = [7]
    sc = parse_scenario(data)
    cands = {c.norm: c for c in build_candidates(sc, 5000)}
    assert 7 not in cands
    # the prime re-enters one power up with halved slots
    assert cands[49].prime == 7
    assert cands[49].weight_num == 1


def test_packaged_example2_coarse_bound():
    from meanexp.cli import run_packaged_example

    report = run_packaged_example("example2")
    # published coarse assembly with the totally-imaginary universal constant
    assert abs(report["bounds"]["coarse"]["bound"] - 9.662) < 5e-3
    assert report["bounds"]["coarse"]["B"] == 1.0765


def test_b_upper_is_assembled_once_from_the_fill():
    # the fill's own B is the derived assembly; a pinned deduction is applied
    # to the fill's payoff sum, once, for the headline B
    full = cli.run_packaged_example("example2")
    report, g = full["tv"], full["field"]["genus_used"]
    assert report["B_upper"].hex() == tv.assemble_B(report["sum_b_bound"], 2 / g, 0).hex()
    assert report["B_upper"] != report["B_upper_derived_assembly"]
    report = cli.run_packaged_example("example1")["tv"]
    assert not report["b_deduction_pinned"]
    assert report["B_upper"].hex() == report["B_upper_derived_assembly"].hex()


def test_packaged_intro_radicands_multiply_out():
    import math
    from importlib import resources

    data = json.loads(
        resources.files("meanexp").joinpath("scenarios", "intro.json").read_text()
    )
    assert math.prod(data["field"]["d1_factors"]) == 130356633908760178920
    assert math.prod(data["field"]["d2_factors"]) == -80285321329764931


def test_json_load_error_locations(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    from meanexp.scenario import load_scenario

    with pytest.raises(SchemaError) as err:
        load_scenario(bad)
    assert "line 1" in str(err.value)


def test_dump_precision():
    report = {"x": 1.23456789, "nested": {"y": [0.1111111]}}
    text = dump_report(report, precision=3)
    data = json.loads(text)
    assert data["x"] == 1.235
    assert data["nested"]["y"][0] == 0.111


# SHA-256 of dump_report(run_packaged_example(name)), recorded before the
# greedy fill read a candidate stream; the reports must stay byte-identical.
PACKAGED_DIGESTS = {
    "example1": "7298937942a292f0a6838618bbdc7ac404aa4baa7e130283a3f40d91a2a8dfbf",
    "example2": "ef3c848a07cac50e432ae42f3816bb6b8874a39baac585e2cd7f32f2d9d3e9ba",
    "example3": "e616908963a35b76efbac77a4d5c85417cf15c71e38da024503e39b19b8408eb",
    "example4": "16194e6dd295b1789edddd798a15bd7ce3811c301778e8fbfe0218a7cc0c7d71",
    "example5": "89e48559015aa8c1ef368163a8da6f79ade05a39ff0f152b6d9df5f714401e8c",
    "intro": "f26fbd3d3442f6c958557ef924e1674fba9d9ad38c57763debb8c4d31f9e5ca9",
}


@pytest.mark.parametrize("name", sorted(PACKAGED_DIGESTS))
def test_packaged_report_bytes_pinned(name):
    from meanexp.cli import run_packaged_example

    text = dump_report(run_packaged_example(name))
    assert hashlib.sha256(text.encode()).hexdigest() == PACKAGED_DIGESTS[name]


def _compensated_sum(values, start=0):
    """Built-in sum() as from Python 3.12: floats are added with Neumaier
    compensation, ints exactly."""
    values = list(values)
    if all(type(x) is int for x in values):
        return start + sum(values)
    total, comp = start, 0.0
    for x in values:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp


def test_compensated_sum_moves_the_last_digits():
    assert _compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert _compensated_sum([0.1] * 10) != sum([0.1] * 10)


@pytest.mark.parametrize("name", sorted(PACKAGED_DIGESTS))
def test_packaged_report_bytes_do_not_depend_on_the_builtin_sum(name, monkeypatch):
    from meanexp import arith, fields, scenario
    from meanexp.cli import run_packaged_example

    for module in (arith, fields, scenario, tv):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    text = dump_report(run_packaged_example(name))
    assert hashlib.sha256(text.encode()).hexdigest() == PACKAGED_DIGESTS[name]


def _indented(obj) -> str:
    """The reference text dump_report must reproduce byte for byte."""
    return json.dumps(obj, sort_keys=True, indent=2)


# characters that could fake a row boundary or an escape, control
# characters, and non-ASCII text up to a lone surrogate and an astral one
_TEXT = st.text(st.sampled_from('{}[],:" \\\n\t\x00a7é€\ud800𝄞'), max_size=6)
_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**200), 2**200),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
    st.floats(allow_nan=True, allow_infinity=True),
    _TEXT,
)
# lists of flat dicts are the shape a report's bulk takes
_ROWS = st.lists(st.dictionaries(_TEXT, _SCALAR, max_size=5), min_size=1, max_size=6)
_TREE = st.recursive(
    st.one_of(_ROWS, _SCALAR, _ROWS),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=16,
)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(_TREE)
def test_dump_report_matches_indented_json(obj):
    assert dump_report(obj) == _indented(obj)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


class _Real(float):
    pass


class _Name(str):
    pass


@pytest.mark.parametrize(
    "obj",
    [
        [{}, {"a": 1}, {}],
        [{"a": 1}, {}],
        [{"a": 1.5}],
        [{"a": [1, 2], "b": 0}, {"c": None}],
        [{"a": 1}, {"b": {"c": 2}}],
        [[]],
        [[], {}],
        {"é": "€ ☃ 𝄞", "ü": ["ß", {"ñ": "\ud800"}]},
        [{"a": "},\n    {", "b": 2}, {"c": '"},\n    {"', "{": "}"}],
        [{"}": "\\", "a": '"'}, {"{": "{", "b": "}"}],
        {"rows": [{"x": "},\n      {"}, {"y": "\\},\n      {"}], "z": "}"},
        {"k": ({"a": 1}, {"b": 2}), "t": (1, (2,))},
        {"deep": {"prefix": [{"n": 2**70, "w": -0.0}, {"n": float("nan"), "w": float("-inf")}]}},
        {2: [{"a": 1}], 1.5: {"b": [True, None]}},
        0, -0.0, "", None, float("inf"), [], {},
        # subclasses of int, float and str: as values, as keys, in a column and in a row column
        _Level.HIGH, _Real(-1.5), _Name("é"),
        [_Level.LOW, _Real(float("nan")), _Name("x"), 3],
        {_Level.HIGH: _Real(2.5), _Real(0.5): _Level.LOW, 3: 1},
        {_Name("b"): _Name("c"), "a": True},
        [{"n": _Level.LOW, "s": "x"}, {"n": 2, "s": _Name("y")}, {"n": _Real(1.5), "s": "z"}],
        [{_Name("n"): 1}, {"n": 2}],
        # literal and non-finite keys
        {True: 1, False: [0], 2: None},
        {None: {"a": None}},
        {float("nan"): 1.0, float("inf"): 2, float("-inf"): 3, -0.0: 4},
    ],
)
def test_dump_report_edge_cases_match_indented_json(obj):
    assert dump_report(obj) == _indented(obj)


@pytest.mark.parametrize(
    "obj",
    [Fraction(1, 3), {"a": Fraction(1, 3)}, [1, Fraction(1, 3)], [{"a": {1, 2}}, {"a": 1}], {"a": {1, 2}},
     {(1, 2): 1}, {"a": [{(1, 2): 1}]}],
)
def test_dump_report_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        _indented(obj)
    with pytest.raises(TypeError):
        dump_report(obj)


# The columns of one row list: each draws its values from one of these.
# Some are of a single type (read through a memo of distinct values); the
# mixes hold values that compare equal but print differently: 1, True, 1.0
# and 0.0, -0.0; every nan drawn is a new object.
_NAN = st.builds(float, st.just("nan"))
_COLUMN_VALUES = [
    st.integers(-(2**200), 2**200),
    st.sampled_from([0, 7, 2**200, -(2**200)]),
    st.booleans(),
    st.none(),
    _TEXT,
    st.sampled_from(["kind", "split_full", "é"]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.one_of(_NAN, st.sampled_from([1.5, float("inf"), float("-inf")])),
    st.sampled_from([0.0, -0.0, 2.5]),
    _NAN,
    st.sampled_from([1, True, 1.0]),
    st.sampled_from([0, False, 0.0, -0.0, None]),
    _SCALAR,
]


@st.composite
def _same_keyed_rows(draw):
    """A row list over one key list, sometimes with one row's keys changed
    (an other str key, or non-str keys) and sometimes nested."""
    keys = draw(st.lists(_TEXT, min_size=1, max_size=5, unique=True))
    n = draw(st.integers(1, 40))
    columns = [draw(st.lists(draw(st.sampled_from(_COLUMN_VALUES)), min_size=n, max_size=n)) for _ in keys]
    rows = [dict(zip(keys, values)) for values in zip(*columns)]
    change, at = draw(st.sampled_from(["none", "other key", "non-str keys"])), draw(st.integers(0, n - 1))
    if change == "other key":
        row = rows[at]
        row[draw(_TEXT.filter(lambda key: key not in keys))] = row.pop(draw(st.sampled_from(keys)))
    elif change == "non-str keys":
        key_type = draw(st.sampled_from([int, float]))
        rows[at] = {key_type(i): value for i, value in enumerate(rows[at].values())}
    obj = rows
    for key in draw(st.lists(_TEXT, max_size=2)):
        obj = {key: obj}
    return obj


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_same_keyed_rows())
def test_dump_report_same_keyed_rows_match_indented_json(obj):
    assert dump_report(obj) == _indented(obj)


@pytest.mark.parametrize("at", [0, 1, 511, 512, 513, 599])
@pytest.mark.parametrize(
    "odd",
    [{"n": 1, "t": "x", "y": 2.0}, {"n": 1, "s": "x"}, {1: "a", 2: "b"}, {"n": {"m": 1}, "s": "x"},
     {"n": [1], "s": "x"}, {"n": 0.0, "s": "x"}, {}, {"n": True, "s": "x"}],
    ids=["other-key", "shorter", "int-keys", "dict-value", "list-value", "zero", "empty", "bool"],
)
def test_dump_report_row_list_with_one_odd_row(at, odd):
    # the slice that holds the odd row is emitted row by row, the others a column at a time
    rows = [{"n": i, "s": str(i), "x": i / 4} for i in range(600)]
    rows[at] = odd
    for obj in (rows, {"a": [rows]}):
        assert dump_report(obj) == _indented(obj)


@pytest.mark.parametrize("n", [511, 512, 513, 1024, 1537])
def test_dump_report_long_lists_match_indented_json(n):
    # long lists are encoded a slice at a time; every slice boundary must
    # give the same bytes, in flat lists and in row lists at any depth
    rows = [{"n": i, "s": "},\n      {" if i % 7 == 0 else str(i), "x": i / 3} for i in range(n)]
    for obj in ([2**i for i in range(n)], tuple(range(n)), rows, {"a": {"rows": rows, "b": list(range(n))}}):
        assert dump_report(obj) == _indented(obj)


def test_dump_report_peak_memory_stays_below_indented_json():
    from meanexp.propgroups import GSGroupParams, gs_ranks

    # the shape of a large `propgroup ranks --json` payload (about 220 KB)
    ranks = {"d": 4, "r": 4, "p": 3, "b": list(gs_ranks(GSGroupParams(d=4, r=4, p=3), 1200).b)}
    # the x1_num = 0.03 rung: about 9,400 `tv.prefix` rows, 1.4 MB of text
    rung = run_scenario_data(_deep("example1", 0.03))
    assert len(rung["tv"]["prefix"]) > 9000
    # json.dumps reads plain data: the rung's twin with its rows as a list,
    # built before tracing so that its rows do not count toward the reference's peak
    rung_rows = dict(rung, tv=dict(rung["tv"], prefix=list(rung["tv"]["prefix"])))
    for payload, twin in ((ranks, ranks), (rung, rung_rows)):
        peaks = []
        for dump, obj in ((dump_report, payload), (_indented, twin)):
            tracemalloc.start()
            try:
                text = dump(obj)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del text
        assert peaks[0] <= peaks[1], peaks


@pytest.mark.parametrize(
    "entry",
    [
        {"prime": 7, "norm": "x", "weight_num": 1},
        {"prime": 7, "norm": 50, "weight_num": 1},
        {"prime": 7, "norm": 25, "weight_num": 1},
        {"prime": "7", "norm": 7, "weight_num": 1},
        {"prime": 7, "norm": 7, "weight_num": "a"},
        {"prime": 7, "norm": 7, "weight_num": -1},
    ],
    ids=["norm-not-int", "norm-not-power", "norm-other-prime", "prime-not-int", "weight-not-numeric",
         "weight-negative"],
)
def test_capacity_override_rejects(entry):
    data = copy.deepcopy(MINIMAL)
    data["tv"]["capacity_overrides"] = [{"prime": 5, "norm": 25, "weight_num": 1}, entry]
    with pytest.raises(SchemaError) as err:
        parse_scenario(data)
    assert err.value.location == "tv.capacity_overrides[1]"


def _problem(sc):
    """The TVProblem as run_scenario_obj sets it up."""
    g = sc.genus
    pairs = sc.sigma_fixed_pin
    if pairs is None:
        pairs = [(q, float(num)) for q, num in _derived_sigma_fixed(sc)]
    return tv.TVProblem(
        x0=sc.x0_num / g, x1=sc.x1_num / g, fixed=tuple((PrimePower.from_value(q), num / g) for q, num in pairs)
    )


def _reference_fill(data: dict) -> dict:
    """The greedy fill by enumerate-then-double: every candidate up to the
    bound, a list fill, and a doubled bound whenever the list runs out."""
    sc = parse_scenario(data)
    g = sc.genus
    problem = _problem(sc)
    closed = set(sc.t_dec) | set(sc.t_inert)
    cap_num = sc.x0_num + 2 * sc.x1_num
    bound = sc.norm_bound
    while True:
        infos = [_candidate_for_prime(sc, ell, cap_num, g) for ell in sieve_primes(bound) if ell not in closed]
        infos = sorted((ci for ci in infos if ci is not None and ci.norm <= bound), key=lambda ci: ci.norm)
        cands = [tv.Candidate(ci.prime, ci.norm, ci.weight_num / g) for ci in infos]
        try:
            sol = tv.optimize(problem, cands)
            break
        except NeedsLargerEnumerationError:
            if bound >= MAX_NORM_BOUND:
                raise
            bound = min(2 * bound, MAX_NORM_BOUND)
    by_norm = {ci.norm: ci for ci in infos}
    return {
        "ell_star_0": None if sol.ell_star_0 is None else sol.ell_star_0.norm,
        "alpha": sol.alpha,
        "prefix": [
            {"norm": c.norm, "prime": by_norm[c.norm].prime, "weight_num": by_norm[c.norm].weight_num,
             "kind": by_norm[c.norm].kind, "pinned": by_norm[c.norm].pinned}
            for c in sol.prefix
        ],
        "B_upper": sol.B_upper if sc.b_deduction_nums is None else tv.assemble_B(
            sol.sum_b_bound, sc.b_deduction_nums[0] / g, sc.b_deduction_nums[1] / g),
        "B_upper_derived_assembly": sol.B_upper,
        "norm_bound_used": bound,
    }


PACKAGED = ("example1", "example2", "example3", "example4", "example5", "intro")
DEEP_BASES = ("example1", "example2", "example3", "example4", "intro")


def _packaged(name: str) -> dict:
    return json.loads(resources.files("meanexp").joinpath("scenarios", f"{name}.json").read_text())


def _deep(base: str, x1_num: float) -> dict:
    """A packaged biquadratic base with T and sigma_fixed removed."""
    data = _packaged(base)
    data.pop("T", None)
    data["tv"].pop("sigma_fixed", None)
    data["tv"]["x1_num"] = x1_num
    return data


def _minimal_with_pins() -> dict:
    data = copy.deepcopy(MINIMAL)
    data["tv"].update(
        norm_bound=8,
        splitting_overrides={"5": "split", "7": "inert", "89": "inert"},
        excluded=[13, 121],
        eps_caps=[{"prime": 2, "eps_num": 2}, {"prime": 11, "eps_num": 3.5}],
        capacity_overrides=[
            {"prime": 17, "norm": 289, "weight_num": 1.5},
            {"prime": 41, "norm": 41, "weight_num": 0},
        ],
    )
    return data


def _deep_with_pins_above_root() -> dict:
    """example1 at x1_num 0.3 with a pin of each kind on primes past
    isqrt(MAX_NORM_BOUND) = 1414, where the stream visits only the fully
    split primes and the primes the scenario names; ell_star_0 lies past them.

    Fully split: 1423, 1429, 1453, 1459.  Not fully split: 1427, 1433."""
    data = _deep("example1", 0.3)
    data["T"] = {"dec": [1459], "inert": []}
    data["tv"].update(
        sigma_fixed=[{"q": 1459, "num": 0.5}],  # the derived 2 places would exceed the cap 0.6
        splitting_overrides={"1427": "split", "1423": "inert"},
        eps_caps=[{"prime": 2, "eps_num": 2}, {"prime": 1429, "eps_num": 0.6}],
        excluded=[1453],
        capacity_overrides=[{"prime": 1433, "norm": 1433, "weight_num": 1}],
    )
    return data


def _quadratic_with_pins() -> dict:
    """Q(sqrt(-5005)), D = -20020: 3 and 19 are inert, 17 splits; the pins swap them."""
    return {
        "version": 1,
        "label": "quadratic-pins",
        "p": 2,
        "field": {"type": "quadratic", "radicand_factors": [-1, 5, 7, 11, 13]},
        "g_override": 40,
        "tv": {"x0_num": 0, "x1_num": 0.3, "norm_bound": 64,
               "splitting_overrides": {"3": "split", "17": "inert", "19": "split"}},
    }


def _expanded(records):
    """The stream's records one candidate per prime: each run expanded in place."""
    return chain.from_iterable(rec.expand() for rec in records)


def _reference_readable_primes(sc, limit: int):
    """(prime, split) for each prime up to limit whose candidate can have a
    norm <= limit, in doubling segments (1, norm_bound], (norm_bound,
    2 norm_bound], ...: every prime up to isqrt(limit), the named primes and
    the fully split primes of the mask."""
    ramified = sc.field.abs_disc_factored
    named = set(ramified).union(sc.t_dec, sc.t_inert, sc.splitting_overrides, sc.eps_caps,
                                sc.capacity_overrides, (PrimePower.from_value(q).ell for q in sc.excluded))
    root = math.isqrt(limit)
    lo, hi = 1, sc.norm_bound
    while lo < limit:
        split = fields.split_primes_between(sc.field, lo, hi)
        split_set = set(split)
        small = sieve_primes(min(hi, root)) if lo < root else []
        others = {ell for ell in named.union(small) if lo < ell <= hi} - split_set
        for ell in heapq.merge(split, sorted(others)):
            yield ell, None if ell in ramified else ell in split_set
        lo, hi = hi, min(2 * hi, limit)


def _reference_stream(sc):
    """The per-prime candidate stream: one record per prime, each built when
    its prime is visited, in ascending norm through a heap."""
    closed = set(sc.t_dec) | set(sc.t_inert)
    cap_num = sc.x0_num + 2 * sc.x1_num
    g = sc.genus
    limit = max(sc.norm_bound, MAX_NORM_BOUND)
    overrides = [(q, None) for q in sorted(sc.capacity_overrides) if q <= limit]
    primes = _reference_readable_primes(sc, limit) if cap_num > 0 else overrides
    waiting = []
    for ell, split in primes:
        cand = None if ell in closed else _candidate_for_prime(sc, ell, cap_num, g, split)
        if cand is not None and cand.norm <= limit:
            heapq.heappush(waiting, (cand.norm, cand))
        while waiting and waiting[0][0] <= ell:
            yield heapq.heappop(waiting)[1]
    while waiting:
        yield heapq.heappop(waiting)[1]


DEEP_CASES = [(base, x1) for base in DEEP_BASES for x1 in (2, 1, 0.6)]


@pytest.mark.parametrize(
    "data",
    [_deep(base, x1) for base, x1 in DEEP_CASES]
    + [_minimal_with_pins(), _deep_with_pins_above_root(), _quadratic_with_pins()],
    ids=[f"{base}-{x1}" for base, x1 in DEEP_CASES]
    + ["minimal-pins", "example1-pins-above-root", "quadratic-pins"],
)
def test_stream_matches_enumerate_then_double(data):
    want = _reference_fill(data)
    got = run_scenario_data(copy.deepcopy(data))["tv"]
    assert {key: got[key] for key in want} == want


def _listed_rows(filled) -> list[dict]:
    """The `tv.prefix` rows of the filled records as a plain list of dicts."""
    return [{"norm": norm, "prime": ell, "weight_num": w, "kind": kind, "pinned": pinned}
            for rec in filled for w, kind, pinned in [(rec.weight_num, rec.kind, rec.pinned)]
            for norm, ell in zip(rec.norms, rec.primes)]


def _indented_rows(obj) -> str:
    """The reference text of a payload that holds `PrefixRows` views."""
    return json.dumps(obj, sort_keys=True, indent=2, default=list)


@pytest.mark.parametrize("name", [*PACKAGED, "example1-0.03"])
def test_prefix_view_lists_the_rows_of_its_records(name):
    if name in PACKAGED:
        report = cli.run_packaged_example(name)
    else:
        report = run_scenario_data(_deep("example1", 0.03))
    view = report["tv"]["prefix"]
    assert type(view) is PrefixRows
    want = _listed_rows(view.records)
    # repr tells 1 from 1.0 and True, which == does not
    assert list(view) == want and repr(list(view)) == repr(want)
    assert len(view) == len(want) == sum(len(rec.norms) for rec in view.records)
    sc = parse_scenario(_deep("example1", 0.03) if name not in PACKAGED else _packaged(name))
    sol = tv.optimize(_problem(sc), candidate_stream(sc))
    assert want == [{"norm": c.norm, "prime": c.prime, "weight_num": c.weight_num, "kind": c.kind,
                     "pinned": c.pinned} for c in sol.prefix]
    assert dump_report(report) == _indented_rows(report)


def test_prefix_view_reads_as_a_sequence():
    view = run_scenario_data(_deep_with_pins_above_root())["tv"]["prefix"]
    rows = list(view)
    n = len(rows)
    assert len(view) == n > 100 and len(view.records) < n / 4
    assert [view[i] for i in range(-n, n)] == rows + rows
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            view[i]
    for cut in (slice(2, 7), slice(None, None, -3), slice(-4, None), slice(5, 2), slice(None)):
        assert view[cut] == rows[cut]
    assert view == rows and rows == view and view == tuple(rows) and tuple(rows) == view and view == view
    assert view != rows[:-1] and rows[:-1] != view and view != rows[::-1] and view != "rows" and view != {}
    assert view.index(rows[3]) == 3 and rows[-1] in view and view.count(rows[0]) == 1
    assert repr(view) == str(view) == repr(rows)
    # the text output prints the view as it printed the list
    assert list(cli._default_lines({"tv": {"prefix": view}})) == list(cli._default_lines({"tv": {"prefix": rows}}))
    with pytest.raises(TypeError):
        hash(view)
    empty = PrefixRows(())
    assert len(empty) == 0 and empty == [] and [] == empty and repr(empty) == "[]" and list(empty) == []
    assert dump_report({"prefix": empty}) == _indented_rows({"prefix": empty})


def test_prefix_rows_are_fresh_on_every_access():
    report = run_scenario_data(_deep_with_pins_above_root())
    view = report["tv"]["prefix"]
    rows, text = copy.deepcopy(list(view)), dump_report(report)
    view[0]["norm"] = -1
    view[-1]["kind"] = "changed"
    next(iter(view))["weight_num"] = 0.5
    view[1:3][0]["pinned"] = "changed"
    for row in view:
        row.clear()
    assert list(view) == rows and view[1] == rows[1]
    assert dump_report(report) == text


@st.composite
def _prefix_views(draw):
    """A view over records of ascending integers standing in for primes:
    runs, some over _ITEMS_PER_CALL long, and candidates whose norm may be a
    power of their prime.  Frames repeat, and a kind holds characters json
    escapes."""
    frame = st.tuples(st.sampled_from(["split_full", "inert_sq", 'a"\\\n{},é\ud800']), st.booleans(),
                      st.one_of(st.sampled_from([0.7633141, 2.0]), st.floats(min_value=1e-300, max_value=4.0)))
    records, ell = [], 2
    for length, (kind, pinned, weight_num) in draw(st.lists(
            st.tuples(st.sampled_from([1, 1, 2, 3, 511, 512, 513, 1100]), frame), max_size=5)):
        if length == 1:
            exp = draw(st.integers(1, 3))
            records.append(CandidateInfo(ell, ell**exp, 1.0, weight_num=weight_num, kind=kind, pinned=pinned))
            ell += draw(st.integers(1, 10**30))
        elif not pinned:
            start = ell
            ell += length * draw(st.integers(1, 2**70))
            records.append(SplitRun(tuple(range(start, ell, (ell - start) // length)), 1.0, weight_num, kind))
    return PrefixRows(records)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_prefix_views(), st.lists(st.booleans(), max_size=3))
def test_dump_report_writes_prefix_views_as_json_reads_their_rows(view, path):
    obj = view
    for in_dict in path:
        obj = {"tv": obj, "x": 1.2345} if in_dict else [0.5, obj]
    assert dump_report(obj) == _indented_rows(obj)
    assert dump_report(obj, precision=3) == json.dumps(_round_floats(json.loads(
        _indented_rows(obj)), 3), sort_keys=True, indent=2)


def test_pins_above_root_reach_the_fill():
    report = run_scenario_data(_deep_with_pins_above_root())["tv"]
    assert report["ell_star_0"] > 1459
    by_prime = {row["prime"]: row for row in report["prefix"]}
    assert by_prime[1427]["norm"] == 1427 and by_prime[1427]["kind"] == "split_full"  # split pin
    assert by_prime[1433]["kind"] == "override"
    for ell in (1423, 1429, 1453, 1459):  # inert pin, capped out, excluded, in T
        assert ell not in by_prime
    assert by_prime[1471]["kind"] == "split_full"  # an unpinned split prime in between


def test_quadratic_splitting_pins_apply():
    data = _quadratic_with_pins()
    pinned = run_scenario_data(copy.deepcopy(data))["tv"]
    rows = {row["prime"]: row for row in pinned["prefix"]}
    assert rows[3]["norm"] == 3 and rows[3]["weight_num"] == 0.6 and rows[3]["pinned"]
    assert rows[19]["norm"] == 19 and rows[19]["pinned"]
    assert rows[17]["norm"] == 289 and rows[17]["pinned"]
    del data["tv"]["splitting_overrides"]
    unpinned = run_scenario_data(data)["tv"]
    assert {row["prime"]: row["norm"] for row in unpinned["prefix"]}[3] == 9
    assert pinned["ell_star_0"] != unpinned["ell_star_0"]


def test_candidate_stream_is_ascending_and_matches_prefix():
    sc = parse_scenario(_minimal_with_pins())
    stream = _expanded(candidate_stream(sc))
    head = [next(stream) for _ in range(200)]
    norms = [ci.norm for ci in head]
    assert norms == sorted(set(norms))
    assert build_candidates(sc, norms[-1]) == head
    assert all(PrimePower.from_value(ci.norm).ell == ci.prime for ci in head)


def _quadratic_with_everything(radicand: list[int], x1_num: float) -> dict:
    """A quadratic field with splitting pins both ways, excluded norms, eps
    caps, capacity overrides and T primes, below and above isqrt(2e6)."""
    return {
        "version": 1,
        "label": "quadratic-everything",
        "p": 2,
        "field": {"type": "quadratic", "radicand_factors": radicand},
        "g_override": 40,
        "T": {"dec": [101], "inert": [5]},
        "tv": {
            "x0_num": 0, "x1_num": x1_num, "norm_bound": 64,
            "sigma_fixed": [{"q": 101, "num": 0.05}, {"q": 25, "num": 0.05}],
            "splitting_overrides": {"3": "split", "17": "inert", "1427": "split", "1423": "inert"},
            "excluded": [7, 49, 29, 1453],
            "eps_caps": [{"prime": 2, "eps_num": 0.05}, {"prime": 23, "eps_num": 0.05},
                         {"prime": 1429, "eps_num": 0.04}],
            "capacity_overrides": [{"prime": 41, "norm": 41, "weight_num": 0.5},
                                   {"prime": 31, "norm": 961, "weight_num": 0.2},
                                   {"prime": 1433, "norm": 1433, "weight_num": 1}],
        },
    }


def _zero_cap_with_overrides() -> dict:
    data = copy.deepcopy(MINIMAL)
    data["T"] = {"dec": [], "inert": []}
    data["tv"].update(x1_num=0, capacity_overrides=[{"prime": 7, "norm": 49, "weight_num": 1},
                                                    {"prime": 5, "norm": 5, "weight_num": 0.5}])
    return data


QUADRATIC_FIELDS = {"imaginary": [-1, 5, 7, 11, 13], "real": [2, 3, 5, 7, 11, 13, 17]}
STREAM_CASES = (
    [(f"{name}-{x1}", dict(_packaged(name), tv=dict(_packaged(name)["tv"], x1_num=x1)))
     for name in PACKAGED for x1 in (0.03, 1)]
    + [(f"{base}-deep", _deep(base, 0.3)) for base in DEEP_BASES]
    + [("minimal", MINIMAL), ("minimal-pins", _minimal_with_pins()),
       ("example1-pins-above-root", _deep_with_pins_above_root()), ("quadratic-pins", _quadratic_with_pins()),
       ("zero-cap", _zero_cap_with_overrides())]
    + [(f"quadratic-{kind}-{x1}", _quadratic_with_everything(rad, x1))
       for kind, rad in QUADRATIC_FIELDS.items() for x1 in (0.05, 0.3)]
)


@pytest.mark.parametrize("data", [data for _, data in STREAM_CASES], ids=[name for name, _ in STREAM_CASES])
def test_expanded_stream_matches_the_per_prime_stream(data):
    sc = parse_scenario(copy.deepcopy(data))
    bound = 60_000
    got = list(takewhile(lambda c: c.norm <= bound, _expanded(candidate_stream(sc))))
    want = list(takewhile(lambda c: c.norm <= bound, _reference_stream(sc)))
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


FILL_CASES = (
    [("example1-0.03", _deep("example1", 0.03))]
    + [(f"{base}-{x1}", _deep(base, x1)) for base in DEEP_BASES for x1 in (0.1, 0.3, 2)]
    + [(name, _packaged(name)) for name in PACKAGED]
    + [(name, data) for name, data in STREAM_CASES if name.startswith(("minimal", "example1-pins", "quadratic"))]
)


@pytest.mark.parametrize("data", [data for _, data in FILL_CASES], ids=[name for name, _ in FILL_CASES])
def test_fill_over_runs_matches_the_fill_over_candidates(data):
    sc = parse_scenario(copy.deepcopy(data))
    problem = _problem(sc)
    runs = tv.optimize(problem, candidate_stream(sc))
    hash(runs)
    for other in (_expanded(candidate_stream(sc)), _reference_stream(sc)):
        _assert_same_fill(runs, _reference_optimize(problem, other))


@pytest.mark.parametrize("data, kind", [(_deep("example1", 0.3), "split_full"),
                                        (_quadratic_with_everything([-1, 5, 7, 11, 13], 0.3), "quadratic")])
def test_unnamed_split_primes_come_as_runs(data, kind):
    sc = parse_scenario(data)
    problem = _problem(sc)
    filled = tv.optimize(problem, candidate_stream(sc)).filled
    runs = [rec for rec in filled if isinstance(rec, SplitRun)]
    assert {rec.kind for rec in runs} == {kind} and max(len(rec.primes) for rec in runs) > 20
    assert all(not c.pinned and c.prime == c.norm for rec in runs for c in rec.expand())


def test_stream_builds_small_primes_only_when_it_reaches_their_square(monkeypatch):
    built = []

    def counting(sc, ell, *args):
        built.append(ell)
        return _candidate_for_prime(sc, ell, *args)

    monkeypatch.setattr(scenario_module, "_candidate_for_prime", counting)
    data = _deep("example1", 0.3)
    sc = parse_scenario(copy.deepcopy(data))
    lstar0 = run_scenario_data(data)["tv"]["ell_star_0"]
    named = set(sc.field.abs_disc_factored) | set(sc.eps_caps)
    assert built and all(ell in named or ell * ell <= lstar0 for ell in built)
    assert len(built) < len(sieve_primes(math.isqrt(MAX_NORM_BOUND))) // 4


@pytest.mark.parametrize("bound", [10**30, 2**61 - 1, NORM_BOUND_MAX + 1])
def test_norm_bound_past_its_maximum_exits_2(bound, tmp_path, capsys):
    data = copy.deepcopy(MINIMAL)
    data["tv"]["norm_bound"] = bound
    with pytest.raises(SchemaError) as err:
        parse_scenario(data)
    assert err.value.location == "tv.norm_bound"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    tracemalloc.start()
    try:
        code = cli.main(["tv-bound", "--scenario", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"meanexp: invalid input: tv.norm_bound: norm_bound must be at most {NORM_BOUND_MAX}\n"
    assert peak < 1 << 20


@pytest.mark.parametrize("bound", [3 * 10**7, NORM_BOUND_MAX])
def test_large_norm_bound_that_stops_early_stays_small(bound):
    want = run_scenario_data(copy.deepcopy(MINIMAL))["tv"]
    data = copy.deepcopy(MINIMAL)
    data["tv"]["norm_bound"] = bound
    tracemalloc.start()
    try:
        got = run_scenario_data(data)["tv"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert got["norm_bound_used"] == bound
    assert {k: v for k, v in got.items() if k != "norm_bound_used"} == {
        k: v for k, v in want.items() if k != "norm_bound_used"}


def test_zero_cap_with_weighted_override_stops_fast():
    data = copy.deepcopy(MINIMAL)
    data["T"] = {"dec": [], "inert": []}
    data["tv"].update(x1_num=0, capacity_overrides=[{"prime": 7, "norm": 7, "weight_num": 1}])
    start = time.perf_counter()
    with pytest.raises(NeedsLargerEnumerationError):
        run_scenario_data(data)
    assert time.perf_counter() - start < 1.0


NAN, INF = float("nan"), float("inf")


def test_large_prime_power_norms_parse_without_factoring():
    # a prime power is recognised from exact integer roots, so a norm near
    # 2^61 parses at once instead of after trial division up to its root
    data = copy.deepcopy(MINIMAL)
    data["tv"]["excluded"] = [2**61 - 1, 3**40]
    assert parse_scenario(data).excluded == {2**61 - 1, 3**40}
    data["tv"]["excluded"] = [(2**31 - 1) * (2**61 - 1)]
    with pytest.raises(SchemaError) as err:
        parse_scenario(data)
    assert err.value.location == "tv.excluded[0]"


@pytest.mark.parametrize(
    "section, key, value, location",
    [
        ("field", "d1_factors", "abc", "field.d1_factors"),
        ("field", "d1_factors", [2.5], "field.d1_factors"),
        ("tv", "eps_caps", [{"prime": "x", "eps_num": 1}], "tv.eps_caps[0]"),
        ("tv", "eps_caps", [{"prime": 2, "eps_num": "a"}], "tv.eps_caps[0]"),
        ("tv", "eps_caps", [{"prime": 2, "eps_num": NAN}], "tv.eps_caps[0]"),
        ("tv", "b_deduction_nums", ["a", 1], "tv.b_deduction_nums"),
        (None, "g_override", 0, "g_override"),
        ("tv", "x1_num", INF, "tv.x1_num"),
        ("tv", "x1_num", True, "tv.x1_num"),
        (None, "epsilon_linear", INF, "epsilon_linear"),
        (None, "coarse_B", NAN, "coarse_B"),
        (None, "S_norms", [1], "S_norms"),
        ("tv", "excluded", [1], "tv.excluded[0]"),
        ("tv", "sigma_fixed", [{"q": 6, "num": 1}], "tv.sigma_fixed[0]"),
        (None, "ray_sigma", {"norms": [4]}, "ray_sigma"),
        (None, "ray_sigma", {"norms": [7], "split_completely": "no"}, "ray_sigma"),
        ("tv", "eps_caps", [{"prime": 2, "eps_num": -2}], "tv.eps_caps[0]"),
        # one unknown key per object
        (None, "g_overide", 1.5, "g_overide"),
        (None, "C0", 2.0, "C0"),
        ("field", "d3_factors", [5], "field.d3_factors"),
        (None, "field", {"type": "quadratic", "radicand_factors": [5], "d1_factors": [2]}, "field.d1_factors"),
        ("T", "decc", [7], "T.decc"),
        ("tv", "excludd", [9], "tv.excludd"),
        ("tv", "sigma_fixed", [{"q": 9, "num": 1, "nums": 2}], "tv.sigma_fixed[0].nums"),
        ("tv", "eps_caps", [{"prime": 2, "eps_num": 1, "eps": 1}], "tv.eps_caps[0].eps"),
        ("tv", "capacity_overrides", [{"prime": 7, "norm": 7, "weight_num": 1, "weight": 1}],
         "tv.capacity_overrides[0].weight"),
        # each prime or prime power at most once per list
        ("T", "dec", [7, 11, 7], "T.dec[2]"),
        ("T", "inert", [3, 3], "T.inert[1]"),
        ("tv", "excluded", [9, 9], "tv.excluded[1]"),
        ("tv", "sigma_fixed", [{"q": 9, "num": 1}, {"q": 9, "num": 1}], "tv.sigma_fixed[1].q"),
        ("tv", "eps_caps", [{"prime": 2, "eps_num": 1}, {"prime": 2, "eps_num": 2}], "tv.eps_caps[1].prime"),
        ("tv", "capacity_overrides", [{"prime": 7, "norm": 7, "weight_num": 1},
                                      {"prime": 7, "norm": 49, "weight_num": 1}], "tv.capacity_overrides[1].prime"),
        # a splitting override's key is the prime as str(int(key)) writes it
        ("tv", "splitting_overrides", {"89": "inert", "089": "split"}, "tv.splitting_overrides.089"),
        # a negative factor is -1 times a prime
        (None, "field", {"type": "quadratic", "radicand_factors": [-4]}, "field"),
        (None, "field", {"type": "quadratic", "radicand_factors": [-6]}, "field"),
        (None, "field", {"type": "quadratic", "radicand_factors": [-9]}, "field"),
        # integers tested for primality are below 2^64
        (None, "p", 2**64 + 13, "p"),
        ("field", "d2_factors", [-1, 3, -(2**64 + 13)], "field.d2_factors[2]"),
        ("T", "dec", [7, 2**4423 - 1], "T.dec[1]"),
        ("T", "inert", [2**64 + 13], "T.inert[0]"),
        ("tv", "excluded", [2**64 + 13], "tv.excluded[0]"),
        ("tv", "sigma_fixed", [{"q": (2**64 + 13) ** 2, "num": 1}], "tv.sigma_fixed[0].q"),
        ("tv", "eps_caps", [{"prime": 2**64 + 13, "eps_num": 1}], "tv.eps_caps[0].prime"),
        ("tv", "capacity_overrides", [{"prime": 2**64 + 13, "norm": 2**64 + 13, "weight_num": 1}],
         "tv.capacity_overrides[0].prime"),
        ("tv", "splitting_overrides", {str(2**64 + 13): "split"}, f"tv.splitting_overrides.{2**64 + 13}"),
        # r1 and r2 are integers >= 0 that convert to float
        (None, "alpha_signature", [10**400, 0], "alpha_signature"),
        (None, "alpha_signature", [2, 1.0], "alpha_signature"),
        (None, "alpha_signature", [2, -1], "alpha_signature"),
    ],
)
def test_malformed_input_names_its_location(section, key, value, location):
    data = copy.deepcopy(MINIMAL)
    (data[section] if section else data)[key] = value
    with pytest.raises(SchemaError) as err:
        parse_scenario(data)
    assert err.value.location == location


def test_primality_inputs_past_2_64_fail_before_any_test():
    # is_prime takes seconds on a Mersenne prime of 1,332 digits
    data = copy.deepcopy(MINIMAL)
    data["T"]["dec"] = [2**4423 - 1]
    start = time.perf_counter()
    with pytest.raises(SchemaError, match="below 2\\^64") as err:
        parse_scenario(data)
    assert time.perf_counter() - start < 1.0
    assert err.value.location == "T.dec[0]"
    # the largest prime below the bound is tested, and parses
    data["T"]["dec"] = [2**64 - 59]
    assert parse_scenario(data).t_dec == [2**64 - 59]


def _key_paths(obj: dict, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


_DELETE = object()
_SPECIAL = [_DELETE, None, True, False, NAN, INF, -INF, 10**400, 1e308, 0, -1, "", "x", [], {}]
_JUNK = st.one_of(
    st.sampled_from(_SPECIAL),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.one_of(st.booleans(), st.integers(-60, 60), st.floats(), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-5, 5), max_size=2),
)


def _mutated(mutations) -> dict:
    data = copy.deepcopy(MINIMAL)
    for path, value in mutations:
        parent = data
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue
        if value is _DELETE:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = value
    return data


def _parses_or_schema_error(data: dict) -> None:
    try:
        parse_scenario(data)
    except SchemaError:
        pass


def test_every_key_swap_raises_only_schema_error():
    """Each special value, deletion included, on each key of MINIMAL alone."""
    for path in _key_paths(MINIMAL):
        for value in _SPECIAL:
            _parses_or_schema_error(_mutated([(path, value)]))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(_key_paths(MINIMAL))), _JUNK), min_size=1, max_size=3))
def test_parse_scenario_fuzz_raises_only_schema_error(mutations):
    """Type swaps, deleted keys, nan/inf and bools on every key of MINIMAL."""
    _parses_or_schema_error(_mutated(mutations))


def _shipped_inputs():
    """The packaged scenarios, the README's minimal example and perfbench's
    scenario-deep inputs (each base at each golden point)."""
    for name in PACKAGED:
        yield name, _packaged(name)
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text(encoding="utf-8").split("## Scenario files", 1)[1]
    yield "README", json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    spec = importlib.util.spec_from_file_location("perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for base in workloads.DEEP_BASES:
        for i, _ in enumerate(workloads.golden("scenario_deep")["bases"][base]["points"]):
            yield f"deep {base}/{i}", workloads.deep_input({"base": base, "point": i})


def test_every_shipped_input_passes_the_closed_schema():
    shipped = dict(_shipped_inputs())
    assert len(shipped) == len(PACKAGED) + 1 + 5 * 32
    for name, data in shipped.items():
        try:
            parse_scenario(data)
        except SchemaError as exc:
            pytest.fail(f"{name}: {exc}")


def test_report_bytes_do_not_depend_on_what_ran_before(monkeypatch, tmp_path):
    """The per-process prime table and coefficient tables change no byte:
    the packaged scenarios and some scenario-deep inputs, dumped from empty
    tables forward, then backward in the same process, and each alone in a
    fresh process, give the same text."""
    shipped = dict(_shipped_inputs())
    names = [*PACKAGED, "deep example1/0", "deep example2/31", "deep example4/9", "deep intro/20"]
    monkeypatch.setattr(arith, "_odd_flags", bytearray())
    monkeypatch.setattr(tv, "_A_OF", {})
    monkeypatch.setattr(tv, "_B_OF", {})

    def dump(name):
        return dump_report(run_scenario_data(copy.deepcopy(shipped[name])))

    forward = [dump(name) for name in names]
    assert [dump(name) for name in reversed(names)] == forward[::-1]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = "import sys\nfrom meanexp import scenario\n" \
             "sys.stdout.write(scenario.dump_report(scenario.run_scenario(sys.argv[1])))"
    for name, text in zip(names, forward):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(shipped[name]), encoding="utf-8")
        alone = subprocess.run([sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True,
                               timeout=120, check=True)
        assert alone.stdout == text, name


def test_scenario_binds_the_writer():
    # scenario.dump_report and scenario.PrefixRows stay public names
    assert scenario_module.dump_report is dump_report
    assert scenario_module.PrefixRows is PrefixRows
