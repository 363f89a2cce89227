import copy
import hashlib
import json
import time
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanexp import tv
from meanexp.arith import PrimePower, sieve_primes
from meanexp.errors import InfeasibleProblemError, NeedsLargerEnumerationError, SchemaError
from meanexp.scenario import (
    _MAX_NORM_BOUND,
    _candidate_for_prime,
    _derived_sigma_fixed,
    build_candidates,
    candidate_stream,
    dump_report,
    parse_scenario,
    run_scenario_data,
    run_scenario_obj,
)

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


def _reference_fill(data: dict) -> dict:
    """The greedy fill by enumerate-then-double: every candidate up to the
    bound, a list fill, and a doubled bound whenever the list runs out."""
    sc = parse_scenario(data)
    g = sc.genus
    pairs = sc.sigma_fixed_pin
    if pairs is None:
        pairs = [(q, float(num)) for q, num, _src in _derived_sigma_fixed(sc)]
    problem = tv.TVProblem(
        x0=sc.x0_num / g, x1=sc.x1_num / g, fixed=tuple((PrimePower.from_value(q), num / g) for q, num in pairs)
    )
    b_ded = None
    if sc.b_deduction_nums is not None:
        b_ded = (sc.b_deduction_nums[0] / g, sc.b_deduction_nums[1] / g)
    closed = set(sc.t_dec) | set(sc.t_inert)
    cap_num = sc.x0_num + 2 * sc.x1_num
    bound = sc.norm_bound
    while True:
        infos = [_candidate_for_prime(sc, ell, cap_num, g) for ell in sieve_primes(bound) if ell not in closed]
        infos = sorted((ci for ci in infos if ci is not None and ci.norm <= bound), key=lambda ci: ci.norm)
        cands = [tv.Candidate(ci.prime, ci.norm, ci.weight_num / g) for ci in infos]
        try:
            sol = tv.optimize(problem, cands, b_deduction=b_ded)
            break
        except NeedsLargerEnumerationError:
            if bound >= _MAX_NORM_BOUND:
                raise
            bound = min(2 * bound, _MAX_NORM_BOUND)
    by_norm = {ci.norm: ci for ci in infos}
    return {
        "ell_star_0": None if sol.ell_star_0 is None else sol.ell_star_0.norm,
        "alpha": sol.alpha,
        "prefix": [
            {"norm": c.norm, "prime": by_norm[c.norm].prime, "weight_num": by_norm[c.norm].weight_num,
             "kind": by_norm[c.norm].kind, "pinned": by_norm[c.norm].pinned}
            for c in sol.prefix
        ],
        "B_upper": sol.B_upper,
        "norm_bound_used": bound,
    }


def _deep(base: str, x1_num: float) -> dict:
    """A packaged biquadratic base with T and sigma_fixed removed."""
    data = json.loads(resources.files("meanexp").joinpath("scenarios", f"{base}.json").read_text())
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


DEEP_CASES = [(base, x1) for base in ("example1", "example2", "example3", "example4", "intro") for x1 in (2, 1, 0.6)]


@pytest.mark.parametrize(
    "data",
    [_deep(base, x1) for base, x1 in DEEP_CASES] + [_minimal_with_pins()],
    ids=[f"{base}-{x1}" for base, x1 in DEEP_CASES] + ["minimal-pins"],
)
def test_stream_matches_enumerate_then_double(data):
    want = _reference_fill(data)
    got = run_scenario_data(copy.deepcopy(data))["tv"]
    assert {key: got[key] for key in want} == want


def test_candidate_stream_is_ascending_and_matches_prefix():
    sc = parse_scenario(_minimal_with_pins())
    stream = candidate_stream(sc)
    head = [next(stream) for _ in range(200)]
    norms = [ci.norm for ci in head]
    assert norms == sorted(set(norms))
    assert build_candidates(sc, norms[-1]) == head
    assert all(PrimePower.from_value(ci.norm).ell == ci.prime for ci in head)


def test_zero_cap_with_weighted_override_stops_fast():
    data = copy.deepcopy(MINIMAL)
    data["T"] = {"dec": [], "inert": []}
    data["tv"].update(x1_num=0, capacity_overrides=[{"prime": 7, "norm": 7, "weight_num": 1}])
    start = time.perf_counter()
    with pytest.raises(NeedsLargerEnumerationError):
        run_scenario_data(data)
    assert time.perf_counter() - start < 1.0


NAN, INF = float("nan"), float("inf")


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
        (None, "S_norms", [1], "S_norms[0]"),
        ("tv", "excluded", [1], "tv.excluded[0]"),
        ("tv", "sigma_fixed", [{"q": 6, "num": 1}], "tv.sigma_fixed[0]"),
        (None, "ray_sigma", {"norms": [4]}, "ray_sigma.norms[0]"),
    ],
)
def test_malformed_input_names_its_location(section, key, value, location):
    data = copy.deepcopy(MINIMAL)
    (data[section] if section else data)[key] = value
    with pytest.raises(SchemaError) as err:
        parse_scenario(data)
    assert err.value.location == location


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
