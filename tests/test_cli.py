import json

from meanexp import cli


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_unknown_subcommand(capsys):
    code, _out, err = run_cli(["frobnicate"], capsys)
    assert code == cli.EXIT_USAGE == 64
    assert "unknown subcommand" in err
    code, _out, err = run_cli(["--precision", "4", "frobnicate"], capsys)
    assert code == 64
    assert "unknown subcommand" in err


def test_global_flags_before_subcommand(capsys):
    code_first, first, _ = run_cli(["--precision", "4", "paper-example", "2", "--json"], capsys)
    code_last, last, _ = run_cli(["paper-example", "2", "--json", "--precision", "4"], capsys)
    assert code_first == code_last == 0
    assert first == last


def test_no_subcommand_prints_help(capsys):
    code, out, _err = run_cli([], capsys)
    assert code == 64
    assert "usage" in out.lower()


def test_mean_exponent(capsys):
    code, out, _ = run_cli(["mean-exponent", "--shape", "p:2,exps:1,1,1", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["mean_exponent"] == 1
    # flag placement before the subcommand works too
    code, out2, _ = run_cli(["--json", "mean-exponent", "--shape", "p:2,exps:1,1,1"], capsys)
    assert code == 0 and json.loads(out2) == data


def test_mean_exponent_trivial_group(capsys):
    code, out, _ = run_cli(["mean-exponent", "--shape", "p:3,exps:", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["mean_exponent"] == 0


def test_bad_shape_is_schema_error(capsys):
    code, _, err = run_cli(["mean-exponent", "--shape", "zebra"], capsys)
    assert code == 2
    assert "shape" in err


def test_genus_bound(capsys):
    code, out, _ = run_cli(["genus-bound", "--rho", "6", "--r1", "1", "--r2", "0", "--delta", "1", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["bound"] == 4


def test_gs_check(capsys):
    code, out, _ = run_cli(["gs-check", "--d", "16", "--r-upper", "48", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "must_be_infinite"


def test_critere(capsys):
    code, out, _ = run_cli(["critere", "--rho", "8", "--t-dec", "0", "--t-total", "1", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["tower_infinite"] is True


def test_paper_example_json_contains_pins(capsys):
    code, out, _ = run_cli(["paper-example", "2", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["tv"]["ell_star_0"] == 3877
    assert data["pinned_inputs"]["splitting_overrides"] == {"89": "inert"}
    assert data["published_reference"]["ell_star_0"] == 3877


def test_paper_example_intro(capsys):
    code, out, _ = run_cli(["paper-example", "intro", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["label"] == "introduction-compositum"


def test_paper_example_unknown(capsys):
    code, _, err = run_cli(["paper-example", "9"], capsys)
    assert code == 2
    assert "unknown example" in err


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(["paper-example", "1", "--json"], capsys)
    _, out2, _ = run_cli(["paper-example", "1", "--json"], capsys)
    assert out1 == out2


def test_tv_bound_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1}', encoding="utf-8")
    code, _, err = run_cli(["tv-bound", "--scenario", str(bad)], capsys)
    assert code == 2
    assert "p" in err


def test_tv_bound_bad_capacity_override_exits_schema(tmp_path, capsys):
    doc = {
        "version": 1,
        "label": "bad-override",
        "p": 2,
        "field": {"type": "quadratic", "radicand_factors": [-1, 3]},
        "tv": {"x0_num": 0, "x1_num": 0, "capacity_overrides": [{"prime": 7, "norm": "x", "weight_num": 1}]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(["tv-bound", "--scenario", str(path)], capsys)
    assert code == 2
    assert "tv.capacity_overrides[0]" in err and "Traceback" not in err


def test_tv_bound_infeasible_exit(tmp_path, capsys):
    doc = {
        "version": 1,
        "label": "tiny",
        "p": 2,
        "field": {"type": "quadratic", "radicand_factors": [-1, 3]},
        "T": {"dec": [], "inert": []},
        "tv": {"x0_num": 0, "x1_num": 1, "norm_bound": 64},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(["tv-bound", "--scenario", str(path)], capsys)
    assert code == 3
    assert "infeasible" in err


def test_propgroup_series_and_ranks(capsys):
    code, out, _ = run_cli(["propgroup", "series", "--d", "4", "--r", "4", "--N", "4", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["coeffs"] == [1, 4, 12, 32, 80]
    code, out, _ = run_cli(["propgroup", "ranks", "--d", "4", "--r", "4", "--p", "3", "--N", "8", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["b"][:3] == [4, 2, 8]


def test_propgroup_witnesses(capsys):
    code, out, _ = run_cli(
        ["propgroup", "witnesses", "--d", "4", "--r", "4", "--p", "3", "--N", "6", "--eps", "0.5", "--json"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["gs_type"] is True
    assert len(data["rows"]) == 6
    assert {"n", "index_log", "window_rank", "rhs", "satisfied", "regime"} <= set(data["rows"][0])


def test_oracle_class_group(capsys):
    code, out, _ = run_cli(["oracle", "class-group", "--disc", "-23", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["h"] == 3
    assert data["structures"]["3"] == {"p": 3, "exps": [1]}
    assert data["mean_exponents"]["3"] == 1.0


def test_precision_flag(capsys):
    code, out, _ = run_cli(["paper-example", "1", "--json", "--precision", "4"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["tv"]["B_upper"] == round(data["tv"]["B_upper"], 4)


def test_text_output_default(capsys):
    code, out, _ = run_cli(["gs-check", "--d", "5", "--r-upper", "6"], capsys)
    assert code == 0
    assert "verdict: must_be_infinite" in out


def test_malformed_inputs_exit_2_without_traceback(tmp_path, capsys):
    doc = {
        "version": 1,
        "label": "zero-genus",
        "p": 2,
        "field": {"type": "quadratic", "radicand_factors": [-1, 3]},
        "g_override": 0,
        "tv": {"x0_num": 0, "x1_num": 1},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv, location in [
        (["tv-bound", "--scenario", str(path)], "g_override"),
        (["mean-exponent", "--shape", "p:x"], "--shape"),
        (["propgroup", "ranks", "--d", "4", "--r", "4", "--degrees", "2,x"], "--degrees"),
    ]:
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert location in err and "Traceback" not in err
