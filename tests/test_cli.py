import contextlib
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanexp import cli, propgroups, scenario


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


def test_packaged_examples_come_from_the_loaded_package(tmp_path, monkeypatch):
    # a copy of the package under another name reads its own scenario files
    alias = "meanexp_copy_under_test"
    shutil.copytree(Path(cli.__file__).parent, tmp_path / alias, ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / alias / "scenarios" / "intro.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["label"] = "the copy's intro"
    path.write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        copy_cli = importlib.import_module(f"{alias}.cli")
        assert copy_cli.run_packaged_example("intro")["label"] == "the copy's intro"
    finally:
        for name in [name for name in sys.modules if name.partition(".")[0] == alias]:
            del sys.modules[name]
    assert cli.run_packaged_example("intro")["label"] == "introduction-compositum"


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
    # files json.load cannot read: not UTF-8, an int past Python's int-to-str
    # digit limit, and arrays nested past the recursion limit
    unreadable = {"latin1.json": b'{"label": "\xe9"}', "digits.json": b'{"p": ' + b"7" * 5000 + b"}",
                  "nested.json": b"[" * 100_000 + b"]" * 100_000}
    for name, data in unreadable.items():
        (tmp_path / name).write_bytes(data)
    for argv, location in [
        (["tv-bound", "--scenario", str(path)], "g_override"),
        *[(["tv-bound", "--scenario", str(tmp_path / name)], str(tmp_path / name)) for name in unreadable],
        (["mean-exponent", "--shape", "p:x"], "--shape"),
        (["propgroup", "ranks", "--d", "4", "--r", "4", "--degrees", "2,x"], "--degrees"),
        (["genus-bound", "--rho", "-1", "--r1", "2", "--r2", "0", "--delta", "1", "--json"], "rho must"),
        (["genus-bound", "--rho", "6", "--r1", "-2", "--r2", "0", "--delta", "1", "--json"], "r1 must"),
        (["genus-bound", "--rho", "6", "--r1", "1", "--r2", "-1", "--delta", "1"], "r2 must"),
        (["genus-bound", "--rho", "6", "--r1", "0", "--r2", "0", "--delta", "1"], "r1 + r2 must"),
        (["critere", "--rho", "8", "--t-dec", "0", "--t-total", "-1"], "t_total must"),
        (["critere", "--rho", "8", "--t-dec", "-1", "--t-total", "1"], "t_dec must"),
        (["critere", "--rho", "-1", "--t-dec", "0", "--t-total", "1"], "rho must"),
    ]:
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert location in err and "Traceback" not in err


@pytest.mark.parametrize("key, doubled", [
    # json.load alone keeps the later value: example 2's refined bound would read 18.1959, not 9.0979
    ("epsilon_linear", lambda text: text.rstrip()[:-1] + ', "epsilon_linear": 11}'),
    ("x1_num", lambda text: text.replace('"x1_num": 2,', '"x1_num": 2, "x1_num": 3,', 1)),
], ids=["top", "tv"])
def test_scenario_key_given_twice_exits_2(tmp_path, capsys, key, doubled):
    path = tmp_path / "twice.json"
    text = (Path(scenario.__file__).parent / "scenarios" / "example2.json").read_text(encoding="utf-8")
    path.write_text(doubled(text), encoding="utf-8")
    code, out, err = run_cli(["tv-bound", "--scenario", str(path)], capsys)
    assert code == 2 and out == ""
    assert str(path) in err and repr(key) in err and "Traceback" not in err


@pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
def test_closed_output_pipe_exits_141_without_traceback(mode):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # about 2.5 MB of output, far more than a pipe buffers, so the writer
    # is still writing when the reader closes its end after 10 bytes
    argv = ["propgroup", "ranks", "--d", "4", "--r", "4", "--p", "3", "--N", "3000", *mode]
    proc = subprocess.Popen([sys.executable, "-m", "meanexp.cli", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_PIPE == 141
    assert head == (b'{\n  "b": [' if mode else b"b: [4, 2, ") and err == b""


def test_negative_precision_exits_2(capsys):
    for argv in (["mean-exponent", "--shape", "p:2,exps:3,1", "--json", "--precision", "-1"],
                 ["--precision", "-1", "paper-example", "2", "--json"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert "--precision" in err and "Traceback" not in err
    code, out, _ = run_cli(["mean-exponent", "--shape", "p:2,exps:3,1", "--json", "--precision", "0"], capsys)
    assert code == 0 and json.loads(out)["mean_exponent"] == 2.0


def _rounded(obj, places: int):
    if isinstance(obj, float):
        return round(obj, places)
    if isinstance(obj, dict):
        return {k: _rounded(v, places) for k, v in obj.items()}
    if isinstance(obj, (list, scenario.PrefixRows)):
        return [_rounded(v, places) for v in obj]
    return obj


@pytest.mark.parametrize(
    "argv",
    [
        ["mean-exponent", "--shape", "p:2,exps:3,1"],
        ["genus-bound", "--rho", "6", "--r1", "1", "--r2", "0", "--delta", "1"],
        ["gs-check", "--d", "16", "--r-upper", "48"],
        ["critere", "--rho", "8", "--t-dec", "0", "--t-total", "1"],
        ["propgroup", "series", "--d", "4", "--r", "4", "--N", "6"],
        ["propgroup", "ranks", "--d", "4", "--r", "4", "--p", "3", "--N", "8"],
        # rows up to n = 11 are exact, those above in the float-log regime
        ["propgroup", "witnesses", "--d", "4", "--r", "4", "--p", "3", "--N", "14", "--eps", "0.5"],
        ["oracle", "class-group", "--disc", "-4620"],
        ["paper-example", "2", "--precision", "4"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_json_output_bytes_match_indented_json(argv, capsys):
    args = cli.build_parser().parse_args(argv)
    payload = args.func(args)
    if args.precision is not None:
        payload = _rounded(payload, args.precision)
    code, out, _ = run_cli(argv + ["--json"], capsys)
    assert code == 0
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ranks", "--d", "1", "--r", "1", "--p", "2", "--N", "4"],
         "coefficient c_3 = -1 < 0: relations too heavy for d = 1"),
        (["ranks", "--d", "4", "--r", "4", "--p", "3", "--N", "-1"], "order must be nonnegative"),
        (["series", "--d", "4", "--r", "4", "--N", "-1"], "order must be nonnegative"),
        (["witnesses", "--d", "4", "--r", "4", "--p", "3", "--N", "-3", "--json"], "n_max must be nonnegative, got -3"),
        (["witnesses", "--d", "4", "--r", "4", "--p", "3", "--N", "-1"], "n_max must be nonnegative, got -1"),
        (["witnesses", "--d", "1", "--r", "1", "--p", "2", "--N", "3"],
         "coefficient c_3 = -1 < 0: relations too heavy for d = 1"),
        (["witnesses", "--d", "4", "--r", "3", "--p", "3", "--degrees", "2,3,5", "--N", "12"],
         "float regime needs quadratic relations"),
    ],
    ids=lambda x: " ".join(x[:1]) if isinstance(x, list) else None,
)
def test_propgroup_error_messages(argv, message, capsys):
    code, out, err = run_cli(["propgroup", *argv], capsys)
    assert (code, out, err) == (2, "", f"meanexp: error: {message}\n")


def test_witnesses_at_n_zero_scan_nothing(capsys):
    code, out, err = run_cli(["propgroup", "witnesses", "--d", "4", "--r", "4", "--p", "3", "--N", "0", "--json"], capsys)
    assert (code, err) == (0, "") and json.loads(out)["rows"] == []


@pytest.mark.parametrize("mode, limit", sorted(cli.PROPGROUP_N_MAX.items()))
def test_propgroup_n_past_its_maximum_exits_2(mode, limit, capsys):
    # rejected before any series or rank is computed
    for n in (limit + 1, 200_000, 2_000_000, 2**1024):
        code, out, err = run_cli(["propgroup", mode, "--d", "4", "--r", "4", "--p", "3", "--N", str(n)], capsys)
        assert (code, out) == (2, "")
        assert err == f"meanexp: invalid input: --N: expected at most {limit} for {mode}, got {n}\n"


def test_propgroup_n_at_its_maximum_runs(capsys):
    # 1/(1 - T) = prod_k (1 + T^(2^k)): slow growth keeps the integers small
    for mode in ("series", "ranks"):
        argv = ["propgroup", mode, "--d", "1", "--r", "0", "--N", str(cli.PROPGROUP_N_MAX[mode]), "--json"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
    assert [i for i, b in enumerate(json.loads(out)["b"], 1) if b] == [2**k for k in range(14)]


def test_witness_d_and_r_past_their_maximum_exit_2(capsys, monkeypatch):
    # rejected before any rank is computed
    monkeypatch.setattr(propgroups, "gs_ranks", None)
    exp = cli.WITNESS_D_EXP
    for flag, limit, text in (("--d", cli.WITNESS_D_MAX, f"10^{exp}"), ("--r", cli.WITNESS_D_MAX**2, f"10^{2 * exp}")):
        for value in (limit + 1, 10**200, 10**4000):
            flags = {"--d": "4", "--r": "4", "--p": "3", "--N": "11", flag: str(value)}
            code, out, err = run_cli(["propgroup", "witnesses", *(t for item in flags.items() for t in item)], capsys)
            assert (code, out) == (2, "")
            assert err == f"meanexp: invalid input: {flag}: expected at most {text} for witnesses, got {value}\n"


_MERSENNE_4423 = 2**4423 - 1  # prime, 1,332 digits: is_prime takes seconds on it


@pytest.mark.parametrize("argv, flag", [
    (["propgroup", "ranks", "--d", "4", "--r", "4", "--p", str(_MERSENNE_4423), "--N", "4"], "--p"),
    (["propgroup", "series", "--d", "4", "--r", "4", "--p", str(-(2**64)), "--N", "4"], "--p"),
    (["mean-exponent", "--shape", f"p:{_MERSENNE_4423},exps:3,1"], "--shape"),
    (["mean-exponent", "--shape", f"p:{2**64 + 13},exps:2"], "--shape"),
], ids=["propgroup-mersenne", "propgroup-negative", "shape-mersenne", "shape-past-2-64"])
def test_prime_flag_past_2_64_exits_2_before_any_test(argv, flag, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"meanexp: invalid input: {flag}: integers tested for primality must be below 2^64 in absolute value\n"


def test_prime_flag_just_below_2_64_is_tested(capsys):
    p = 2**64 - 59  # the largest prime below 2^64
    code, out, _ = run_cli(["propgroup", "ranks", "--d", "4", "--r", "4", "--p", str(p), "--N", "4", "--json"], capsys)
    assert code == 0 and json.loads(out)["p"] == p
    code, out, _ = run_cli(["mean-exponent", "--shape", f"p:{p},exps:3,1", "--json"], capsys)
    assert code == 0 and json.loads(out)["shape"]["p"] == p
    code, _, err = run_cli(["mean-exponent", "--shape", f"p:{2**64 - 1},exps:3,1"], capsys)
    assert (code, err) == (2, f"meanexp: invalid input: --shape: {2**64 - 1} is not prime\n")


@pytest.mark.parametrize("p", [4, 1, -3])
def test_prime_flag_that_is_not_prime_exits_2_naming_it(p, capsys):
    for argv, flag in ((["propgroup", "ranks", "--d", "4", "--r", "4", "--p", str(p), "--N", "4"], "--p"),
                       (["mean-exponent", "--shape", f"p:{p},exps:3,1"], "--shape")):
        assert run_cli(argv, capsys) == (2, "", f"meanexp: invalid input: {flag}: {p} is not prime\n")


def test_alpha_signature_past_float_exits_2_without_traceback(tmp_path, capsys):
    path = tmp_path / "signature.json"
    data = json.loads((Path(scenario.__file__).parent / "scenarios" / "example1.json").read_text(encoding="utf-8"))
    data["alpha_signature"] = [10**400, 0]
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(["tv-bound", "--scenario", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("meanexp: invalid input: alpha_signature: ") and "Traceback" not in err


def test_witness_r_at_its_maximum_runs(capsys):
    # r = d^2 at the maximum: c_2 = 0, and c_3 = -d*r is the first negative coefficient
    d, r = cli.WITNESS_D_MAX, cli.WITNESS_D_MAX**2
    code, out, err = run_cli(["propgroup", "witnesses", "--d", str(d), "--r", str(r), "--p", "3", "--N", "3"], capsys)
    assert (code, out) == (2, "")
    assert err == f"meanexp: error: coefficient c_3 = {-d * r} < 0: relations too heavy for d = {d}\n"


def test_heavy_presentation_fails_before_any_power_sum(capsys, monkeypatch):
    # c_2 = d^2 - r < 0: the first series terms reject the presentation
    # before the rank core builds its power sums (4,095 of them at --N 11)
    def rank_core(*_args):
        raise AssertionError("the rank core ran")

    monkeypatch.setattr(propgroups, "_ranks_from_inverse", rank_core)
    r = 10**40
    code, out, err = run_cli(["propgroup", "witnesses", "--d", "1", "--r", str(r), "--p", "3", "--N", "11"], capsys)
    assert (code, out) == (2, "")
    assert err == f"meanexp: error: coefficient c_2 = {1 - r} < 0: relations too heavy for d = 1\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit before 3.11")
@pytest.mark.parametrize("mode, what", [("series", "series coefficient"), ("ranks", "rank")])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_int_past_the_str_digit_limit_exits_2(mode, what, json_flag, capsys):
    # d = 5, r = 1: the coefficients pass 4,300 digits between N = 6,000 and 7,000
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(["propgroup", mode, "--d", "5", "--r", "1", "--N", "7000", *json_flag], capsys)
    assert (code, out) == (2, "")
    assert err == (f"meanexp: invalid input: --N: a {what} has more than {limit} decimal digits, "
                   "Python's int-to-str limit; lower --N or --d\n")
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit before 3.11")
def test_printable_rejects_exactly_the_values_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    # 3 * limit bits stay below 8^limit; the largest values of limit digits
    # are longer and take the exact comparison
    ok = [0, (1 << 3 * limit) - 1, -(1 << 3 * limit), 10**limit - 1, -(10**limit - 1)]
    assert cli._printable(iter(ok), "rank") == ok
    assert cli._printable([], "rank") == []
    for bad in (10**limit, -(10**limit), 1 << 4 * limit):
        with pytest.raises(cli.SchemaError) as err:
            cli._printable([1, bad, 2], "rank")
        assert err.value.location == "--N"
        assert str(err.value).startswith(f"--N: a rank has more than {limit} decimal digits")


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of cli.main, usage errors included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


_INTERLEAVED = [
    ["gs-check", "--d", "16", "--r-upper", "48", "--json"],
    ["frobnicate"],
    ["--precision", "4", "paper-example", "2", "--json"],
    ["gs-check", "--d", "x", "--r-upper", "48"],
    ["paper-example", "2", "--json", "--precision", "4"],
    ["--precision", "2", "frobnicate"],
    [],
    ["mean-exponent", "--shape", "p:2,exps:3,1"],
    ["critere", "--rho", "8"],
    ["--json", "mean-exponent", "--shape", "p:2,exps:3,1"],
    ["paper-example", "2"],
    ["propgroup", "ranks", "--d", "4", "--r", "4", "--p", "3", "--N", "8", "--precision", "3", "--json"],
    ["--precision", "-1", "paper-example", "2", "--json"],
    ["oracle", "class-group", "--disc", "-23"],
    ["propgroup", "nope", "--d", "4", "--r", "4"],
    ["genus-bound", "--rho", "6", "--r1", "1", "--r2", "0", "--delta", "1", "--json"],
]


def test_cached_parser_matches_fresh_parsers(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    cached = [_outcome(argv, capsys) for argv in _INTERLEAVED * 2]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_outcome(argv, capsys) for argv in _INTERLEAVED * 2]
    assert cached == fresh
    assert {code for code, _, _ in fresh} == {0, 2, 64}


# The numeric flags of every subcommand: negatives, 0, huge ints and
# non-numbers.  --N stays at most 8, so a witness scan reaches order 511 and
# no case holds more than a few MB, even with a 31-digit --d.  witnesses also
# draws --d and --r past their maxima, which it rejects before any work.
_HUGE = 10**30
_INT = st.one_of(
    st.integers(-4, 12).map(str),
    st.sampled_from([str(_HUGE), str(-_HUGE), str(2**63), "x", "1.5", "", "1e3"]),
)
_SMALL_N = st.one_of(st.integers(-3, 8).map(str), st.sampled_from([str(_HUGE), str(-_HUGE), "x", "1.5"]))
_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e309", "x", ""]),
)
_DEGREES = st.lists(_INT, max_size=3).map(",".join)
_DISC = st.one_of(st.integers(-(10**6), 10**6).map(str), _INT)
_SHAPE = st.tuples(_INT, _INT, _INT).map(lambda t: "p:{},exps:{},{}".format(*t))
_GS = {"--d": _INT, "--r": _INT, "--p": _INT, "--N": _SMALL_N, "--degrees": _DEGREES}
_NUMERIC_FLAGS = {
    ("mean-exponent",): {"--shape": _SHAPE},
    ("genus-bound",): {"--rho": _INT, "--r1": _INT, "--r2": _INT, "--delta": _INT},
    ("gs-check",): {"--d": _INT, "--r-upper": _INT},
    ("critere",): {"--rho": _INT, "--t-dec": _INT, "--t-total": _INT},
    ("propgroup", "series"): _GS,
    ("propgroup", "ranks"): _GS,
    ("propgroup", "witnesses"): {
        **_GS,
        "--d": st.one_of(_INT, st.sampled_from([str(cli.WITNESS_D_MAX + 1), str(10**200)])),
        "--r": st.one_of(_INT, st.sampled_from([str(cli.WITNESS_D_MAX**2 + 1), str(10**400)])),
        "--eps": _FLOAT,
    },
    ("oracle", "class-group"): {"--disc": _DISC},
}


def _count_exit(command: str, values: dict) -> int:
    """The exit code genus-bound and critere must give for these flag values;
    a --precision, when given, must be a nonnegative integer as well."""
    counts = {flag: int(text) for flag, text in values.items() if re.fullmatch(r"-?[0-9]+", text)}
    if len(counts) < len(values) or min(counts.values()) < 0:
        return 2
    if command == "genus-bound":
        return 2 if counts["--r1"] + counts["--r2"] == 0 or counts["--delta"] not in (0, 1) else 0
    return 2 if counts["--t-dec"] > counts["--t-total"] else 0


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_numeric_flags_exit_documented_codes(data):
    command = data.draw(st.sampled_from(sorted(_NUMERIC_FLAGS)))
    flags = dict(_NUMERIC_FLAGS[command])
    if data.draw(st.booleans(), label="with --precision"):
        flags["--precision"] = _INT
    values = {flag: data.draw(strategy, label=flag) for flag, strategy in flags.items()}
    argv = [*command, *(token for item in values.items() for token in item), "--json"]
    err = io.StringIO()
    parsed = False
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
            parsed = True
        except SystemExit as exc:  # argparse rejects a value its type cannot read
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if command[0] in ("genus-bound", "critere"):
        assert code == _count_exit(command[0], values), (argv, err.getvalue())
    if command == ("propgroup", "witnesses"):
        past = [flag for flag, most in (("--d", cli.WITNESS_D_MAX), ("--r", cli.WITNESS_D_MAX**2))
                if re.fullmatch(r"[0-9]+", values[flag]) and int(values[flag]) > most]
        if past:
            assert code == 2, (argv, err.getvalue())
        # once the flags parse and --precision and --N pass, the first flag
        # past its maximum is named
        if past and parsed and (
            int(values.get("--precision", "0")) >= 0 and int(values["--N"]) <= propgroups.WITNESS_N_MAX
        ):
            assert err.getvalue().startswith(f"meanexp: invalid input: {past[0]}: expected at most"), argv


@pytest.mark.parametrize("mode", ["series", "ranks", "witnesses"])
def test_propgroup_reads_a_relation_count_of_any_size(mode, capsys):
    # without --degrees the r quadratic relations are a count, never a list of r degrees
    d, r = 10**20, 10**30
    code, out, err = run_cli(["propgroup", mode, "--d", str(d), "--r", str(r), "--p", "3", "--N", "3", "--json"], capsys)
    assert code == 0 and err == ""
    if mode == "series":
        # 1 / (1 - dT + rT^2) = 1 + dT + (d^2 - r)T^2 + (d^3 - 2dr)T^3 + ...
        assert json.loads(out)["coeffs"] == [1, d, d * d - r, d**3 - 2 * d * r]


def test_propgroup_n_maxima_in_help_and_errors(capsys):
    # the witness maximum is defined once, where cli reads it without
    # importing propgroups; the help text and both error paths agree on it
    with pytest.raises(SystemExit) as exc:
        cli.main(["propgroup", "--help"])
    out, _ = capsys.readouterr()
    assert exc.value.code == 0
    assert ("order (series, ranks; at most 10000) or last n of the scan (witnesses; at most 1022)"
            in " ".join(out.split()))
    code, out, err = run_cli(["propgroup", "witnesses", "--d", "4", "--r", "4", "--N", "1023"], capsys)
    assert (code, out) == (2, "")
    assert err == "meanexp: invalid input: --N: expected at most 1022 for witnesses, got 1023\n"
    with pytest.raises(propgroups.DomainError, match="n_max must be at most 1022, got 1023"):
        propgroups.theo2_witnesses(propgroups.GSGroupParams(d=4, r=4, p=3), 0.5, 1023)


def _loaded_modules(code: str) -> set[str]:
    """The package's modules a fresh interpreter holds after running code."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (f"import sys\n{code}\n"
              "print(*sorted(name for name in sys.modules if name.partition('.')[0] == 'meanexp'))")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
                          check=True)
    return set(proc.stdout.split())


def test_importing_the_cli_loads_only_its_frame():
    assert _loaded_modules("import meanexp.cli") == {"meanexp", "meanexp.cli", "meanexp.errors", "meanexp.report"}


_PIPELINE = ("scenario", "fields", "tv", "towers")


@pytest.mark.parametrize(
    "argv, module, absent",
    [
        (["mean-exponent", "--shape", "p:2,exps:3,1"], "groups", (*_PIPELINE, "propgroups", "oracle")),
        (["genus-bound", "--rho", "6", "--r1", "1", "--r2", "0", "--delta", "1"], "towers",
         ("scenario", "fields", "tv", "propgroups", "oracle", "groups")),
        (["gs-check", "--d", "16", "--r-upper", "48"], "towers", ("scenario", "propgroups", "oracle", "groups")),
        (["critere", "--rho", "8", "--t-dec", "0", "--t-total", "1"], "towers",
         ("scenario", "propgroups", "oracle", "groups")),
        (["propgroup", "ranks", "--d", "4", "--r", "4", "--p", "3", "--N", "8", "--json"], "propgroups",
         (*_PIPELINE, "oracle", "groups")),
        (["propgroup", "witnesses", "--d", "4", "--r", "4", "--p", "3", "--N", "6"], "propgroups",
         (*_PIPELINE, "oracle", "groups")),
        (["oracle", "class-group", "--disc", "-4620", "--json"], "oracle", (*_PIPELINE, "propgroups")),
        (["paper-example", "2", "--json"], "scenario", ("propgroups", "oracle", "groups")),
    ],
    ids=["mean-exponent", "genus-bound", "gs-check", "critere", "propgroup-ranks", "propgroup-witnesses", "oracle",
         "paper-example"],
)
def test_a_subcommand_loads_only_its_own_module(argv, module, absent):
    """A CLI process loads the CLI's frame plus its subcommand's module and
    what that module imports, and no other subcommand's module."""
    ran = _loaded_modules(
        "import contextlib, io\nfrom meanexp import cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main({argv!r}) == 0")
    assert ran == _loaded_modules(f"import meanexp.cli, meanexp.{module}")
    assert not ran & {f"meanexp.{name}" for name in absent}


# every subcommand, the rounding writer among them
_EVERY_SUBCOMMAND = [
    ["mean-exponent", "--shape", "p:2,exps:3,1"],
    ["genus-bound", "--rho", "6", "--r1", "1", "--r2", "0", "--delta", "1"],
    ["gs-check", "--d", "16", "--r-upper", "48"],
    ["critere", "--rho", "8", "--t-dec", "0", "--t-total", "1"],
    ["tv-bound", "--scenario", str(Path(scenario.__file__).parent / "scenarios" / "example2.json")],
    ["paper-example", "2", "--json", "--precision", "4"],
    ["propgroup", "series", "--d", "4", "--r", "4", "--N", "8"],
    ["propgroup", "ranks", "--d", "4", "--r", "4", "--p", "3", "--N", "8"],
    ["propgroup", "witnesses", "--d", "4", "--r", "4", "--p", "3", "--N", "6", "--eps", "0.5"],
    ["oracle", "class-group", "--disc", "-4620", "--json"],
]


def test_no_module_or_subcommand_loads_dataclasses_or_inspect():
    """The records are plain classes, so `dataclasses` and the `inspect` it
    imports stay out of every process.  One fresh interpreter imports each
    module, then runs each subcommand in process; sys.modules only grows,
    so each step is checked against what the steps before it left."""
    names = sorted(path.stem for path in Path(cli.__file__).parent.glob("*.py") if path.stem != "__init__")
    steps = [(f"import meanexp.{name}", name) for name in names]
    steps += [(f"with contextlib.redirect_stdout(io.StringIO()):\n    assert meanexp.cli.main({argv!r}) == 0",
               " ".join(argv)) for argv in _EVERY_SUBCOMMAND]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = "import contextlib, io, sys\n" + "".join(
        f"{step}\nprint({label!r}, *sorted({{'dataclasses', 'inspect'}} & set(sys.modules)), sep='|')\n"
        for step, label in steps)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
                          check=True)
    assert proc.stdout.splitlines() == [label for _, label in steps]
