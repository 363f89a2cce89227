"""The summary of ``scripts/bench_pairs.py`` on synthetic runs."""

import importlib.util
import os
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

P50 = {"name": "req_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
RPS = {"name": "throughput_rps", "unit": "req/s", "better": "higher", "bound": 0.25}


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(metric: str, parent: list[float], change: list[float]) -> list[dict]:
    """One run per side and pair, pair i holding parent[i] and change[i]."""
    return [{"pair": i, "side": side, "result": {"metrics": {metric: {"value": value}}}}
            for i, pair in enumerate(zip(parent, change)) for side, value in zip(("parent", "change"), pair)]


@pytest.mark.parametrize(
    "metric, parent, change, verdict",
    [
        # a tight parent, the change 10 % slower: inside the 0.25 bound
        (P50, [10.0, 10.1, 9.9, 10.0, 10.2], [11.0, 11.1, 10.9, 11.0, 11.2], "within_bound"),
        # a tight parent, the change 40 % slower
        (P50, [10.0, 10.1, 9.9, 10.0, 10.2], [14.0, 14.1, 13.9, 14.0, 14.2], "worse"),
        # the same for a metric where higher is better
        (RPS, [100.0, 101.0, 99.0, 100.0, 102.0], [60.0, 61.0, 59.0, 60.0, 62.0], "worse"),
        (RPS, [100.0, 101.0, 99.0, 100.0, 102.0], [90.0, 91.0, 89.0, 90.0, 92.0], "within_bound"),
        # a parent whose interquartile range is 0.45 of its median cannot resolve 0.25
        (P50, [7.0, 10.0, 13.0, 10.0, 7.0, 13.0], [9.0, 12.0, 15.0, 12.0, 9.0, 15.0], "unresolved"),
        (P50, [7.0, 10.0, 13.0, 10.0, 7.0, 13.0], [20.0, 20.0, 20.0, 20.0, 20.0, 20.0], "unresolved"),
        # unless every change run beats every parent run
        (P50, [7.0, 10.0, 13.0, 10.0, 7.0, 13.0], [5.0, 6.0, 6.5, 6.0, 5.0, 6.5], "within_bound"),
    ],
)
def test_verdict_against_the_bound(bench_pairs, metric, parent, change, verdict):
    entry = bench_pairs.summarise(_runs(metric["name"], parent, change), [metric])[metric["name"]]
    assert entry["pairs"] == len(parent)
    assert entry["verdict"] == verdict


def test_incomplete_pairs_are_left_out(bench_pairs):
    runs = _runs("req_p50_ms", [10.0, 10.0, 10.0], [10.0, 10.0, 30.0])
    runs[-1]["result"] = None  # the last pair's change run gave no result
    entry = bench_pairs.summarise(runs, [P50])["req_p50_ms"]
    assert entry["pairs"] == 2 and entry["verdict"] == "within_bound"
    assert "verdict" not in bench_pairs.summarise([], [P50])["req_p50_ms"]


# a parent that drifts over 153-199 req/s within the run, the change 16 % faster in every pair
DRIFTING = [153.0, 199.0, 160.0, 192.0, 155.0, 197.0, 158.0, 195.0, 153.5, 198.0]


def test_paired_rule_sees_a_gain_through_host_drift(bench_pairs):
    entry = bench_pairs.summarise(_runs("throughput_rps", DRIFTING, [1.16 * v for v in DRIFTING]),
                                  [RPS])["throughput_rps"]
    assert entry["change_won_pairs"] == 10
    # the parent's interquartile range is wider than the gap of the medians
    assert entry["parent"]["iqr"] > entry["change"]["median"] - entry["parent"]["median"]
    assert entry["gain_rule_met"] is False
    assert entry["pair_ratio"]["median"] == pytest.approx(1.16)
    assert entry["pair_ratio"]["q1"] == pytest.approx(1.16)
    assert entry["paired_gain_rule_met"] is True
    # the same for a metric where lower is better
    latency = [1000.0 / v for v in DRIFTING]
    entry = bench_pairs.summarise(_runs("req_p50_ms", latency, [v / 1.16 for v in latency]), [P50])["req_p50_ms"]
    assert entry["gain_rule_met"] is False and entry["paired_gain_rule_met"] is True
    assert entry["pair_ratio"]["q3"] == pytest.approx(1 / 1.16)


@pytest.mark.parametrize("metric", [RPS, P50], ids=["higher", "lower"])
def test_paired_rule_fails_on_a_tie(bench_pairs, metric):
    entry = bench_pairs.summarise(_runs(metric["name"], DRIFTING, DRIFTING), [metric])[metric["name"]]
    assert entry["change_won_pairs"] == 0
    assert entry["pair_ratio"] == {"median": 1.0, "q1": 1.0, "q3": 1.0, "iqr": 0.0}
    assert entry["gain_rule_met"] is False and entry["paired_gain_rule_met"] is False


def test_paired_rule_counts_wins_and_needs_a_quartile(bench_pairs):
    parent = [100.0] * 10
    # nine wins of 1 % and one loss of 30 %: the first quartile of the ratios is still above 1
    entry = bench_pairs.summarise(_runs("throughput_rps", parent, [101.0] * 9 + [70.0]), [RPS])["throughput_rps"]
    assert entry["change_won_pairs"] == 9 and entry["pair_ratio"]["q1"] > 1
    assert entry["paired_gain_rule_met"] is True
    # eight wins are too few, however large
    entry = bench_pairs.summarise(_runs("throughput_rps", parent, [130.0] * 8 + [99.0] * 2), [RPS])["throughput_rps"]
    assert entry["change_won_pairs"] == 8 and entry["paired_gain_rule_met"] is False
    # one pair has no quartiles
    entry = bench_pairs.summarise(_runs("throughput_rps", [100.0], [150.0]), [RPS])["throughput_rps"]
    assert entry["pair_ratio"]["q1"] is None and entry["paired_gain_rule_met"] is False


def _process_runs(times: dict[str, tuple[list[float], list[float]]],
                  in_child: dict[str, tuple[list[float], list[float]]] | None = None) -> list[dict]:
    """One run per command, side and round, round i holding parent[i] and
    change[i] as wall times, and in_child's as in-child times (else None)."""
    in_child = in_child or {}
    return [{"command": name, "round": i, "side": side, "exit": 0, "seconds": seconds,
             "in_child_seconds": in_child[name][k][i] if name in in_child else None}
            for name, (parent, change) in times.items() for i, pair in enumerate(zip(parent, change))
            for k, (side, seconds) in enumerate(zip(("parent", "change"), pair))]


def test_cli_processes_take_start_up_off_each_side(bench_pairs):
    startup, cmd = bench_pairs.STARTUP, "meanexp oracle class-group --disc -23"
    runs = _process_runs({
        startup: ([0.050, 0.052, 0.048], [0.060, 0.062, 0.058]),
        cmd: ([0.120, 0.125, 0.118], [0.090, 0.091, 0.130]),
    }, {cmd: ([0.070, 0.072, 0.069], [0.036, 0.040, 0.080])})
    runs[-1]["exit"] = 2
    summary = bench_pairs.summarise_processes(runs)
    assert set(summary) == {startup, cmd}
    entry = summary[cmd]
    assert entry["rounds"] == 3 and entry["change_won_rounds"] == 2
    assert entry["parent"]["median"] == 0.120 and entry["change"]["median"] == 0.091
    # the in-child times are compared, and no start-up is taken off them
    assert entry["excl_startup"]["change_over_parent"] == pytest.approx(0.040 / 0.070)
    assert entry["exits"] == {"parent": [0], "change": [0, 2]}
    assert summary[startup]["change"]["median"] == 0.060
    assert "excl_startup" not in summary[startup]
    # a round where one side reports no in-child time is left out
    runs[-1]["in_child_seconds"] = None
    assert bench_pairs.summarise_processes(runs)[cmd]["excl_startup"]["pairs"] == 2
    # and without in-child times there is nothing to compare
    for run in runs:
        run["in_child_seconds"] = None
    assert "excl_startup" not in bench_pairs.summarise_processes(runs)[cmd]


def _process_entry(bench_pairs, parent: list[float], change: list[float],
                   startup: tuple[float, float] = (0.050, 0.050)) -> dict:
    """excl_startup of one command whose in-child times are parent and change,
    each round's wall time being its in-child time plus its side's start-up."""
    walls = ([startup[0] + t for t in parent], [startup[1] + t for t in change])
    summary = bench_pairs.summarise_processes(_process_runs({"cmd": walls}, {"cmd": (parent, change)}))
    return summary["cmd"]["excl_startup"]


def test_cli_process_verdicts_are_taken_with_start_up_off(bench_pairs):
    # 70 ms against 80 ms is 14 % slower whole, but 30 ms against 20 ms in the child
    entry = _process_entry(bench_pairs, [0.020] * 10, [0.030] * 10)
    assert entry["pairs"] == 10 and entry["bound"] == 0.25 and entry["better"] == "lower"
    assert entry["change_over_parent"] == pytest.approx(1.5) and entry["verdict"] == "worse"
    assert entry["change_won_pairs"] == 0 and entry["gain_rule_met"] is False
    # 20 ms in the child against 10: a gain by both rules
    parent = [0.020, 0.021, 0.019, 0.022, 0.020, 0.018, 0.021, 0.020, 0.019, 0.020]
    entry = _process_entry(bench_pairs, parent, [t - 0.010 for t in parent])
    assert entry["change_won_pairs"] == 10 and entry["verdict"] == "within_bound"
    assert entry["pair_ratio"]["q3"] < 1 and entry["paired_gain_rule_met"] is True and entry["gain_rule_met"] is True
    assert entry["parent"]["median"] == pytest.approx(0.020) and entry["change"]["median"] == pytest.approx(0.010)


def test_cli_processes_take_one_start_up_off_both_sides(bench_pairs):
    # the sides' start-ups differ by noise alone, and none of it is in the
    # child's time: an unchanged command reads 1
    entry = _process_entry(bench_pairs, [0.030] * 10, [0.030] * 10, startup=(0.050, 0.057))
    assert entry["change_over_parent"] == pytest.approx(1.0) and entry["verdict"] == "within_bound"


def test_cli_process_verdicts_pair_by_round(bench_pairs):
    # a host that drifts from round to round: the change is 10 % faster in
    # the child in every round, inside the drift of the parent's own rounds
    parent = [0.020, 0.040, 0.022, 0.038, 0.021, 0.039, 0.020, 0.040, 0.023, 0.037]
    entry = _process_entry(bench_pairs, parent, [0.9 * t for t in parent])
    assert entry["change_won_pairs"] == 10
    assert entry["pair_ratio"]["median"] == pytest.approx(0.9) and entry["paired_gain_rule_met"] is True
    assert entry["gain_rule_met"] is False
    # the parent's spread in the child is wider than the bound and the sides overlap
    assert entry["verdict"] == "unresolved"


def test_in_child_wrapper_keeps_the_exit_code(bench_pairs):
    root = SCRIPT.parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    for argv, want in [(["oracle", "class-group", "--disc", "-23"], 0), (["frobnicate"], 64)]:
        code, seconds, in_child = bench_pairs.process_seconds(root, ["-c", bench_pairs.IN_CHILD, *argv], env)
        assert code == want and 0 < in_child < seconds
    assert bench_pairs.process_seconds(root, ["-c", "pass"], env)[::2] == (0, None)


def test_cli_commands_are_the_readme_commands(bench_pairs):
    readme = (SCRIPT.parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    listed = [line.split("#", 1)[0].split()[1:] for line in block.splitlines()]
    placeholder = ["--scenario", "path/to/scenario.json"]
    listed = [argv[:1] + ["--scenario", "src/meanexp/scenarios/example2.json"] if argv[1:] == placeholder else argv
              for argv in listed]
    assert bench_pairs.CLI_COMMANDS == listed

