"""Paired benchmark runs of two commits, summarised into one JSON file.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --pairs 10 \
        --workload scenario-deep --workload invariants-scan --out BENCH_<n>.json

Each commit is unpacked with ``git archive`` into its own directory, and the
unchanged ``perfbench/run.py`` of that copy runs there once per pair and
workload, for the ``run_seconds`` that ``BENCHMARK.json`` declares.  Within a
pair both sides use the same seed; which side runs first alternates from pair
to pair, so a slow drift of the host does not favour one side.

The output holds, per workload and end-to-end metric, each side's median and
quartiles, the number of pairs the change won (ties count for neither side),
the change's median relative to the parent's, and whether the gain rule holds:
a win in at least nine tenths of the pairs, and medians that differ by more
than the parent's interquartile range.  A drift of the host during the run
widens that range without touching the gap within a pair, so each metric also
has ``pair_ratio``, the median and quartiles of the per-pair change/parent
ratios, and ``paired_gain_rule_met``: the same nine tenths of wins, and the
ratios' quartile away from the gain on the gain side of 1 (the third quartile
below 1 where lower is better, the first above 1 where higher is).  From two
pairs on, the wins imply that quartile; it keeps a single pair from passing.
The no-regression ``verdict`` against the metric's ``bound`` is
``unresolved`` when the parent's interquartile range is wider than the bound
times its median and not every change run beats every parent run, else
``worse`` when the change's median is worse than the parent's by more than
the bound, else ``within_bound``.  The file also holds both commits, the
seeds and every run's result and run record.  It is rewritten after every
run, so an interrupted session still leaves the runs made so far.  Standard
library only.

Before the workloads, a ``cli_processes`` pass times each command of the
README's CLI section as a fresh process in both copies, with the child
environment perfbench gives its processes, and ``python -c pass`` as the
interpreter's start-up.  Each command runs under IN_CHILD, a ``python -c``
wrapper that times ``runpy.run_module("meanexp.cli")`` with ``perf_counter``
inside the child, writes the seconds as the last line of stderr and exits
with the command's exit code.  It makes CLI_RUNS rounds; a round runs every
command once per side, the side that goes first alternating by command and
round.  Per command the section holds each side's median and quartiles of
the wall time in seconds, its exit codes and the rounds the change won.  Its
``excl_startup`` pairs the in-child times round by round, as pairs are
paired, and summarises them as a metric is: spreads, wins, ``pair_ratio``,
both gain rules, the verdict against a bound of 0.25 (the bound the
benchmark sets on its timings), and ``change_over_parent``.  The in-child
time holds the import of meanexp and the command, and none of the
interpreter's start-up: on a shared 2-vCPU VM, wall time less a pooled
median start-up left the start-up's own scatter in a remainder of ~30 ms,
and 8 of 10 commands read ``unresolved``.  Every timed process is kept in
``cli_process_runs``.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# the README's CLI section, with its placeholder scenario path filled in
CLI_COMMANDS = [
    ["mean-exponent", "--shape", "p:2,exps:3,1"],
    ["genus-bound", "--rho", "6", "--r1", "1", "--r2", "0", "--delta", "1"],
    ["gs-check", "--d", "16", "--r-upper", "48"],
    ["critere", "--rho", "8", "--t-dec", "0", "--t-total", "1"],
    ["paper-example", "2", "--json"],
    ["tv-bound", "--scenario", "src/meanexp/scenarios/example2.json"],
    ["propgroup", "series", "--d", "4", "--r", "4", "--N", "8"],
    ["propgroup", "ranks", "--d", "4", "--r", "4", "--p", "3", "--N", "8"],
    ["propgroup", "witnesses", "--d", "4", "--r", "4", "--p", "3", "--N", "6", "--eps", "0.5"],
    ["oracle", "class-group", "--disc", "-23"],
]
STARTUP = "python -c pass"
# runs `meanexp.cli` as `python -m` does, and writes its time in the child as stderr's last line
IN_CHILD = """\
import runpy, sys
from time import perf_counter
t0 = perf_counter()
try:
    runpy.run_module("meanexp.cli", run_name="__main__")
    code = 0
except SystemExit as exc:
    code = exc.code
print(perf_counter() - t0, file=sys.stderr)
sys.exit(code)
"""
CLI_RUNS = 15
# the bound BENCHMARK.json sets on each timing
PROCESS_BOUND = 0.25


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def unpack(rev: str, dest: Path) -> dict:
    """The tree of rev under dest; returns the commit and the trees the benchmark reads."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return {"rev": rev, "commit": commit, "src_tree": git("rev-parse", f"{commit}:src"),
            "perfbench_tree": git("rev-parse", f"{commit}:perfbench")}


def last_json_line(text: str):
    for line in reversed(text.splitlines()):
        try:
            return json.loads(line)
        except json.JSONDecodeError:
            continue
    return None


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=copy, capture_output=True, text=True,
    )
    return {"exit": proc.returncode, "result": last_json_line(proc.stdout),
            "record": last_json_line(proc.stderr)}


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None, "iqr": None}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Both sides' spread over the pairs (parent[i], change[i]), the pairs the
    change won, and from one pair on the paired ratios and the verdicts."""
    lower = better == "lower"
    wins = sum(c < p if lower else c > p for p, c in zip(parent, change))
    before, after = spread(parent), spread(change)
    entry = {"better": better, "bound": bound, "pairs": len(parent), "parent": before, "change": after,
             "change_won_pairs": wins}
    if parent:
        ratios = entry["pair_ratio"] = spread([c / p for p, c in zip(parent, change)])
        far = ratios["q3"] if lower else ratios["q1"]
        entry["paired_gain_rule_met"] = bool(wins >= 0.9 * len(parent) and far is not None
                                             and (far < 1 if lower else far > 1))
        ratio = entry["change_over_parent"] = after["median"] / before["median"]
        gap = before["median"] - after["median"] if lower else after["median"] - before["median"]
        entry["gain_rule_met"] = bool(wins >= 0.9 * len(parent) and before["iqr"] is not None
                                      and gap > before["iqr"])
        beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
        if before["iqr"] is not None and before["iqr"] > bound * before["median"] and not beats_all:
            entry["verdict"] = "unresolved"
        else:
            entry["verdict"] = "worse" if (ratio - 1 if lower else 1 - ratio) > bound else "within_bound"
    return entry


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: both sides' spread over the complete pairs, and the pairwise verdicts."""
    pairs: dict[int, dict] = {}
    for run in runs:
        if run["result"] is not None:
            pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    complete = [p for _, p in sorted(pairs.items()) if len(p) == 2]
    return {m["name"]: {"unit": m["unit"], **compare([p["parent"][m["name"]]["value"] for p in complete],
                                                     [p["change"][m["name"]]["value"] for p in complete],
                                                     m["better"], m["bound"])}
            for m in metrics}


def perfbench_child_env() -> dict:
    """The environment perfbench gives its child processes (``workloads.child_env``)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.child_env()


def process_seconds(copy: Path, args: list[str], env: dict) -> tuple[int, float, float | None]:
    """Exit code and wall time of one fresh interpreter running args in
    copy, and the seconds on the last line of its stderr (None if none)."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    seconds = perf_counter() - t0
    try:
        in_child = float(proc.stderr.splitlines()[-1])
    except (IndexError, ValueError):
        in_child = None
    return proc.returncode, seconds, in_child


def time_processes(workdir: Path) -> list[dict]:
    """CLI_RUNS rounds of every CLI command, and of the bare start-up, per side."""
    env = perfbench_child_env()
    commands = {STARTUP: ["-c", "pass"]}
    commands.update({"meanexp " + " ".join(argv): ["-c", IN_CHILD, *argv] for argv in CLI_COMMANDS})
    runs = []
    for i in range(CLI_RUNS):
        for j, (name, args) in enumerate(commands.items()):
            for side in ("parent", "change") if (i + j) % 2 == 0 else ("change", "parent"):
                code, seconds, in_child = process_seconds(workdir / side, args, env)
                runs.append({"command": name, "round": i, "side": side, "exit": code, "seconds": seconds,
                             "in_child_seconds": in_child})
    return runs


def summarise_processes(runs: list[dict]) -> dict:
    """Per command: each side's spread of wall times, its exit codes and the
    rounds the change won; and over the rounds where both sides report an
    in-child time, `compare` of those times under PROCESS_BOUND."""
    by_round: dict[str, dict[str, dict[int, dict]]] = {}
    for run in runs:
        by_round.setdefault(run["command"], {}).setdefault(run["side"], {})[run["round"]] = run
    out = {}
    for name, sides in by_round.items():
        parent, change = sides.get("parent", {}), sides.get("change", {})
        rounds = sorted(parent.keys() & change.keys())
        entry = {"unit": "s", "rounds": len(rounds),
                 "parent": spread([parent[i]["seconds"] for i in rounds]),
                 "change": spread([change[i]["seconds"] for i in rounds]),
                 "exits": {side: sorted({run["exit"] for run in side_runs.values()})
                           for side, side_runs in sides.items()},
                 "change_won_rounds": sum(change[i]["seconds"] < parent[i]["seconds"] for i in rounds)}
        timed = [i for i in rounds
                 if parent[i].get("in_child_seconds") is not None and change[i].get("in_child_seconds") is not None]
        if timed:
            entry["excl_startup"] = compare([parent[i]["in_child_seconds"] for i in timed],
                                            [change[i]["in_child_seconds"] for i in timed], "lower", PROCESS_BOUND)
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--change", required=True, help="the commit under test")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1001, help="pair i runs seed seed0 + i")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--workdir", help="where the two copies go (default: a new temporary directory)")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="bench_pairs_"))
    sides = {side: unpack(rev, workdir / side) for side, rev in (("parent", args.parent), ("change", args.change))}
    if sides["parent"]["perfbench_tree"] != sides["change"]["perfbench_tree"]:
        print("bench_pairs: the two commits have different perfbench/ trees", file=sys.stderr)
        return 2
    seeds = [args.seed0 + i for i in range(args.pairs)]
    report = {
        "command": ["python3", "perfbench/run.py", "--workload", "<workload>", "--seed", "<seed>",
                    "--seconds", str(bench["run_seconds"])],
        "parent": sides["parent"],
        "change": sides["change"],
        "seconds": bench["run_seconds"],
        "seeds": seeds,
        "order": "parent first in even pairs, change first in odd pairs",
        "workloads": {},
    }
    out = Path(args.out)
    report["cli_process_runs"] = time_processes(workdir)
    report["cli_processes"] = summarise_processes(report["cli_process_runs"])
    out.write_text(json.dumps(report, indent=1) + "\n")
    for workload in args.workload:
        runs: list[dict] = []
        for i, seed in enumerate(seeds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                run = run_once(workdir / side, workload, seed, bench["run_seconds"])
                runs.append({"pair": i, "seed": seed, "side": side, **run})
                result = run["result"] or {}
                print(f"{workload} pair {i} {side}: exit {run['exit']}, correct {result.get('correct')}, "
                      f"p50 {result.get('metrics', {}).get('req_p50_ms', {}).get('value')}", file=sys.stderr)
                report["workloads"][workload] = {
                    "all_correct": all(r["result"] and r["result"]["correct"] and not r["result"]["failed"]
                                       for r in runs),
                    "metrics": summarise(runs, bench["end_to_end"]),
                    "runs": runs,
                }
                out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
