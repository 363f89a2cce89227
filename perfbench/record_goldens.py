"""Record the expected outputs the benchmark checks against.

    python3 perfbench/record_goldens.py

Run from the repository root.  The files under ``perfbench/golden`` were
recorded once from the library as it stood when the benchmark was defined;
re-record only when a report is meant to change, because recording makes the
current output the expected one.

It also calibrates scenario-deep: for each base it finds the ``x1_num`` range
whose final norm bound lies in ``DEEP_BOUND_RANGE`` and stores a log-spaced
grid of ``DEEP_GRID`` points with their expected values.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import sys
import time

import workloads as W

sys.path.insert(0, str(W.ROOT / "src"))

from meanexp import cli, scenario  # noqa: E402
from meanexp.errors import NeedsLargerEnumerationError  # noqa: E402


def record_known_defects() -> dict:
    """What each known-defect command should print: its working form's output."""
    return {name: W.cli_process(d["same_as"]) for name, d in W.KNOWN_DEFECTS.items()}


def record_inputs() -> dict:
    """Digests of a reference seed's first rounds, after the goldens they read."""
    seed, rounds = 1, 3
    return {
        "seed": seed,
        "rounds": rounds,
        "sha256": {w: W.inputs_digest(w, seed, rounds) for w in W.WORKLOADS},
    }


def final_bound(base: str, x1: float) -> float:
    try:
        return scenario.run_scenario_data(W.deep_scenario(base, x1))["tv"]["norm_bound_used"]
    except NeedsLargerEnumerationError:
        return math.inf


def edge(base: str, pred, lo: float, hi: float) -> float:
    """The x1 in [lo, hi] closest to the edge where pred flips, on pred's true side.

    pred must be monotone in x1 and differ between lo and hi.
    """
    p_lo = pred(final_bound(base, lo))
    for _ in range(14):
        mid = math.sqrt(lo * hi)
        if pred(final_bound(base, mid)) == p_lo:
            lo = mid
        else:
            hi = mid
    return lo if p_lo else hi


def record_deep() -> dict:
    low, high = W.DEEP_BOUND_RANGE
    bases = {}
    for base in W.DEEP_BASES:
        # the final bound falls as x1 grows
        x_hi = edge(base, lambda b: b >= low, 0.06, 5.0)
        x_lo = edge(base, lambda b: b > high, 0.06, 5.0)
        x_lo *= 1.002  # step off the edge, into the range
        x_hi /= 1.002
        points = []
        for k in range(W.DEEP_GRID):
            x1 = float(f"{x_lo * (x_hi / x_lo) ** (k / (W.DEEP_GRID - 1)):.6g}")
            report = scenario.run_scenario_data(W.deep_scenario(base, x1))
            bound = report["tv"]["norm_bound_used"]
            if not low <= bound <= high:
                raise SystemExit(f"{base} x1={x1}: final bound {bound} outside the range")
            points.append({"x1_num": x1, "norm_bound_used": bound, "expected": W.deep_summary(report)})
        bases[base] = {"x1_range": [x_lo, x_hi], "points": points}
        print(base, x_lo, x_hi, file=sys.stderr)
    return {"bound_range": [low, high], "bases": bases}


def record_invariants() -> dict:
    witnesses = {}
    for n in W.WITNESS_NS:
        got = W.cli_inproc(cli.main, W.WITNESS_ARGV + ["--N", str(n), "--json"])
        rows = json.loads(got["stdout"])["rows"]
        witnesses[str(n)] = [
            {"n": row["n"], "satisfied": row["satisfied"], "logs": W.witness_logs(row)} for row in rows
        ]
    ranks = {}
    for kind, (argv, (lo, hi)) in W.RANKS.items():
        # b_1..b_N depend only on the series to order N, so one run at the top
        # of the range gives every shorter prefix; spot-check that claim
        b = json.loads(W.cli_inproc(cli.main, argv + ["--N", str(hi), "--json"])["stdout"])["b"]
        for n in (lo, (lo + hi) // 2):
            b_n = json.loads(W.cli_inproc(cli.main, argv + ["--N", str(n), "--json"])["stdout"])["b"]
            if b_n != b[:n]:
                raise SystemExit(f"{kind}: ranks at N={n} are not a prefix of N={hi}")
        ranks[kind] = {str(n): W.ranks_digest(b[:n]) for n in range(lo, hi + 1)}
    rng = random.Random("oracle-pool")
    discs: set[int] = set()
    while len(discs) < W.ORACLE_POOL:
        D = -rng.randint(*W.ORACLE_RANGE)
        if D % 4 in (0, 1):
            discs.add(D)
    payloads, seconds = {}, {}
    for D in discs:
        argv = ["oracle", "class-group", "--disc", str(D), "--json"]
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            got = W.cli_inproc(cli.main, argv)
            times.append(time.perf_counter() - t0)
        if got["exit"] != 0:
            raise SystemExit(f"oracle {D}: exit {got['exit']}")
        payloads[str(D)] = json.loads(got["stdout"])
        seconds[str(D)] = statistics.median(times)
    # ordered by request time as recorded, so equal slices are cost classes
    ordered = sorted(discs, key=lambda D: (seconds[str(D)], D))
    return {
        "witnesses": witnesses,
        "ranks": ranks,
        "oracle": {"discs": ordered, "payloads": payloads, "recorded_seconds": seconds},
    }


def write(name: str, doc: dict) -> None:
    W.GOLDEN_DIR.mkdir(exist_ok=True)
    with open(W.GOLDEN_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> None:
    recorders = {
        "known_defects": record_known_defects,
        "scenario_deep": record_deep,
        "invariants_scan": record_invariants,
        "inputs": record_inputs,  # last: the inputs are drawn from the goldens above
    }
    for name in sys.argv[1:] or list(recorders):
        write(name, recorders[name]())
        W.golden.cache_clear()
        print(f"wrote {name}", file=sys.stderr)


if __name__ == "__main__":
    main()
