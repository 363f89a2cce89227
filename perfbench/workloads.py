"""The benchmark workloads: seeded inputs, one request each, output checks.

Every workload is a closed loop with one client.  Requests come in rounds.
A round visits every stratum of the workload's input range once, in a seeded
order, so a run that stops part-way through a round has still sampled the
whole range evenly and two seeds see the same mix.  Round ``r`` depends only
on (workload, seed, r).

Why these two:

* ``scenario-deep`` is the greedy fill under load: packaged biquadratic
  bases with ``T`` and ``tv.sigma_fixed`` removed and a small ``x1_num``, so
  every request runs several enumerate-then-double rounds: 2-4 builds on
  example2, 3-5 on example3 and intro, 4-6 on example4 and 6-8 on example1.
  It varies the field (splitting pattern) and the density, the two inputs the
  candidate count depends on.  ``arith``, ``fields``, ``scenario`` and ``tv``
  do the work.
* ``invariants-scan`` is ``propgroups`` and ``oracle`` through ``cli.main``
  in process: witness scans, filtration ranks and class-group structures.

A third workload, one ``python -m meanexp.cli`` process per README command,
was tried and left out.  With three workloads every run had to be shorter,
and on a 2-vCPU VM whose speed drifts by up to 30% the shorter runs spread by
up to 0.32 between seeds; two workloads of 55 s each spread by about 0.1.

Expected outputs were recorded from the library by ``record_goldens.py`` and
are compared as the checks below describe; a request whose output differs
counts as failed.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_DIR = BENCH_DIR / "golden"
SCENARIO_DIR = ROOT / "src" / "meanexp" / "scenarios"

WORKLOADS = ("scenario-deep", "invariants-scan")
ENTRY_MODULE = {
    "scenario-deep": "meanexp.scenario",
    "invariants-scan": "meanexp.cli",
}

# Known defects, run once per run outside the timed loop and reported in the
# run record, so that the timed requests are all ones that succeed.
# The README's global-flag-first form must print what the flag-last form
# prints; today it exits 64.
KNOWN_DEFECTS = {
    "global-flag-first": {
        "argv": ["--precision", "4", "paper-example", "2", "--json"],
        "same_as": ["paper-example", "2", "--json", "--precision", "4"],
    },
}

DEEP_BASES = ("example1", "example2", "example3", "example4", "intro")
# The final norm bound of every scenario-deep request lies in this range,
# which holds three doubling tiers of every base; with one request per tier
# the median and the 90th percentile fall inside a tier, not between two.
DEEP_BOUND_RANGE = (12_800, 65_536)
DEEP_GRID = 32

INV_STRATA = 4
WITNESS_NS = (12, 13, 14, 15)
RANKS = {
    # kind: (fixed argv, N range inclusive)
    "ranks-235": (["propgroup", "ranks", "--d", "4", "--r", "3", "--p", "3", "--degrees", "2,3,5"], (600, 900)),
    "ranks-quadratic": (["propgroup", "ranks", "--d", "4", "--r", "4", "--p", "3"], (800, 1200)),
}
WITNESS_ARGV = ["propgroup", "witnesses", "--d", "4", "--r", "4", "--p", "3"]
# The oracle pool: D = 0, 1 mod 4 with 5*10^5 <= |D| <= 10^6.
ORACLE_RANGE = (500_000, 1_000_000)
ORACLE_POOL = 128
# Absolute tolerance on log-domain witness values: the float-log regime's
# documented relative error.
WITNESS_LOG_TOL = 1e-6
REL_TOL = 1e-12


CLI_TIMEOUT_S = 60


def child_env() -> dict:
    # bytecode caching is off in every child, so no run depends on whether
    # an earlier one left compiled files behind
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def import_seconds(module: str) -> float:
    """Time to import module in a fresh interpreter, start-up excluded."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True,
    )
    return float(proc.stdout)


def cli_process(argv: list[str]) -> dict:
    """One ``python -m meanexp.cli`` process from the checkout root."""
    proc = subprocess.run(
        [sys.executable, "-m", "meanexp.cli", *argv],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=CLI_TIMEOUT_S,
    )
    return {"exit": proc.returncode, "stdout": proc.stdout.decode()}


def cli_inproc(main, argv: list[str]) -> dict:
    """``main(argv)`` (``cli.main`` or a wrapper of it) with output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"exit": code, "stdout": out.getvalue()}


@functools.cache
def golden(name: str):
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _stratum(rng: random.Random, lo: int, hi: int, s: int) -> int:
    """A uniform draw from stratum s of INV_STRATA equal parts of [lo, hi]."""
    span = hi - lo + 1
    return rng.randrange(lo + s * span // INV_STRATA, lo + (s + 1) * span // INV_STRATA)


def _interleave(rng: random.Random, groups: list[list[dict]]) -> list[dict]:
    """Each group shuffled, then one from each group in turn.

    Every prefix of a round then holds the groups in nearly equal shares, so
    where a run's deadline cuts the last round does not skew the mix.
    """
    for group in groups:
        rng.shuffle(group)
    longest = max(len(group) for group in groups)
    return [group[i] for i in range(longest) for group in groups if i < len(group)]


def round_requests(workload: str, seed: int, r: int) -> list[dict]:
    """The requests of round r; JSON-serialisable, fixed by (workload, seed, r)."""
    rng = random.Random(f"{workload}/{seed}/{r}")
    if workload == "scenario-deep":
        # one request per base at each final-bound tier the base's range
        # covers; the tier sets the number of doubling rounds, so every round
        # asks for the same work whatever the seed
        levels: list[list[dict]] = []
        for base in DEEP_BASES:
            points = golden("scenario_deep")["bases"][base]["points"]
            tiers = sorted({p["norm_bound_used"] for p in points})
            for level, tier in enumerate(tiers):
                point = rng.choice([i for i, p in enumerate(points) if p["norm_bound_used"] == tier])
                if level == len(levels):
                    levels.append([])
                levels[level].append({"id": f"{base}/{point}", "base": base, "point": point})
        return _interleave(rng, levels)
    if workload == "invariants-scan":
        kinds = [[
            {"id": f"witnesses/{n}", "kind": "witnesses", "key": str(n),
             "argv": WITNESS_ARGV + ["--N", str(n), "--json"]}
            for n in WITNESS_NS
        ]]
        for kind, (argv, (lo, hi)) in RANKS.items():
            group = []
            for s in range(INV_STRATA):
                n = _stratum(rng, lo, hi, s)
                group.append({"id": f"{kind}/{n}", "kind": kind, "key": str(n),
                              "argv": argv + ["--N", str(n), "--json"]})
            kinds.append(group)
        # the pool is ordered by recorded request time, so the strata are
        # cost classes
        pool = golden("invariants_scan")["oracle"]["discs"]
        group = []
        for s in range(INV_STRATA):
            D = pool[_stratum(rng, 0, len(pool) - 1, s)]
            group.append({"id": f"oracle/{D}", "kind": "oracle", "key": str(D),
                          "argv": ["oracle", "class-group", "--disc", str(D), "--json"]})
        kinds.append(group)
        return _interleave(rng, kinds)
    raise ValueError(f"unknown workload {workload!r}")


@functools.cache
def _deep_base(base: str) -> dict:
    with open(SCENARIO_DIR / f"{base}.json", encoding="utf-8") as fh:
        data = json.load(fh)
    data.pop("T", None)
    data["tv"].pop("sigma_fixed", None)
    return data


def deep_scenario(base: str, x1_num: float) -> dict:
    """A packaged base with T and tv.sigma_fixed removed and the given x1_num.

    Each call returns a fresh copy, so no request sees another's input.
    """
    data = copy.deepcopy(_deep_base(base))
    data["tv"]["x1_num"] = x1_num
    return data


def deep_input(req: dict) -> dict:
    point = golden("scenario_deep")["bases"][req["base"]]["points"][req["point"]]
    return deep_scenario(req["base"], point["x1_num"])


def deep_summary(report: dict) -> dict:
    """The values the scenario-deep check compares."""
    refined = report["bounds"].get("refined")
    return {
        "ell_star_0": report["tv"]["ell_star_0"],
        "alpha": report["tv"]["alpha"],
        "B_upper": report["tv"]["B_upper"],
        "refined_bound": refined["bound"] if refined else None,
    }


def ranks_digest(b: list[int]) -> str:
    return hashlib.sha256(json.dumps(b).encode()).hexdigest()


def witness_logs(row: dict) -> list[float | None]:
    """index_log, window_rank and rhs in the log domain, None for a zero."""
    out = []
    for key in ("index_log", "window_rank", "rhs"):
        v = row[key]
        if row["regime"] == "exact":
            out.append(math.log(v) if v > 0 else None)
        else:
            out.append(v if math.isfinite(v) else None)
    return out


def _close(got: float | None, want: float | None) -> bool:
    if want is None or got is None:
        return got is want
    return abs(got - want) <= REL_TOL * max(abs(want), 1e-300)


def check(workload: str, req: dict, outcome: dict) -> str | None:
    """None when the request's output is the expected one, else the reason."""
    if workload == "scenario-deep":
        want = golden("scenario_deep")["bases"][req["base"]]["points"][req["point"]]["expected"]
        got = outcome["summary"]
        if got["ell_star_0"] != want["ell_star_0"]:
            return f"ell_star_0 {got['ell_star_0']} != {want['ell_star_0']}"
        for key in ("alpha", "B_upper", "refined_bound"):
            if not _close(got[key], want[key]):
                return f"{key} {got[key]!r} != {want[key]!r}"
        return None
    if outcome["exit"] != 0:
        return f"exit {outcome['exit']}"
    payload = json.loads(outcome["stdout"])
    expected = golden("invariants_scan")
    kind, key = req["kind"], req["key"]
    if kind in RANKS:
        if ranks_digest(payload["b"]) != expected["ranks"][kind][key]:
            return "ranks differ"
        return None
    if kind == "oracle":
        return None if payload == expected["oracle"]["payloads"][key] else "class group differs"
    rows, want_rows = payload["rows"], expected["witnesses"][key]
    if len(rows) != len(want_rows):
        return f"{len(rows)} witness rows, expected {len(want_rows)}"
    for row, want in zip(rows, want_rows):
        if row["n"] != want["n"] or row["satisfied"] != want["satisfied"]:
            return f"witness row n={want['n']} differs"
        for got_v, want_v in zip(witness_logs(row), want["logs"]):
            if (got_v is None) != (want_v is None) or (
                got_v is not None and abs(got_v - want_v) > WITNESS_LOG_TOL
            ):
                return f"witness row n={want['n']} log value {got_v!r} != {want_v!r}"
    return None


def check_known_defect(name: str, outcome: dict) -> str | None:
    want = golden("known_defects")[name]
    if outcome["exit"] != want["exit"]:
        return f"exit {outcome['exit']}, expected {want['exit']}"
    if outcome["stdout"] != want["stdout"]:
        return "stdout differs"
    return None


def inputs_digest(workload: str, seed: int, rounds: int) -> str:
    """SHA-256 of the first rounds' requests, for the determinism check."""
    reqs = [round_requests(workload, seed, r) for r in range(rounds)]
    return hashlib.sha256(json.dumps(reqs, sort_keys=True).encode()).hexdigest()
