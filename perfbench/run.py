"""The meanexp benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload scenario-deep --seed 1 --seconds 55 --trace 0

Run from the repository root; needs only the standard library.  The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones:

* ``req_p50_ms``, ``req_p90_ms``: median and 90th percentile of per-request
  wall time over every request of the run (``attempted`` is the sample count);
* ``throughput_rps``: completed requests over the loop's wall time, less the
  benchmark's own input preparation and output checks between requests;
* ``setup_s``: median over fresh interpreters, started between slices of
  the load, of the time to import the workload's entry module, timed inside
  the interpreter;
* ``peak_rss_mb``: peak RSS of the process that ran the load.

Failures are not a metric: ``failed`` counts requests that raised, exited with
an undocumented code or failed their output check.

With ``--trace 1`` a separate run reports the per-layer metrics described in
``tracer.py``, as totals over a fixed number of the seed's request rounds.  Every run writes a run record (git commit if there is one,
Python version, CPUs, bytecode setting, seed, CPU steal and load over the run,
known defects) to stderr and to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

sys.dont_write_bytecode = True
import workloads  # noqa: E402

ROOT = workloads.ROOT
OUT_DIR = ROOT / ".perfbench_out"
STARTUP_REPS = 5
P90_MIN_SAMPLES = 100
# time the worker may take beyond --seconds: start-up, the set-up
# measurements, the packaged examples of a traced run, and the last request
WORKER_GRACE_S = 120


def startup_seconds(reps: int) -> float:
    """Median wall time of a fresh interpreter that does nothing."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=workloads.child_env(),
                       timeout=workloads.CLI_TIMEOUT_S, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def cpu_steal() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs so far, read from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def git_commit() -> str | None:
    """HEAD's commit when the checkout is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def known_defects() -> dict[str, str]:
    """Run each known-defect command once, outside the timed loop."""
    status = {}
    for name, defect in workloads.KNOWN_DEFECTS.items():
        reason = workloads.check_known_defect(name, workloads.cli_process(defect["argv"]))
        status[name] = "fixed" if reason is None else f"still fails: {reason}"
    return status


def check_determinism(workload: str) -> None:
    """The reference seed must give the inputs recorded with the goldens."""
    want = workloads.golden("inputs")
    got = workloads.inputs_digest(workload, want["seed"], want["rounds"])
    if got != want["sha256"][workload]:
        raise SystemExit(f"perfbench: seed {want['seed']} no longer generates the recorded "
                         f"{workload} inputs")


def run_worker(job: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py")], cwd=ROOT, env=workloads.child_env(),
        input=json.dumps(job), capture_output=True, text=True,
        timeout=job["seconds"] + WORKER_GRACE_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    return json.loads(proc.stdout)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict) -> dict:
    lat_ms = [x * 1000 for x in result["latencies_s"]]
    return {
        "req_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "req_p90_ms": metric(statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms"),
        "throughput_rps": metric(len(lat_ms) / result["busy_s"], "req/s"),
        "setup_s": metric(statistics.median(result["setup_s"]), "s"),
        "peak_rss_mb": metric(result["peak_rss_kb"] / 1024, "MB"),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "meanexp" / "__init__.py").is_file():
        print(f"perfbench: no meanexp sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    check_determinism(args.workload)

    steal0, total0 = cpu_steal()
    load0 = loadavg()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": bool(args.trace), "spans_path": str(OUT_DIR / f"spans-{tag}.json")}
    record = {}
    if args.trace:
        startup = startup_seconds(STARTUP_REPS)
        cli_import = statistics.median(workloads.import_seconds("meanexp.cli") for _ in range(STARTUP_REPS))
        result = run_worker(job)
        layers = dict(result["layers"])
        layers["cli.interp_startup_ms"] = startup * 1000
        layers["cli.import_ms"] = cli_import * 1000
        metrics = {name: metric(value, unit_of(name)) for name, value in sorted(layers.items())}
        attempted = result["attempted"]
        record["spans"] = {"count": result["spans"], "path": job["spans_path"]}
    else:
        result = run_worker(job)
        metrics = end_to_end(result)
        attempted = len(result["latencies_s"])
        record["known_defects"] = known_defects()
    steal1, total1 = cpu_steal()

    failures = result["failures"]
    warnings = []
    if not args.trace and attempted < P90_MIN_SAMPLES:
        warnings.append(f"only {attempted} requests; a 90th percentile wants {P90_MIN_SAMPLES}")
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "children_PYTHONDONTWRITEBYTECODE": "1",
        "cpu_steal_frac": (steal1 - steal0) / (total1 - total0) if total1 > total0 else None,
        "loadavg_start": load0,
        "loadavg_end": loadavg(),
        "samples": attempted,
        "failures": failures[:20],
        "library_names_left_wrapped": result["not_pristine"],
        "warnings": warnings,
    })
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"run-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record), file=sys.stderr)
    print(json.dumps({
        "correct": not failures and not result["not_pristine"],
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_frac") or name.endswith("_yield"):
        return "fraction"
    if name.endswith("report_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
