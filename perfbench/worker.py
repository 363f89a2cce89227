"""One benchmark run's load, in a fresh process started by ``run.py``.

Reads ``{"workload", "seed", "seconds", "trace", "spans_path"}`` as JSON on
stdin and writes one JSON result on stdout.  A single client sends requests
in a closed loop: the next request goes out when the previous one returns.

Untraced, the loop runs for ``seconds`` and the result carries every
request's latency, the failures, and this process's peak RSS.  Traced, the
loop covers the first ``TRACE_ROUNDS`` rounds of the seed's requests,
whatever ``seconds`` is, so the per-layer totals describe the same work on
every commit and on every machine.  Each of those requests runs twice, with
and without the tracer; the result carries the per-layer metrics and the
tracing overhead, and the spans go to ``spans_path``.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True
import workloads as W  # noqa: E402

sys.path.insert(0, str(W.ROOT / "src"))

from meanexp import cli, scenario  # noqa: E402

import tracer  # noqa: E402

PACKAGED = ("1", "2", "3", "4", "5", "intro")
PACKAGED_REPS = 5
# set-up measurements per untraced run
SETUP_REPS = 16
# rounds of requests per traced run; about 30 s on a 2-vCPU VM
TRACE_ROUNDS = 6


def executor(workload: str, main=cli.main):
    """(prepare, execute): prepare builds a request's input outside the timing."""
    if workload == "scenario-deep":
        def execute(_req, data):
            report = scenario.run_scenario_data(data)
            scenario.dump_report(report)
            return {"summary": W.deep_summary(report)}
        return W.deep_input, execute
    return (lambda req: req["argv"]), lambda _req, argv: W.cli_inproc(main, argv)


def run_requests(workload: str, requests, deadline: float | None, prepare, execute) -> dict:
    """Closed loop over requests until they run out or the deadline passes.

    ``busy_s`` is the loop's wall time less the benchmark's own preparation
    and checking between requests.
    """
    latencies, failures = [], []
    overhead = 0.0
    start = perf_counter()
    requests = iter(requests)
    while deadline is None or perf_counter() < deadline:
        req = next(requests, None)
        if req is None:
            break
        p0 = perf_counter()
        arg = prepare(req)
        t0 = perf_counter()
        try:
            outcome = execute(req, arg)
            reason = None
        except Exception as exc:  # a request that raises counts as failed
            outcome, reason = None, f"raised {type(exc).__name__}: {exc}"
        t1 = perf_counter()
        latencies.append(t1 - t0)
        if outcome is not None:
            reason = W.check(workload, req, outcome)
        if reason is not None:
            failures.append(f"{req['id']}: {reason}")
        overhead += (t0 - p0) + (perf_counter() - t1)
    return {
        "latencies_s": latencies,
        "failures": failures,
        "busy_s": perf_counter() - start - overhead,
    }


def request_stream(workload: str, seed: int):
    r = 0
    while True:
        yield from W.round_requests(workload, seed, r)
        r += 1


def untraced(job: dict) -> dict:
    """The closed loop, with one set-up measurement after each slice of it.

    Spreading the set-ups over the run lets them see the same machine as the
    requests; their time is not part of the load's.
    """
    workload = job["workload"]
    pristine_before = tracer.check_pristine()
    prepare, execute = executor(workload)
    stream = request_stream(workload, job["seed"])
    result = {"latencies_s": [], "failures": [], "busy_s": 0.0, "setup_s": []}
    for _ in range(SETUP_REPS):
        part = run_requests(workload, stream, perf_counter() + job["seconds"] / SETUP_REPS, prepare, execute)
        for key in ("latencies_s", "failures", "busy_s"):
            result[key] += part[key]
        result["setup_s"].append(W.import_seconds(W.ENTRY_MODULE[workload]))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["not_pristine"] = sorted(set(pristine_before + tracer.check_pristine()))
    return result


def packaged_ms() -> dict[str, float]:
    """Median in-process run_scenario time of each packaged example."""
    out = {}
    for which in PACKAGED:
        name = cli._EXAMPLE_NAMES[which]
        times = []
        for _ in range(PACKAGED_REPS):
            t0 = perf_counter()
            cli.run_packaged_example(name)
            times.append(perf_counter() - t0)
        out[f"scenario.packaged.{name}_ms"] = statistics.median(times) * 1000
    return out


def traced(job: dict) -> dict:
    """Each request runs untraced and traced back to back, in alternating order.

    Pairing the two runs of a request keeps drifts in machine speed out of
    the tracing overhead.
    """
    workload = job["workload"]
    layers = packaged_ms()
    t = tracer.Tracer()
    prepare, execute = executor(workload)
    _, execute_traced = executor(workload, main=t.wrap("cli.main", cli.main, True))
    execute_traced = t.wrap("request", execute_traced, True)
    busy = {False: 0.0, True: 0.0}
    failures, attempted = [], 0
    requests = [req for r in range(TRACE_ROUNDS) for req in W.round_requests(workload, job["seed"], r)]
    for i, req in enumerate(requests):
        for with_trace in (i % 2 == 1, i % 2 == 0):
            if with_trace:
                t.request = i
                with t.installed():
                    got = run_requests(workload, [req], None, prepare, execute_traced)
            else:
                got = run_requests(workload, [req], None, prepare, execute)
            busy[with_trace] += got["busy_s"]
            failures += got["failures"]
            attempted += 1
    layers.update(t.layer_metrics())
    layers["trace.overhead_frac"] = busy[True] / busy[False] - 1
    Path(job["spans_path"]).parent.mkdir(parents=True, exist_ok=True)
    with open(job["spans_path"], "w", encoding="utf-8") as fh:
        json.dump({"columns": ["name", "request", "parent", "t0_s", "t1_s"], "spans": t.spans}, fh)
    return {
        "layers": layers,
        "attempted": attempted,
        "failures": failures,
        "not_pristine": tracer.check_pristine(),
        "spans": len(t.spans),
    }


def main() -> None:
    job = json.load(sys.stdin)
    result = traced(job) if job["trace"] else untraced(job)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
