"""Per-layer tracing for the benchmark, installed from the benchmark's own files.

The library is not edited.  For a traced run, wrappers replace library
functions under the names the library looks them up by:

* ``scenario`` binds ``sieve_primes`` and ``PrimePower`` by name, and
  ``PrimePower.from_value`` is a class attribute, so ``arith.sieve_primes``,
  ``scenario.sieve_primes`` and the class attribute are patched.
* ``fields`` binds ``kronecker`` by name; ``scenario`` imports
  ``norms_above`` at call time, so ``fields.norms_above`` is enough.
* ``scenario`` reaches ``tv.optimize`` and ``cli`` reaches ``scenario``,
  ``propgroups`` and ``oracle`` through module attributes; inside each
  module, calls go through its globals, which are the same attributes.

Coarse calls are timed and kept as spans (name, request, parent span,
start, end) in memory; hot leaf calls are timed into totals only; the
hottest (Kronecker symbol, form composition) are only counted.  Self time
is a call's duration minus the time covered by the timed calls it made.

Which end-to-end metric each layer metric should move, on which workload:

* ``arith.*`` and ``fields.*``: ``req_p50_ms`` and ``throughput_rps`` on
  scenario-deep; nothing on invariants-scan.
* ``scenario.build_candidates.*``, ``candidates_built``, ``candidate_yield``:
  ``req_p50_ms``, ``req_p90_ms`` and ``peak_rss_mb`` on scenario-deep.
  ``parse_scenario.ms``, ``run_scenario.self_ms`` and ``dump_report.ms``:
  ``req_p50_ms`` on scenario-deep, slightly.  ``scenario.packaged.*`` is
  in-process ``run_scenario`` per packaged example, measured on its own; no
  workload runs the packaged examples.
* ``tv.optimize.*``: ``req_p50_ms`` on scenario-deep.
* ``propgroups.*``: ``req_p50_ms`` and ``req_p90_ms`` on invariants-scan;
  nothing on scenario-deep.
* ``oracle.*``: ``throughput_rps`` and ``req_p90_ms`` on invariants-scan.
* ``cli.import_ms``: ``setup_s`` on invariants-scan; ``cli.main_inproc_ms``:
  ``req_p50_ms`` on invariants-scan (``cli.interp_startup_ms`` is reported
  but is not a target).
* ``trace.overhead_frac``: nothing; it is the cost of tracing itself.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

from meanexp import arith, errors, fields, oracle, propgroups, scenario, tv

MARK = "_perfbench_wrapper"


# (owner, attribute, home module, home attribute, metric name, mode); mode is
# "span" (timed, kept as a span), "timed" (timed into totals) or "count".  A
# name bound in several modules shares one wrapper.
SITES = [
    (arith, "sieve_primes", arith, "sieve_primes", "arith.sieve_primes", "timed"),
    (scenario, "sieve_primes", arith, "sieve_primes", "arith.sieve_primes", "timed"),
    (fields, "kronecker", arith, "kronecker", "arith.kronecker", "count"),
    (arith.PrimePower, "from_value", arith.PrimePower, "from_value",
     "arith.prime_power_from_value", "timed"),
    (fields, "norms_above", fields, "norms_above", "fields.norms_above", "timed"),
    (scenario, "parse_scenario", scenario, "parse_scenario", "scenario.parse_scenario", "span"),
    (scenario, "build_candidates", scenario, "build_candidates", "scenario.build_candidates", "span"),
    (scenario, "run_scenario_obj", scenario, "run_scenario_obj", "scenario.run_scenario", "span"),
    (scenario, "dump_report", scenario, "dump_report", "scenario.dump_report", "span"),
    (tv, "optimize", tv, "optimize", "tv.optimize", "span"),
    (propgroups, "gs_series", propgroups, "gs_series", "propgroups.gs_series", "span"),
    (propgroups, "zassenhaus_ranks", propgroups, "zassenhaus_ranks", "propgroups.zassenhaus_ranks", "span"),
    (propgroups, "theo2_witnesses", propgroups, "theo2_witnesses", "propgroups.theo2_witnesses", "span"),
    (oracle, "class_number", oracle, "class_number", "oracle.class_number", "span"),
    (oracle, "class_group_structure", oracle, "class_group_structure",
     "oracle.class_group_structure", "span"),
    (oracle, "reduced_forms", oracle, "reduced_forms", "oracle.reduced_forms", "span"),
    (oracle, "compose", oracle, "compose", "oracle.compose", "count"),
]


def check_pristine() -> list[str]:
    """Names that are not the library's own object; empty when untouched."""
    problems = []
    for owner, attr, home, home_attr, _name, _mode in SITES:
        current = vars(owner)[attr]
        original = vars(home)[home_attr]
        func = current.__func__ if isinstance(current, classmethod) else current
        if current is not original or hasattr(func, MARK):
            problems.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return problems


class Tracer:
    """Spans, totals and counters of one traced run, kept in memory."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.spans: list[list] = []  # [name, request, parent, t0, t1]
        self.request = -1
        self._stack: list[list] = []  # per open call: [child_s, span or parent index]
        self._forms_seen: set[tuple[int, int]] = set()

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def wrap(self, name: str, fn, keep_span: bool, after=None, error=None):
        """fn timed under name; after(args, result) and error(exc) observe it.

        Wrappers made under one name share its totals.
        """
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if keep_span:
                frame = [0.0, len(spans)]
                spans.append([name, self.request, parent, 0.0, 0.0])
            else:
                frame = [0.0, parent]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if error is not None:
                    error(exc)
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if keep_span:
                    spans[frame[1]][3:] = [t0, t1]
            if after is not None:
                after(args, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def count(self, name: str, fn):
        cell = self.stats.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    def _hooks(self):
        def forms(args, _result):
            self._forms_seen.add((self.request, args[0]))

        def optimized(_args, sol):
            self.add("scenario.candidates_useful", len(sol.prefix) + (sol.ell_star_0 is not None))

        def optimize_failed(exc):
            if isinstance(exc, errors.NeedsLargerEnumerationError):
                self.add("tv.optimize.retries", 1)

        def witnessed(_args, rows):
            exact = sum(1 for row in rows if row.regime == "exact")
            self.add("propgroups.rows_exact", exact)
            self.add("propgroups.rows_float_log", len(rows) - exact)

        return {
            "arith.sieve_primes": (lambda args, _r: self.add("arith.sieve_primes.sieved_n", args[0]), None),
            "scenario.build_candidates": (lambda _a, r: self.add("scenario.candidates_built", len(r)), None),
            "scenario.dump_report": (lambda _a, r: self.add("scenario.report_bytes", len(r)), None),
            "tv.optimize": (optimized, optimize_failed),
            "propgroups.gs_series": (lambda _a, r: self.add("propgroups.series_terms", len(r.coeffs)), None),
            "propgroups.theo2_witnesses": (witnessed, None),
            "oracle.reduced_forms": (forms, None),
        }

    @contextlib.contextmanager
    def installed(self):
        """Wrappers in place for the body; originals restored afterwards."""
        hooks = self._hooks()
        saved = []
        shared: dict[str, object] = {}
        try:
            for owner, attr, _home, _home_attr, name, mode in SITES:
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if name not in shared:
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    if mode == "count":
                        wrapped = self.count(name, fn)
                    else:
                        after, error = hooks.get(name, (None, None))
                        wrapped = self.wrap(name, fn, mode == "span", after, error)
                    shared[name] = classmethod(wrapped) if isinstance(raw, classmethod) else wrapped
                setattr(owner, attr, shared[name])
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics: totals over the traced requests."""

        def calls(name):
            return self.stats.get(name, [0])[0]

        def ms(name, column=1):
            entry = self.stats.get(name)
            return entry[column] * 1000 if entry else 0.0

        def counter(name):
            return self.counts.get(name, 0)

        built = counter("scenario.candidates_built")
        forms = calls("oracle.reduced_forms")
        return {
            "arith.sieve_primes.calls": calls("arith.sieve_primes"),
            "arith.sieve_primes.sieved_n": counter("arith.sieve_primes.sieved_n"),
            "arith.sieve_primes.ms": ms("arith.sieve_primes"),
            "arith.kronecker.calls": calls("arith.kronecker"),
            "arith.prime_power_from_value.calls": calls("arith.prime_power_from_value"),
            "arith.prime_power_from_value.ms": ms("arith.prime_power_from_value"),
            "fields.norms_above.calls": calls("fields.norms_above"),
            "fields.norms_above.ms": ms("fields.norms_above"),
            "scenario.build_candidates.calls": calls("scenario.build_candidates"),
            "scenario.build_candidates.ms": ms("scenario.build_candidates"),
            "scenario.candidates_built": built,
            "scenario.candidate_yield": counter("scenario.candidates_useful") / built if built else 0.0,
            "scenario.parse_scenario.ms": ms("scenario.parse_scenario"),
            "scenario.run_scenario.self_ms": ms("scenario.run_scenario", 2),
            "scenario.dump_report.ms": ms("scenario.dump_report"),
            "scenario.report_bytes": counter("scenario.report_bytes"),
            "tv.optimize.calls": calls("tv.optimize"),
            "tv.optimize.retries": counter("tv.optimize.retries"),
            "tv.optimize.ms": ms("tv.optimize"),
            "propgroups.gs_series.ms": ms("propgroups.gs_series"),
            "propgroups.zassenhaus_ranks.ms": ms("propgroups.zassenhaus_ranks"),
            "propgroups.theo2_witnesses.ms": ms("propgroups.theo2_witnesses"),
            "propgroups.series_terms": counter("propgroups.series_terms"),
            "propgroups.rows_exact": counter("propgroups.rows_exact"),
            "propgroups.rows_float_log": counter("propgroups.rows_float_log"),
            "oracle.class_number.ms": ms("oracle.class_number"),
            "oracle.class_group_structure.ms": ms("oracle.class_group_structure"),
            "oracle.reduced_forms.calls": forms,
            "oracle.reduced_forms.ms": ms("oracle.reduced_forms"),
            "oracle.reduced_forms.repeat_frac": (forms - len(self._forms_seen)) / forms if forms else 0.0,
            "oracle.compose.calls": calls("oracle.compose"),
            "cli.main_inproc_ms": ms("cli.main"),
        }
