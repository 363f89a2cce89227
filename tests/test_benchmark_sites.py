"""The library names the benchmark's tracer wraps must stay in place.

``perfbench/tracer.py`` reads each of its ``SITES`` from the library module
by name in every run, traced or not; a missing name fails every benchmark
run.
"""

import importlib.util
from pathlib import Path

import pytest

from meanexp import cli, scenario

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sites_are_the_library_own(tracer):
    assert tracer.check_pristine() == []


def test_traced_scenario_counts_its_layers(tracer):
    t = tracer.Tracer()
    with t.installed():
        assert tracer.check_pristine() != []
        report = cli.run_packaged_example("example1")
        # the dump span sees the one dump and counts its bytes
        text = scenario.dump_report(report)
    assert tracer.check_pristine() == []
    layers = t.layer_metrics()
    assert layers["tv.optimize.calls"] == 1
    assert t.stats["scenario.dump_report"][0] == 1
    assert t.counts["scenario.report_bytes"] == len(text)
    assert layers["scenario.run_scenario.self_ms"] > 0
    assert t.counts["scenario.candidates_useful"] > 0
