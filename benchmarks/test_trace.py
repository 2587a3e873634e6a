"""Benchmark-own checks of the traced run's per-layer predictions.

    python3 -m pytest benchmarks/test_trace.py

Outside Tier-1 (pytest's testpaths is tests/). Runs every workload once
with tracing on, one untraced and one traced pass, and checks that each
per-layer metric is non-zero on the workloads predicted to exercise it,
that the predicted bypasses read exactly 0, and that BENCHMARK.json lists
exactly the metrics the tracer produces.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def traced():
    return {w: run.measure(w, seed=0, seconds=0, trace=1) for w in workloads.WORKLOADS}


def test_benchmark_json_matches_the_tracer_and_workloads():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layer_names = [m["name"] for m in bench["per_layer"]]
    assert layer_names == [*tracing.LAYER_METRICS, tracing.OVERHEAD_METRIC]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert all(units[name] == unit for name, (unit, _, _) in tracing.LAYER_METRICS.items())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} <= set(run.E2E_UNITS)


def test_seed_fixes_the_inputs():
    for name in workloads.WORKLOADS:
        first = [(t.record(), t.graph, t.args) for t in workloads.tasks(name, 3)]
        assert first == [(t.record(), t.graph, t.args) for t in workloads.tasks(name, 3)]
        assert first != [(t.record(), t.graph, t.args) for t in workloads.tasks(name, 4)]


@pytest.mark.parametrize("metric", list(tracing.LAYER_METRICS))
def test_metric_is_nonzero_where_predicted(traced, metric):
    for name in tracing.LAYER_METRICS[metric][1]:
        line, report = traced[name]
        assert line["correct"] and line["failed"] == 0
        assert report["layers"][metric] > 0, f"{metric} is 0 on {name}"


@pytest.mark.parametrize("metric", list(tracing.BYPASSED))
def test_bypassed_layers_do_no_work(traced, metric):
    for name in tracing.BYPASSED[metric]:
        assert traced[name][1]["layers"][metric] == 0, f"{metric} is not 0 on {name}"


def test_every_layer_metric_and_the_overhead_are_reported(traced):
    for line, _ in traced.values():
        assert set(line["metrics"]) == {*tracing.LAYER_METRICS, tracing.OVERHEAD_METRIC}
