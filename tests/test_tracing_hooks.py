"""The benchmark tracer's hooks into `resgame`, checked without running the benchmark.

benchmarks/tracing.py wraps `resgame` functions by (namespace, attribute)
and reads `args[0].base.n` from each GroundedSystem it sees, so renaming
either in src/ breaks the traced benchmark run. The file is loaded here
as it is, from its path.
"""

import importlib.util
from pathlib import Path

import pytest

import resgame.cli  # imports every module that the call sites name
from resgame import ControlLaw, build_matrix, solve
from resgame.graphcore import path_graph
from resgame.resistance import GroundedSystem

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_call_site_resolves():
    sites = _load_tracing()._call_sites(resgame)
    assert sites
    for namespace, attribute, name, _ in sites:
        assert callable(getattr(namespace, attribute, None)), f"{name}: {namespace!r}.{attribute}"


def test_grounded_system_keeps_base():
    g = path_graph(3)
    assert GroundedSystem(g, (0,), 1.0).base is g


def test_traced_law2_solve_counts_grounded_rows_and_restores_originals():
    tracing = _load_tracing()
    tracer = tracing.Tracer(resgame)
    before = [getattr(ns, attr) for ns, attr, _, _ in tracing._call_sites(resgame)]
    tracer.install()
    try:
        # find_nash's counter reads `values`, which factors every one of the 4 rows
        solve(resgame.game.build_matrix(path_graph(4), 1.0, 1, ControlLaw.REL_VELOCITY))
    finally:
        tracer.uninstall()
    metrics = tracer.pass_metrics()
    calls = metrics["resistance.grounded_diag_calls"]
    assert calls >= 4
    assert metrics["resistance.factor_flops"] == pytest.approx(calls * (4**3 / 3 + 2 * 4**3))
    assert [getattr(ns, attr) for ns, attr, _, _ in tracing._call_sites(resgame)] == before
    assert resgame.game.build_matrix is build_matrix
