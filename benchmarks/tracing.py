"""Call-site self times and counters for the traced benchmark run.

Nothing in `src/` is instrumented. `Tracer.install` replaces, for the
duration of a traced pass, each public function of `resgame` in every
module namespace where it is looked up at call time (the modules import
each other's functions by name), and `uninstall` puts the originals back.

Every wrapped call is timed on a stack of open calls. A call's self time
is its duration minus the time of the wrapped calls it made, so the
per-layer `_s` metrics partition a pass's traced time.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

# Per-layer metric -> (unit, workloads that exercise it, end-to-end metric it
# should move there). README.md holds the same table with the reasoning.
_ALL_GAMES = ("solve-law2", "sweep-law1", "export-matrix")
LAYER_METRICS = {
    "cli.self_s": ("s", ("export-matrix",), "wall_s"),
    "scenario_io.load_graph_s": ("s", ("export-matrix",), "wall_s"),
    "scenario_io.write_s": ("s", ("export-matrix",), "wall_s"),
    "scenario_io.bytes_out": ("B", ("export-matrix",), "wall_s"),
    "graphcore.graph_s": ("s", ("solve-law2",), "wall_s"),
    "graphcore.laplacian_calls": ("count", ("solve-law2",), "wall_s"),
    "graphcore.laplacian_s": ("s", ("solve-law2",), "wall_s"),
    "resistance.grounded_diag_calls": ("count", ("solve-law2",), "wall_s, task_p50_s"),
    "resistance.grounded_diag_s": ("s", ("solve-law2",), "wall_s, task_p50_s"),
    "resistance.factor_flops": ("flop_computed", ("solve-law2",), "wall_s, task_p50_s"),
    "resistance.resistance_matrix_calls": ("count", ("solve-law2",), "wall_s, task_p50_s"),
    "resistance.resistance_matrix_s": ("s", ("solve-law2",), "wall_s, task_p50_s"),
    "game.subsets": ("count", _ALL_GAMES, "peak_rss_mb"),
    "game.matrix_bytes": ("B_computed", _ALL_GAMES, "peak_rss_mb"),
    "game.build_matrix_s": ("s", _ALL_GAMES, "wall_s"),
    "game.find_nash_s": ("s", ("sweep-law1", "solve-law2"), "wall_s"),
    "game.nash_cells_scanned": ("count", ("sweep-law1", "solve-law2"), "wall_s"),
    "game.stackelberg_s": ("s", ("solve-law2", "sweep-law1"), "wall_s"),
    "game.predict_s": ("s", ("solve-law2",), "wall_s"),
    "dynamics.oracle_calls": ("count", ("h2-oracle",), "wall_s"),
    "dynamics.oracle_s": ("s", ("h2-oracle",), "wall_s"),
    "dynamics.closed_form_s": ("s", ("h2-oracle",), "wall_s"),
}
OVERHEAD_METRIC = "trace_overhead_s"
# Predicted bypasses: these metrics must read exactly 0 on these workloads.
BYPASSED = {
    "resistance.grounded_diag_calls": ("sweep-law1",),
    "dynamics.oracle_calls": ("solve-law2", "sweep-law1", "export-matrix"),
}

# Call-site name -> the self-time metric it feeds.
_SELF_METRIC = {
    "cli.main": "cli.self_s",
    "scenario_io.load_graph": "scenario_io.load_graph_s",
    "scenario_io.write": "scenario_io.write_s",
    "graphcore.graph": "graphcore.graph_s",
    "graphcore.laplacian": "graphcore.laplacian_s",
    "resistance.grounded_diag": "resistance.grounded_diag_s",
    "resistance.resistance_matrix": "resistance.resistance_matrix_s",
    "game.build_matrix": "game.build_matrix_s",
    "game.find_nash": "game.find_nash_s",
    "game.stackelberg": "game.stackelberg_s",
    "game.predict": "game.predict_s",
    "dynamics.oracle": "dynamics.oracle_s",
    "dynamics.closed_form": "dynamics.closed_form_s",
}


def _count_laplacian(counts, args, result):
    counts["graphcore.laplacian_calls"] += 1


def _count_grounded(counts, args, result):
    n = args[0].base.n
    counts["resistance.grounded_diag_calls"] += 1
    # computed, not measured: Cholesky n^3/3 plus an n-column solve 2n^3
    counts["resistance.factor_flops"] += n ** 3 / 3 + 2 * n ** 3


def _count_resistance_matrix(counts, args, result):
    counts["resistance.resistance_matrix_calls"] += 1


def _count_build(counts, args, result):
    size = result.index.size
    counts["game.subsets"] += size
    # computed as 8 N^2; the largest dense matrix built in the pass
    counts["game.matrix_bytes"] = max(counts["game.matrix_bytes"], 8 * size * size)


def _count_nash(counts, args, result):
    size = args[0].values.shape[0]
    counts["game.nash_cells_scanned"] += (
        size * size if result is None else result[0] * size + result[1] + 1
    )


def _count_oracle(counts, args, result):
    counts["dynamics.oracle_calls"] += 1


def _count_write(counts, args, result):
    counts["scenario_io.bytes_out"] += os.path.getsize(args[1])


def _call_sites(resgame):
    """(namespace, attribute, call-site name, counter) for every wrapped lookup."""
    cli, dyn, game, gc, res, sio = (
        resgame.cli, resgame.dynamics, resgame.game, resgame.graphcore,
        resgame.resistance, resgame.scenario_io,
    )
    return [
        (cli, "main", "cli.main", None),
        (sio, "load_graph", "scenario_io.load_graph", None),
        (sio, "write_json_report", "scenario_io.write", _count_write),
        (sio, "write_matrix_csv", "scenario_io.write", _count_write),
        (sio, "write_sweep_csv", "scenario_io.write", _count_write),
        (gc.Graph, "__post_init__", "graphcore.graph", None),
        (res, "laplacian", "graphcore.laplacian", _count_laplacian),
        (dyn, "laplacian", "graphcore.laplacian", _count_laplacian),
        (game, "grounded_inverse_diag", "resistance.grounded_diag", _count_grounded),
        (dyn, "grounded_inverse_diag", "resistance.grounded_diag", _count_grounded),
        (game, "resistance_matrix", "resistance.resistance_matrix", _count_resistance_matrix),
        (res, "resistance_matrix", "resistance.resistance_matrix", _count_resistance_matrix),
        (game, "build_matrix", "game.build_matrix", _count_build),
        (game, "find_nash", "game.find_nash", _count_nash),
        (game, "stackelberg_defender_leader", "game.stackelberg", None),
        (game, "predict_equilibrium", "game.predict", None),
        (cli, "h2_energy_oracle", "dynamics.oracle", _count_oracle),
        (dyn, "h2_energy_oracle", "dynamics.oracle", _count_oracle),
        (cli, "h2_closed_form", "dynamics.closed_form", None),
        (dyn, "h2_closed_form", "dynamics.closed_form", None),
    ]


class Tracer:
    """Self times and counters of one traced pass; reset with `start_pass`."""

    def __init__(self, resgame):
        self._sites = _call_sites(resgame)
        self._originals = None
        self.start_pass()

    def start_pass(self):
        self._stack = []  # [start, child time] of open calls
        self._self_s = defaultdict(float)
        self._counts = defaultdict(float)

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                self._stack.pop()
                self._self_s[name] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
            if counter is not None:
                counter(self._counts, args, result)
            return result

        return traced

    def install(self):
        self._originals = [(ns, attr, getattr(ns, attr)) for ns, attr, _, _ in self._sites]
        for (ns, attr, name, counter), (_, _, fn) in zip(self._sites, self._originals):
            setattr(ns, attr, self._wrap(fn, name, counter))

    def uninstall(self):
        for ns, attr, fn in self._originals:
            setattr(ns, attr, fn)
        self._originals = None

    def pass_metrics(self) -> dict:
        """This pass's per-layer metrics: self times and counts."""
        metrics = {name: 0.0 for name in LAYER_METRICS}
        for site, seconds in self._self_s.items():
            metrics[_SELF_METRIC[site]] = seconds
        metrics.update(self._counts)
        return metrics


def summarize(traced_passes: list[dict], traced_walls, untraced_walls) -> dict:
    """Median of each per-layer metric over traced passes, plus the overhead."""
    out = {name: statistics.median(p[name] for p in traced_passes) for name in LAYER_METRICS}
    out[OVERHEAD_METRIC] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return out
