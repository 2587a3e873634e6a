"""The benchmark's law-2 solves, certified rows against the exact table, byte for byte.

benchmarks/workloads.py builds the benchmark's seeded task lists; it is
only read here. A child interpreter, with BLAS on one thread as in the
benchmark, runs each solve-law2 task of seed 0 through `resgame.cli.main`
twice: once as shipped, deciding from the low-rank rows, and once with
`build_matrix` returning games whose exact table is already set, which
makes τ = 0. Both runs share one BLAS, so the two reports must be equal
whatever the BLAS build.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import resgame

ROOT = Path(__file__).resolve().parents[1]
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Writes every task's two reports to <out>/<task id>-{certified,exact}.json
# and prints the task ids as one JSON list.
_CHILD = """
import importlib.util, json, sys
from pathlib import Path
import resgame.game as game
from resgame.cli import main

workloads_py, out = sys.argv[1], Path(sys.argv[2])
spec = importlib.util.spec_from_file_location("benchmark_workloads", workloads_py)
workloads = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = workloads  # its dataclasses look their module up
spec.loader.exec_module(workloads)
build = game.build_matrix

def exact_game(g, gain, f, law):
    m = build(g, gain, f, law)
    vars(m)["rows"] = game._payoff_rows(g, gain, m.law, m.index.subsets)
    return m

tasks = workloads.tasks("solve-law2", 0)
for task, graph in zip(tasks, workloads.write_inputs(tasks, out)):
    game.build_matrix = build
    assert main(task.argv(graph, out / f"{task.id}-certified.json")) == 0, task.id
    game.build_matrix = exact_game
    assert main(task.argv(graph, out / f"{task.id}-exact.json")) == 0, task.id
print(json.dumps([task.id for task in tasks]))
"""


def test_solve_law2_reports_equal_the_exact_tables(tmp_path):
    src = str(Path(resgame.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(ROOT / "benchmarks" / "workloads.py"), str(tmp_path)],
        env={**os.environ, **ONE_THREAD, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300, check=True,
    )
    ids = json.loads(child.stdout.splitlines()[-1])
    assert len(ids) == 18
    for tid in ids:
        certified = (tmp_path / f"{tid}-certified.json").read_bytes()
        assert certified == (tmp_path / f"{tid}-exact.json").read_bytes(), tid
