"""Benchmark tasks run two ways, byte for byte.

benchmarks/workloads.py builds the benchmark's seeded task lists; it is
only read here. A child interpreter, with BLAS on one thread as in the
benchmark, runs seed-0 tasks through `resgame.cli.main` once per variant,
all through one runner:
- each solve-law2 task as shipped, deciding from the low-rank rows, and
  with `build_matrix` returning games whose exact table is already set,
  which makes τ = 0;
- each sweep-law1 task and each law-1 export-matrix task as shipped, and
  with `SubsetIndex.subsets` enumerated by `itertools.combinations` and
  the law-1 `_payoff_rows` divided by 1 + κ·y with y the 0/1 indicator
  matrix, the builds the array-op ones replaced;
- each sweep-law1 task once more with every `GameMatrix` given its exact
  table `rows` when it is made, so the solvers scan W's columns instead
  of reading the costs;
- each export-matrix task, both laws, JSON and CSV, once more with the
  report written by json.dumps of each array's .tolist(), the payoff
  matrix's cell blocks joined into one, and the CSV by csv.writer with
  repr cells of `values`, renderers independent of scenario_io's.
Both variants share one BLAS, so their reports must be equal whatever
the BLAS build.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resgame

ROOT = Path(__file__).resolve().parents[1]
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Writes every task's report to <out>/<task id>-<variant><suffix> and
# prints {workload: [task ids]} as one JSON line.
_CHILD = """
import contextlib, csv, importlib.util, itertools, json, sys
from collections.abc import Iterator
from functools import cached_property
from pathlib import Path
from unittest import mock
import numpy as np
import resgame.game as game
import resgame.scenario_io as scenario_io
from resgame.cli import main
from resgame.graphcore import degrees

workloads_py, out = sys.argv[1], Path(sys.argv[2])
spec = importlib.util.spec_from_file_location("benchmark_workloads", workloads_py)
workloads = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = workloads  # its dataclasses look their module up
spec.loader.exec_module(workloads)
build, payoff_rows = game.build_matrix, game._payoff_rows

def exact_game(g, gain, f, law):
    m = build(g, gain, f, law)
    vars(m)["rows"] = payoff_rows(g, gain, m.law, m.index.subsets)
    return m

def listed_subsets(self):
    subsets = np.fromiter(itertools.combinations(range(self.n), self.f),
                          dtype=np.dtype((np.intp, self.f)), count=self.size)
    subsets.flags.writeable = False
    return subsets

listed = cached_property(listed_subsets)
listed.__set_name__(game.SubsetIndex, "subsets")

def indicator_rows(g, gain, law, sets):
    if law is not game.ControlLaw.ABS_VELOCITY:
        return payoff_rows(g, gain, law, sets)
    y = np.zeros((len(sets), g.n))
    y[np.arange(len(sets))[:, None], sets] = 1.0
    return 0.5 * (degrees(g) + 1.0)[None, :] / (1.0 + gain * y)

def exact_tables():
    init = game.GameMatrix.__init__
    def exact_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        vars(self)["rows"] = payoff_rows(self.graph, self.gain, self.law, self.index.subsets)
    return mock.patch.object(game.GameMatrix, "__init__", exact_init)

@contextlib.contextmanager
def reference_builds():
    with mock.patch.object(game.SubsetIndex, "subsets", listed), \\
            mock.patch.object(game, "_payoff_rows", indicator_rows):
        yield

def plain_json(obj, path):
    # the matrix comes as `GameMatrix.cell_blocks`, the blocks `values` is filled from
    plain = {key: np.concatenate(list(v)).tolist() if isinstance(v, Iterator)
             else v.tolist() if isinstance(v, np.ndarray) else v for key, v in obj.items()}
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(plain, indent=2, sort_keys=True) + "\\n")

def plain_csv(m, path):
    heads = [f"{r}:{'+'.join(map(str, sub))}" for r, sub in enumerate(m.index.subsets.tolist())]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["defender\\\\attacker"] + heads)
        for head, row in zip(heads, m.values.tolist()):
            writer.writerow([head] + [repr(x) for x in row])

def plain_writers():
    return mock.patch.multiple(scenario_io, write_json_report=plain_json, write_matrix_csv=plain_csv)

def run(workload, variants, keep=lambda task: True):
    tasks = [task for task in workloads.tasks(workload, 0) if keep(task)]
    for task, graph in zip(tasks, workloads.write_inputs(tasks, out)):
        for name, variant in variants.items():
            with variant():
                code = main(task.argv(graph, out / f"{task.id}-{name}{task.out_suffix}"))
            assert code == 0, (task.id, name)
    return [task.id for task in tasks]

shipped = contextlib.nullcontext
print(json.dumps({
    "solve-law2": run("solve-law2", {
        "shipped": shipped, "reference": lambda: mock.patch.object(game, "build_matrix", exact_game)}),
    "sweep-law1": run("sweep-law1", {"shipped": shipped, "reference": reference_builds,
                                     "exact": exact_tables}),
    "export-matrix": run("export-matrix", {"shipped": shipped, "reference": reference_builds},
                         keep=lambda task: task.meta["law"] == 1),
    "export-matrix-rendered": run("export-matrix", {"shipped": shipped, "rendered": plain_writers}),
}))
"""


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """(directory, {workload: task ids}) of one child run of every variant."""
    out = tmp_path_factory.mktemp("workload-reports")
    src = str(Path(resgame.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(ROOT / "benchmarks" / "workloads.py"), str(out)],
        env={**os.environ, **ONE_THREAD, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300, check=True,
    )
    return out, json.loads(child.stdout.splitlines()[-1])


def _assert_variants_equal(out: Path, ids: list[str], variant: str = "reference") -> None:
    for tid in ids:
        (shipped,) = out.glob(f"{tid}-shipped.*")
        other = shipped.with_name(shipped.name.replace("-shipped.", f"-{variant}."))
        assert shipped.read_bytes() == other.read_bytes(), tid


def test_solve_law2_reports_equal_the_exact_tables(reports):
    out, ids = reports
    assert len(ids["solve-law2"]) == 18
    _assert_variants_equal(out, ids["solve-law2"])


def test_law1_reports_equal_the_itertools_and_indicator_builds(reports):
    out, ids = reports
    assert (len(ids["sweep-law1"]), len(ids["export-matrix"])) == (15, 7)
    _assert_variants_equal(out, ids["sweep-law1"] + ids["export-matrix"])


def test_law1_sweeps_equal_the_exact_table_scans(reports):
    out, ids = reports
    assert len(ids["sweep-law1"]) == 15
    _assert_variants_equal(out, ids["sweep-law1"], "exact")


def test_matrix_exports_equal_json_dumps_and_csv_writer(reports):
    out, ids = reports
    exported = ids["export-matrix-rendered"]
    assert len(exported) == 14
    assert {tid.split("-", 3)[3] for tid in exported} == {
        "law1-json", "law1-csv", "law2-json", "law2-csv"}
    _assert_variants_equal(out, exported, "rendered")
