"""Byte stability of the CLI's game outputs.

Each case runs one `solve`, `sweep`, `matrix`, `h2 --oracle` or
`centrality` command on a fixed graph
from tests/golden/ and compares the bytes it writes with the file
tests/golden/<graph>-<case> recorded from the same command. A change that
moves any value by one bit, reorders a key or changes a tie-break fails
here. The f = 3 cases pin the payoff cell's summation order (the three
entries added in ascending order of value), which f <= 2 cannot show.

Output bytes hold per BLAS build and thread count, so all cases run in
one child interpreter with BLAS on one thread: the thread count of a
BLAS already loaded cannot be changed from within the process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resgame

GOLDEN = Path(__file__).resolve().parent / "golden"

# kite.txt: unit weights, unique max-degree node, NE threshold 1/3;
# weighted.json: weighted degrees, which the law-1 predictions read alike
GRAPHS = ("kite.txt", "weighted.json")

CSV = ["--format", "csv"]
CASES = {
    "solve-law1-f1.json": ["solve", "--law", "1", "--gain", "0.25", "--f", "1"],
    "solve-law1-f2.json": ["solve", "--law", "1", "--gain", "3", "--f", "2"],
    "solve-law2-f1.json": ["solve", "--law", "2", "--gain", "0.5", "--f", "1"],
    "solve-law2-f2.json": ["solve", "--law", "2", "--gain", "0.7", "--f", "2"],
    "solve-law1-f3.json": ["solve", "--law", "1", "--gain", "3", "--f", "3"],
    "solve-law2-f3.json": ["solve", "--law", "2", "--gain", "0.7", "--f", "3"],
    "sweep-law1-f1.json": ["sweep", "--law", "1", "--f", "1", "--gains", "0.1,0.25,0.5,1"],
    "sweep-law1-f1.csv": ["sweep", "--law", "1", "--f", "1", "--gains", "0.1,0.25,0.5,1", *CSV],
    "sweep-law2-f2.json": ["sweep", "--law", "2", "--f", "2", "--gains", "0.5,1,2"],
    "sweep-law2-f2.csv": ["sweep", "--law", "2", "--f", "2", "--gains", "0.5,1,2", *CSV],
    "matrix-law1-f1.json": ["matrix", "--law", "1", "--gain", "0.5", "--f", "1"],
    "matrix-law1-f1.csv": ["matrix", "--law", "1", "--gain", "0.5", "--f", "1", *CSV],
    "matrix-law2-f2.json": ["matrix", "--law", "2", "--gain", "1.5", "--f", "2"],
    "matrix-law2-f2.csv": ["matrix", "--law", "2", "--gain", "1.5", "--f", "2", *CSV],
    "matrix-law1-f3.json": ["matrix", "--law", "1", "--gain", "0.5", "--f", "3"],
    "matrix-law2-f3.json": ["matrix", "--law", "2", "--gain", "1.5", "--f", "3"],
    "h2-law1-oracle.json": ["h2", "--law", "1", "--gain", "0.5", "--attack", "0,3", "--oracle"],
    "h2-law1-defended-oracle.json": [
        "h2", "--law", "1", "--gain", "2", "--defense", "1", "--attack", "1,4", "--oracle",
    ],
    "h2-law2-oracle.json": [
        "h2", "--law", "2", "--gain", "1.5", "--defense", "0,2", "--attack", "1,3", "--oracle",
    ],
    "centrality.json": ["centrality"],
}


ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Runs each job {name: argv} with `resgame.cli.main`, writing <out>/<name>,
# and prints the exit codes as one JSON object.
_CHILD = """
import json, sys
from resgame.cli import main
out, jobs = sys.argv[1], json.loads(sys.argv[2])
print(json.dumps({name: main([*argv, "--out", f"{out}/{name}"]) for name, argv in jobs.items()}))
"""


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """(directory of <graph>-<case> outputs, their exit codes), from one one-thread child."""
    out = tmp_path_factory.mktemp("golden")
    jobs = {f"{Path(graph).stem}-{case}": [*argv, "--graph", str(GOLDEN / graph)]
            for graph in GRAPHS for case, argv in CASES.items()}
    src = str(Path(resgame.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(out), json.dumps(jobs)],
        env={**os.environ, **ONE_THREAD, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300, check=True,
    )
    return out, json.loads(child.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("graph", GRAPHS)
def test_output_bytes_match_golden(outputs, graph, case):
    directory, codes = outputs
    name = f"{Path(graph).stem}-{case}"
    assert codes[name] == 0
    assert (directory / name).read_bytes() == (GOLDEN / name).read_bytes()
