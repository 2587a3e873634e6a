"""Byte stability of the CLI's game outputs.

Each case runs one `solve`, `sweep` or `matrix` command on a fixed graph
from tests/golden/ and compares the bytes it writes with the file
tests/golden/<graph>-<case> recorded from the same command. A change that
moves any value by one bit, reorders a key or changes a tie-break fails
here. The f = 3 cases pin the payoff cell's summation order (the three
entries added in ascending order of value), which f <= 2 cannot show.
"""

from pathlib import Path

import pytest

from resgame.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# kite.txt: unit weights, unique max-degree node, NE threshold 1/3, so the
# law-1 predictions apply; weighted.json: law-1 predictions return "none"
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
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("graph", GRAPHS)
def test_output_bytes_match_golden(tmp_path, graph, case):
    out = tmp_path / case
    assert main([*CASES[case], "--graph", str(GOLDEN / graph), "--out", str(out)]) == 0
    golden = GOLDEN / f"{Path(graph).stem}-{case}"
    assert out.read_bytes() == golden.read_bytes()
