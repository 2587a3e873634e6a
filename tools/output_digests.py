"""One sha256 per output file of every benchmark task, for byte checks.

Runs each task of the four workloads in benchmarks/workloads.py, for each
seed given, through `resgame.cli.main` in this process and prints
"<seed> <task id> <sha256 of the output file>" per task. Inputs and
outputs go to a temporary directory. Comparing two checkouts is then one
diff:

    python3 tools/output_digests.py --seeds 0-10 > after.txt
    python3 <other checkout>/tools/output_digests.py --seeds 0-10 > before.txt
    diff before.txt after.txt

After the four workloads, each seed runs `other-commands`: the commands
and options no workload runs, on that seed's workload graphs. They are
`centrality` on each solve-law2 graph; a law-2 `sweep` at gains 0.5,1,2,
in JSON and in CSV, on the first f = 1 and the first f = 2 solve-law2
graph; a law-1 `solve --f 2` on each export-matrix graph, at its task's
gain; law-2 `matrix --f 1` and `--f 3`, in JSON and in CSV, on the first
export-matrix graph at its task's gain; a law-2 `matrix --f 2` on a copy
of that graph with edge weights 10^U(-2, 2) (`random.Random` seeded by
the seed) and on a hub-and-path graph (node 0 with 20 leaves and a
20-node path, gain 0.7); a law-2 `matrix --f 2` at gain 1, in JSON and in
CSV, on a 30-node path and a 30-node star, whose round payoffs reach
every digit group of the shortest-repr kernel; and `h2 --config` for each
h2-oracle task, with the task's scenario in a config file that names its
graph file.

`--workloads sweep-law1,solve-law2` runs only those groups, in the order
of benchmarks/workloads.py and then `other-commands`, so checking one
takes seconds; `--workloads
solve-law2,sweep-law1,h2-oracle,export-matrix` prints the lines of the
benchmark's tasks alone.

Each task that succeeds is then run a second time into the same path,
after junk has been appended to its output so that the old file is
longer: an `--out` file is rewritten in place and cut to length, so the
second output must have the first one's digest. Each JSON task that
succeeds is also run once without `--out`, and its stdout is captured:
stdout and `--out` get the same bytes, so those must equal the file's.
The digests printed are those of the first run; a task whose second
digest or whose stdout differs is named on stderr, and the script exits 1
after printing every line.

The `resgame` and `benchmarks` imported are those of the checkout that
holds this script. BLAS runs on one thread unless OMP_NUM_THREADS or
OPENBLAS_NUM_THREADS is set: a threaded eigensolver can move the last bit
of a float between runs, and a digest shows that as a change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JUNK = b"\0junk past the end of the first output\n" * 100
OTHER = "other-commands"


def _digest(path: Path, code: int) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if code == 0 else f"exit {code}"


def _stdout(run, argv: list[str]) -> bytes:
    """What run(argv) prints to stdout, as bytes."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        run(argv)
    return captured.getvalue().encode()


def _seeds(text: str) -> list[int]:
    """"3" or "0-10" (inclusive) or "1,4,7"."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _other_commands(workloads, seed: int, inputs: Path) -> list[tuple[str, list[str], str]]:
    """(id, argv without --out, output suffix) of each command no workload runs, on the seed's graphs."""
    graphs = {}
    for name in ("solve-law2", "export-matrix", "h2-oracle"):
        task_list = workloads.tasks(name, seed)
        graphs[name] = list(zip(task_list, workloads.write_inputs(task_list, inputs / name)))
    runs = [(f"centrality-{task.id}", ["centrality", "--graph", str(graph)], ".json")
            for task, graph in graphs["solve-law2"]]
    for f in (1, 2):
        task, graph = next((task, graph) for task, graph in graphs["solve-law2"] if task.meta["f"] == f)
        for fmt in ("json", "csv"):
            argv = ["sweep", "--graph", str(graph), "--law", "2", "--f", str(f), "--gains", "0.5,1,2", "--format", fmt]
            runs.append((f"sweep-law2-{fmt}-{task.id}", argv, "." + fmt))
    for task, graph in graphs["export-matrix"]:
        gain = workloads._gain_arg(task.meta["gains"][0])
        runs.append((f"solve-law1-f2-{task.id}", ["solve", "--graph", str(graph), "--law", "1",
                                                   "--gain", gain, "--f", "2"], ".json"))
    task, graph = graphs["export-matrix"][0]
    gain = workloads._gain_arg(task.meta["gains"][0])
    for f in (1, 3):
        for fmt in ("json", "csv"):
            argv = ["matrix", "--graph", str(graph), "--law", "2", "--gain", gain, "--f", str(f), "--format", fmt]
            runs.append((f"matrix-law2-f{f}-{fmt}-{task.id}", argv, "." + fmt))
    rng = random.Random(f"weighted/{seed}")
    weighted = {"n": task.graph["n"], "edges": [[i, j, 10 ** rng.uniform(-2, 2)] for i, j in task.graph["edges"]]}
    hub = {"n": 41, "edges": [[0, i] for i in range(1, 22)] + [[i, i + 1] for i in range(21, 40)]}
    for name, obj, gain in (("weighted-" + task.id, weighted, gain), ("hub-and-path-n41", hub, "0.7")):
        path = inputs / (name + ".json")
        path.write_text(json.dumps(obj) + "\n")
        runs.append((f"matrix-law2-f2-{name}", ["matrix", "--graph", str(path), "--law", "2", "--gain", gain,
                                                 "--f", "2"], ".json"))
    path30, star30 = [[i, i + 1] for i in range(29)], [[0, i] for i in range(1, 30)]
    for name, edges in (("path-n30", path30), ("star-n30", star30)):  # many shortest digits end in 4+ zeros
        path = inputs / (name + ".json")
        path.write_text(json.dumps({"n": 30, "edges": edges}) + "\n")
        for fmt in ("json", "csv"):
            argv = ["matrix", "--graph", str(path), "--law", "2", "--gain", "1", "--f", "2", "--format", fmt]
            runs.append((f"matrix-law2-f2-{fmt}-{name}", argv, "." + fmt))
    for task, graph in graphs["h2-oracle"]:
        config = graph.with_name(task.id + ".config.json")
        scenario = {"graph": graph.name, "law": task.meta["law"], "gain": task.meta["gains"][0],
                    "defense": task.meta["defense"], "attack": task.meta["attack"]}
        config.write_text(json.dumps(scenario) + "\n")
        runs.append((f"h2-config-{task.id}", ["h2", "--config", str(config), "--oracle"], ".json"))
    return runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=[0], help='e.g. "0-10" or "1,4,7"')
    parser.add_argument("--workloads", type=lambda text: text.split(","), default=None,
                        help='e.g. "sweep-law1,solve-law2" (default: the four workloads and other-commands)')
    args = parser.parse_args()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before NumPy loads BLAS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks import workloads
    from resgame.cli import main as resgame_main

    groups = (*workloads.WORKLOADS, OTHER)
    chosen = groups if args.workloads is None else args.workloads
    unknown = sorted(set(chosen) - set(groups))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {list(groups)}")
    mismatched, unlike_stdout = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for name in (name for name in groups if name in chosen):
                work = Path(tmp) / f"{name}-{seed}"
                (work / "out").mkdir(parents=True)  # apart from the inputs, which share the task ids
                if name == OTHER:
                    runs = _other_commands(workloads, seed, work / "inputs")
                else:
                    task_list = workloads.tasks(name, seed)
                    inputs = workloads.write_inputs(task_list, work / "inputs")
                    runs = [(task.id, task.argv(graph, Path())[:-2], task.out_suffix)  # without --out
                            for task, graph in zip(task_list, inputs)]
                for run_id, argv, suffix in runs:
                    out = work / "out" / (run_id + suffix)
                    code = resgame_main([*argv, "--out", str(out)])
                    digest = _digest(out, code)
                    print(seed, run_id, digest, flush=True)
                    if code != 0:
                        continue
                    if suffix == ".json" and _stdout(resgame_main, argv) != out.read_bytes():
                        unlike_stdout.append(f"{seed} {run_id}")
                    with open(out, "ab") as fh:
                        fh.write(JUNK)
                    if _digest(out, resgame_main([*argv, "--out", str(out)])) != digest:
                        mismatched.append(f"{seed} {run_id}")
    for task in mismatched:
        print(f"overwrite changed the output of {task}", file=sys.stderr)
    for task in unlike_stdout:
        print(f"stdout differs from the --out file of {task}", file=sys.stderr)
    return 1 if mismatched or unlike_stdout else 0


if __name__ == "__main__":
    sys.exit(main())
