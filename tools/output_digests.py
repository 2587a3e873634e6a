"""One sha256 per output file of every benchmark task, for byte checks.

Runs each task of the four workloads in benchmarks/workloads.py, for each
seed given, through `resgame.cli.main` in this process and prints
"<seed> <task id> <sha256 of the output file>" per task. Inputs and
outputs go to a temporary directory. Comparing two checkouts is then one
diff:

    python3 tools/output_digests.py --seeds 0-10 > after.txt
    python3 <other checkout>/tools/output_digests.py --seeds 0-10 > before.txt
    diff before.txt after.txt

`--workloads sweep-law1,solve-law2` runs only those workloads, in the
order of benchmarks/workloads.py, so checking one takes seconds.

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
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JUNK = b"\0junk past the end of the first output\n" * 100


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=[0], help='e.g. "0-10" or "1,4,7"')
    parser.add_argument("--workloads", type=lambda text: text.split(","), default=None,
                        help='e.g. "sweep-law1,solve-law2" (default: all four)')
    args = parser.parse_args()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before NumPy loads BLAS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks import workloads
    from resgame.cli import main as resgame_main

    chosen = workloads.WORKLOADS if args.workloads is None else args.workloads
    unknown = sorted(set(chosen) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {list(workloads.WORKLOADS)}")
    mismatched, unlike_stdout = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for name in (name for name in workloads.WORKLOADS if name in chosen):
                task_list = workloads.tasks(name, seed)
                work = Path(tmp) / f"{name}-{seed}"
                (work / "out").mkdir(parents=True)  # apart from the inputs, which share the task ids
                for task, graph in zip(task_list, workloads.write_inputs(task_list, work / "inputs")):
                    out = work / "out" / (task.id + task.out_suffix)
                    code = resgame_main(task.argv(graph, out))
                    digest = _digest(out, code)
                    print(seed, task.id, digest, flush=True)
                    if code != 0:
                        continue
                    if task.out_suffix == ".json":
                        argv = task.argv(graph, out)[:-2]  # without its trailing --out PATH
                        if _stdout(resgame_main, argv) != out.read_bytes():
                            unlike_stdout.append(f"{seed} {task.id}")
                    with open(out, "ab") as fh:
                        fh.write(JUNK)
                    if _digest(out, resgame_main(task.argv(graph, out))) != digest:
                        mismatched.append(f"{seed} {task.id}")
    for task in mismatched:
        print(f"overwrite changed the output of {task}", file=sys.stderr)
    for task in unlike_stdout:
        print(f"stdout differs from the --out file of {task}", file=sys.stderr)
    return 1 if mismatched or unlike_stdout else 0


if __name__ == "__main__":
    sys.exit(main())
