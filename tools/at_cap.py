"""Time, peak memory and output of `resgame` at and past the enumeration cap.

Runs the commands of the ROADMAP's at-cap table, each in a fresh child
interpreter with one BLAS thread, on
`verify.random_connected_graph(numpy.random.default_rng(1), n)` (unit
weights) at gain 1, with RESGAME_ENUM_CAP raised to N = C(n, f) for the
rows past the default cap. Every command writes its report with --out
into a temporary directory. Prints one line per command:

    law-<l> <command> n=<n> f=<f> N=<N> exit=<code> <main call> s <child ru_maxrss> MB <output> B <sha256>

    python3 tools/at_cap.py                  # every row: about 70 s, up to 0.9 GB resident
    python3 tools/at_cap.py --only matrix    # the rows whose command names "matrix"

The `resgame` run is that of the checkout that holds this script, so
comparing two checkouts is one diff of the sha256 columns.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (command, law, n, f); N above the default cap of 10,000 raises the cap to N
ROWS = [
    ("solve", 2, 141, 2),
    ("solve", 2, 40, 3),
    ("solve", 1, 141, 2),
    ("matrix", 2, 141, 2),
    ("matrix", 1, 141, 2),
    ("solve", 2, 100, 3),
    ("solve", 2, 400, 2),
    ("solve", 2, 40, 5),
    ("solve", 1, 300, 3),
    ("solve", 1, 40, 5),
]

_CHILD = """
import json, resource, sys, time
from resgame.cli import main
argv = json.loads(sys.argv[1])
start = time.perf_counter()
code = main(argv)
seconds = time.perf_counter() - start
print(json.dumps({"code": code, "seconds": seconds,
                  "peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default="", help='the rows whose label ("law-2 matrix") holds this')
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src")]
    import numpy as np

    from resgame.scenario_io import write_graph
    from resgame.verify import random_connected_graph

    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONPATH": str(ROOT / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        for command, law, n, f in ROWS:
            label = f"law-{law} {command}"
            if args.only not in label:
                continue
            size = math.comb(n, f)
            graph, out = Path(tmp) / f"graph-{n}.json", Path(tmp) / "report.json"
            write_graph(random_connected_graph(np.random.default_rng(1), n), graph)
            argv = [command, "--graph", str(graph), "--law", str(law), "--gain", "1", "--f", str(f),
                    "--out", str(out)]
            child_env = {**env, "RESGAME_ENUM_CAP": str(max(size, 10_000))}
            child = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argv)], env=child_env,
                                   capture_output=True, text=True, check=True)
            result = json.loads(child.stdout.splitlines()[-1])
            written = out.stat().st_size if out.exists() else 0
            digest = _sha256(out) if out.exists() else "-"
            print(f"{label} n={n} f={f} N={size} exit={result['code']} {result['seconds']:.2f} s "
                  f"{result['peak_kb'] / 1024:.0f} MB {written} B {digest}", flush=True)
            out.unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
