"""Runs one workload's seeded task list in-process through `resgame.cli.main`.

run.py starts this in a fresh interpreter with BLAS threads pinned. It
imports resgame, writes the input files and prints "ready": that is the
end of set-up. Unless --setup-only, it then runs passes over the task
list, one `cli.main(argv)` call at a time, until the next pass would not
fit in --seconds (but at least --min-passes), and prints one JSON line:
per-pass and per-task times, speed-probe times, exit codes and output
digests, the per-layer metrics of traced passes, versions, and its peak
resident memory. A task that raises, or exits through SystemExit, is
recorded as failed and the pass goes on.

With --trace 1 the passes alternate untraced and traced, so both see the
same warm state and their difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

PROBE_SIZE = 80  # the probe's matrix order


class SpeedProbe:
    """A fixed piece of benchmark-own work, timed after every task.

    Shared hosts drift in speed by tens of percent over minutes. The probe's
    time, taken in the same process right after each task, lets run.py
    scale task times to a reference speed. It mixes the kinds of work the
    workloads do: a Python scan over NumPy scalars (like find_nash), a
    Python edge loop filling a Laplacian (like graphcore.laplacian), a loop
    of small matrix products and reductions (like the oracle's time steps)
    and Cholesky solves (like the grounded factorization).
    """

    def __init__(self):
        import numpy as np
        import scipy.linalg

        self._np, self._linalg = np, scipy.linalg
        n = PROBE_SIZE
        self._values = np.random.default_rng(0).random((n, n))
        self._edges = [(i, (7 * i + 3) % n) for i in range(n) if (7 * i + 3) % n != i]
        self._step = np.eye(24) * 0.5
        self._spd = [np.eye(m) * 4.0 + 1.0 for m in (50, n)]

    def __call__(self) -> float:
        np, values, n = self._np, self._values, PROBE_SIZE
        start = time.perf_counter()
        row_max, col_min = values.max(axis=1), values.min(axis=0)
        hits = 0
        for r in range(n):
            for c in range(n):
                v = values[r, c]
                if v >= row_max[r] and v <= col_min[c]:
                    hits += 1
        for _ in range(3):
            lap = np.zeros((n, n))
            for i, j in self._edges:
                lap[i, j] -= 1.0
                lap[j, i] -= 1.0
                lap[i, i] += 1.0
                lap[j, j] += 1.0
        x, energy = np.ones((24, 2)), 0.0
        for _ in range(800):
            energy += (x[12:] * x[12:]).sum()
            x = self._step @ x
        for spd in self._spd:
            for _ in range(3):
                self._linalg.cho_solve(self._linalg.cho_factor(spd), np.eye(len(spd)))
        return time.perf_counter() - start


def _digest(path: Path) -> str | None:
    if not path.exists():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_pass(cli, argvs, probe) -> dict:
    times, codes, errors, probes = [], [], {}, []
    for k, argv in enumerate(argvs):
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)  # looked up per call, so a traced main is used
        except SystemExit as exc:  # e.g. argparse rejecting the argv
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            code = None
            errors[k] = traceback.format_exc(limit=4)
        times.append(time.perf_counter() - t0)
        codes.append(code)
        if code not in (0, None):
            errors[k] = sink.getvalue()
        probes.append(probe())
    return {"wall_s": sum(times), "task_s": times, "probe_s": probes, "codes": codes,
            "errors": errors}


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=3)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    import resgame.cli

    workdir = Path(args.workdir)
    task_list = workloads.tasks(args.workload, args.seed)
    graph_paths = workloads.write_inputs(task_list, workdir / "inputs")
    print("ready", flush=True)
    if args.setup_only:
        return 0
    probe = SpeedProbe()

    out_dir = workdir / "out"
    out_dir.mkdir(exist_ok=True)
    out_paths = [out_dir / (t.id + t.out_suffix) for t in task_list]
    argvs = [t.argv(g, o) for t, g, o in zip(task_list, graph_paths, out_paths)]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(resgame)
    passes, laps = [], []
    begin = time.perf_counter()
    while True:
        lap_start = time.perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.start_pass()
            tracer.install()
        try:
            record = run_pass(resgame.cli, argvs, probe)
        finally:
            if traced:
                tracer.uninstall()
        record["traced"] = traced
        if traced:
            record["layers"] = tracer.pass_metrics()
        record["digests"] = [_digest(p) for p in out_paths]
        passes.append(record)
        now = time.perf_counter()
        laps.append(now - lap_start)
        if len(passes) >= args.min_passes and now - begin + max(laps) > args.seconds:
            break
    print(json.dumps({
        "versions": _versions(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": passes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
