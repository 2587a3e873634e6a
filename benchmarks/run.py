"""resgame benchmark: one workload on one seed, end-to-end or traced.

    python3 benchmarks/run.py --workload solve-law2 --seed 1 --seconds 16 --trace 0
    python3 benchmarks/run.py --steadiness --seeds 1-10 [--workloads a,b] [--seconds 16]
    python3 benchmarks/run.py --record-expected --seeds 0-10 [--workloads a,b]

Run from the root of a resgame checkout (the package is imported from
./src). Each run starts fresh worker interpreters with BLAS/OpenMP
threads pinned to 1 and PYTHONHASHSEED fixed: several set-up-only workers
time `setup_s`, then one worker runs the timed passes in a closed loop,
one task at a time. Gated timings are scaled to a reference speed: task
and pass times by the worker's speed probe, start-up times by a reference
start-up timed right before each. Outputs are then checked against
reference.py. The last line of stdout is the result object; the lines
before it are the report (machine stamp, recorded inputs, every metric,
reference check).
See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(PINNED_ENV)  # before NumPy loads, here and in every worker
import reference  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 9  # worker start-ups timed per run, after one warm-up
# A start-up that does not involve resgame, timed right before each worker
# start-up: a fresh interpreter importing what resgame imports. Start-up
# times are scaled by STARTUP_REF_S / its time; STARTUP_REF_S is about its
# time on a 2-core Xeon VM when idle.
REFERENCE_STARTUP = ["-c", "import numpy, scipy.linalg; print('ready')"]
STARTUP_REF_S = 0.42
MIN_PASSES = 3
TAIL_BEYOND = 10  # samples beyond the tail percentile in MIN_PASSES passes
RUN_TIMEOUT_S = 170
# The speed probe's time (worker.SpeedProbe) at the reference speed that the
# gated timings are scaled to; about its time on a 2-core Xeon VM when idle.
PROBE_REF_S = 0.0072
E2E_UNITS = {"wall_s": "s", "task_p50_s": "s", "task_tail_s": "s", "peak_rss_mb": "MB",
             "setup_s": "s", "failed_frac": "ratio", "error_frac": "ratio"}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a failed task)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _interpreter(args: list[str], timeout: float):
    """Start a fresh interpreter; return (seconds until it printed 'ready', its last stdout line).

    The 'ready' line is read blocking, so the start-up time is exact; a
    wait with a timeout would poll in steps of up to 50 ms.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_env(), cwd=ROOT,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchmarkError(f"{' '.join(args[:2])} failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return setup, (out.strip().splitlines() or [""])[-1]


def _worker(args: list[str], timeout: float):
    return _interpreter([str(BENCH / "worker.py"), *args], timeout)


def _reference_startup() -> float:
    return _interpreter(REFERENCE_STARTUP, timeout=60)[0]


def _machine() -> dict:
    mem_kb = 0
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {"cores": os.cpu_count(), "memory_gib": round(mem_kb / 2**20, 2)}


def _tail(samples: list[float], tasks: int) -> tuple[float, float]:
    """(value, percentile) at the nearest-rank percentile that has TAIL_BEYOND
    samples beyond it in MIN_PASSES passes of `tasks` tasks.

    The percentile depends only on the task count, so it stays the same
    however many passes fit in a run.
    """
    q = 1.0 - TAIL_BEYOND / (MIN_PASSES * tasks)
    ordered = sorted(samples)
    k = max(math.ceil(q * len(ordered) - 1e-9), 1)
    return ordered[k - 1], 100.0 * q


def measure(workload: str, seed: int, seconds: float, trace: int, min_passes: int = MIN_PASSES,
            keep_answers: bool = False):
    """Run one workload; returns (result line object, full report).

    With keep_answers, the report's "answers" holds each task's summarized
    output (what expected/<workload>.json records) when the run is correct.
    """
    if not (ROOT / "src" / "resgame" / "__init__.py").is_file():
        raise BenchmarkError(f"no resgame sources under {ROOT / 'src'}; run inside a checkout")
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    run_dir = WORK / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    base = ["--workload", workload, "--seed", str(seed), "--workdir", str(run_dir)]
    try:
        setups = []  # (seconds to ready, reference start-up seconds right before)
        if not trace and not keep_answers:
            _worker(base + ["--setup-only"], timeout=60)  # warms the file cache only
            for _ in range(SETUP_SAMPLES - 1):
                ref = _reference_startup()
                setups.append((_worker(base + ["--setup-only"], timeout=60)[0], ref))
        ref = _reference_startup()
        setup, line = _worker(
            base + ["--seconds", str(seconds), "--trace", str(trace),
                    "--min-passes", str(2 if trace else min_passes)],
            timeout=max(deadline - time.perf_counter(), 1.0),
        )
        result = json.loads(line)
        setups.append((setup, ref))
        task_list = workloads.tasks(workload, seed)
        expected = reference.load_expected(workload).get(str(seed), {})
        problems = {}
        for task in task_list:
            out = run_dir / "out" / (task.id + task.out_suffix)
            found = reference.check(task, out, expected.get(task.id) if expected else None)
            if found:
                problems[task.id] = found
        answers = None
        if keep_answers and reference.only_known(problems):
            answers = {t.id: reference.summarize(t, run_dir / "out" / (t.id + t.out_suffix))
                       for t in task_list}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return _assemble(workload, seed, seconds, trace, task_list, result, setups, problems,
                     bool(expected), answers)


def _assemble(workload, seed, seconds, trace, task_list, result, setups, problems,
              had_expected, answers):
    passes = result["passes"]
    ntasks = len(task_list)
    for k, task in enumerate(task_list):
        if len({p["digests"][k] for p in passes}) != 1:
            problems.setdefault(task.id, []).append("output differs between passes")
    attempted = sum(len(p["codes"]) for p in passes)
    failed = sum(code != 0 for p in passes for code in p["codes"])
    failures = {task_list[int(k)].id: msg for p in passes for k, msg in p["errors"].items()}
    untraced = [p for p in passes if not p["traced"]]
    # timings scaled to the reference speed by the probe times of their own pass
    scale = [PROBE_REF_S / statistics.fmean(p["probe_s"]) for p in untraced]
    pool = [t * k for p, k in zip(untraced, scale) for t in p["task_s"]]
    raw_pool = [t for p in untraced for t in p["task_s"]]
    tail, percentile = _tail(pool, ntasks)
    e2e = {
        "wall_s": statistics.median(p["wall_s"] * k for p, k in zip(untraced, scale)),
        "task_p50_s": statistics.median(pool),
        "task_tail_s": tail,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(s * STARTUP_REF_S / ref for s, ref in setups),
        "failed_frac": failed / attempted,
        "error_frac": len(problems) / ntasks,
    }
    raw = {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "task_p50_s": statistics.median(raw_pool),
        "task_tail_s": _tail(raw_pool, ntasks)[0],
        "setup_s": statistics.median(s for s, _ in setups),
        "speed": statistics.median(scale),
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": {**_machine(), **result["versions"], "env": PINNED_ENV},
        "inputs": [t.record() for t in task_list],
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"]} for p in passes],
        "metrics": e2e,
        "unscaled": raw,
        "task_tail": {"percentile": percentile, "samples": len(pool), "passes": len(untraced)},
        "setup_samples": setups,
        "reference": {
            "recorded_answers_for_seed": had_expected,
            "errors": problems,
            "known_defect_tasks": sorted(t for t, p in problems.items() if set(p) <= reference.KNOWN_DEFECTS),
            "failures": failures,
        },
        "answers": answers,
    }
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        layers = tracing.summarize(
            [p["layers"] for p in passes if p["traced"]],
            [p["wall_s"] for p in passes if p["traced"]],
            [p["wall_s"] for p in untraced],
        )
        report["layers"] = layers
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}
    line = {
        "correct": failed == 0 and reference.only_known(problems),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return line, report


def _print_report(line, report):
    r = report
    m = r["machine"]
    print(f"resgame benchmark  workload={r['workload']} seed={r['seed']} "
          f"seconds={r['seconds']} trace={r['trace']}")
    print(f"machine  {m['cores']} cores, {m['memory_gib']} GiB; Python {m['python']}, "
          f"NumPy {m['numpy']}, SciPy {m['scipy']}, {m['blas']}; "
          + " ".join(f"{k}={v}" for k, v in m["env"].items()))
    print("closed loop, 1 client, one task at a time; passes " +
          ", ".join(f"{p['wall_s']:.3f}s{'(traced)' if p['traced'] else ''}" for p in r["passes"]))
    for task in r["inputs"]:
        print("input  " + json.dumps(task))
    if not r["trace"]:
        print(f"speed    median pass ran at {r['unscaled']['speed']:.4g}x the reference speed; "
              f"task and pass timings below are scaled to it (probe {PROBE_REF_S} s)")
        for name, value in r["metrics"].items():
            note = ""
            if name == "task_tail_s":
                tt = r["task_tail"]
                note = f"  (p{tt['percentile']:.1f} of {tt['samples']} task runs in {tt['passes']} passes)"
            elif name == "setup_s":
                note = (f"  (median of {len(r['setup_samples'])} fresh interpreters, each scaled "
                        f"by {STARTUP_REF_S} s / the reference start-up timed before it)")
            if name in r["unscaled"]:
                note = f"  [unscaled {r['unscaled'][name]:.6g} s]" + note
            elif name == "error_frac":
                note = f"  ({len(r['reference']['errors'])} of {len(r['inputs'])} tasks; " \
                       f"{len(r['reference']['known_defect_tasks'])} only known defects)"
            print(f"metric {name:<13} {value:.6g} {E2E_UNITS[name]}{note}")
    else:
        for name, value in r["layers"].items():
            print(f"layer  {name:<36} {value:.6g}")
    ref = r["reference"]
    print(f"reference check: {'recorded answers and ' if ref['recorded_answers_for_seed'] else ''}"
          f"independent recomputation; {len(ref['errors'])} task(s) disagree, "
          f"{len(ref['known_defect_tasks'])} of them only known defects of the package")
    for tid, problems in ref["errors"].items():
        print(f"  {tid}: {'; '.join(problems)}")
    for tid, msg in ref["failures"].items():
        print(f"  failed {tid}: {msg.strip().splitlines()[-1] if msg.strip() else 'no message'}")
    print(json.dumps(line))


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def steadiness(names, seeds, seconds, trace) -> None:
    """Run each workload once per seed in fresh processes; print quartiles."""
    for name in names:
        values, correct = {}, True
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S + 30,
            )
            if proc.returncode != 0:
                raise BenchmarkError(f"{name} seed {seed}: {proc.stderr.strip()[-2000:]}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= line["correct"]
            for metric, v in line["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed={seed} " + " ".join(f"{k}={v['value']:.5g}" for k, v in line["metrics"].items()),
                  flush=True)
        for metric, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"steady {name} {metric}: median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.4f} runs={len(vals)} correct={correct}", flush=True)


def record_expected(names, seeds) -> None:
    """Record this commit's answers for `seeds` into expected/<workload>.json."""
    reference.EXPECTED_DIR.mkdir(exist_ok=True)
    for name in names:
        path = reference.EXPECTED_DIR / f"{name}.json"
        path.unlink(missing_ok=True)  # check against the recomputation only
        recorded = {}
        for seed in seeds:
            line, report = measure(name, seed, seconds=0, trace=0, min_passes=1, keep_answers=True)
            if not line["correct"]:
                raise BenchmarkError(f"{name} seed {seed} is not correct: {report['reference']}")
            recorded[str(seed)] = report["answers"]
            print(f"recorded {name} seed {seed}", flush=True)
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--steadiness", action="store_true", help="quartiles over --seeds")
    parser.add_argument("--record-expected", action="store_true", help="store answers for --seeds")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = parser.parse_args()
    try:
        if args.steadiness:
            steadiness(args.workloads.split(","), _seeds(args.seeds), args.seconds, args.trace)
        elif args.record_expected:
            record_expected(args.workloads.split(","), _seeds(args.seeds))
        elif args.workload:
            _print_report(*measure(args.workload, args.seed, args.seconds, args.trace))
        else:
            parser.error("give --workload, --steadiness or --record-expected")
    except (BenchmarkError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
