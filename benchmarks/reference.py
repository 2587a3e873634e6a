"""Reference check of each task's output, written without `resgame`.

Every output is checked twice:

- against an independent NumPy/SciPy recomputation, for any seed: the
  payoff matrix from the paper's formulas (law 1: damped degrees; law 2:
  diagonal of the inverse grounded Laplacian), the game value and the
  equilibrium conditions, and each `h2` task's H2 norm solved exactly from
  a Lyapunov equation, which the reported H2 and the oracle must both
  match within 1e-6. Law-1 matrices are computed with the same
  floating-point operations as the package, so law-1 tie-breaking (first
  saddle, first minimal row, first maximal column) is checked exactly;
  law-2 ties are checked within 1e-9.
- against the answers recorded in expected/<workload>.json for the seeds
  stored there: node sets exactly, values within 1e-9, oracle values
  within 1e-6.

Two disagreements are known defects of the package (README): a defended
law-1 `h2` task that reports the damped-degree formula instead of the
exact H2 (acceptance criterion 10), and matrix CSV cells written as
`np.float64(...)` instead of numbers. They count as errors, are flagged as
known, and do not make a run incorrect; the CSV values are still parsed
out of the wrapper and checked. A defended law-1 `h2` task that reports
the exact H2 is correct, so a fix of criterion 10 shows as no error.
"""

from __future__ import annotations

import csv
import json
import re
from itertools import combinations
from pathlib import Path

import numpy as np
import scipy.linalg

VALUE_TOL = 1e-9
ORACLE_TOL = 1e-6
H2_DEFECT = "criterion-10: defended law-1 h2 is the damped-degree formula, not the exact H2"
CSV_DEFECT = "matrix-csv-repr: matrix CSV cells are np.float64(...) reprs, not numbers"
KNOWN_DEFECTS = frozenset({H2_DEFECT, CSV_DEFECT})
_NP_REPR = re.compile(r"np\.float64\((.*)\)")
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
_CHUNK = 64  # grounded Laplacians inverted per batch


def _close(a, b, tol=VALUE_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def laplacian(graph: dict) -> np.ndarray:
    n = graph["n"]
    lap = np.zeros((n, n))
    for i, j in graph["edges"]:
        lap[i, j] = lap[j, i] = -1.0
    lap[np.diag_indices(n)] = -lap.sum(axis=1)
    return lap


def payoff_matrix(graph: dict, law: int, gain: float, f: int):
    """(subsets in lexicographic order, dense payoff matrix)."""
    n = graph["n"]
    subsets = list(combinations(range(n), f))
    ind = np.zeros((len(subsets), n))
    for r, sub in enumerate(subsets):
        ind[r, list(sub)] = 1.0
    lap = laplacian(graph)
    if law == 1:
        per_node = 0.5 * (np.diag(lap) + 1.0)[None, :] / (1.0 + gain * ind)
        return subsets, per_node @ ind.T
    diag = np.empty_like(ind)
    for lo in range(0, len(subsets), _CHUNK):
        block = lap[None, :, :] + gain * ind[lo:lo + _CHUNK, :, None] * np.eye(n)[None]
        diag[lo:lo + _CHUNK] = np.diagonal(np.linalg.inv(block), axis1=1, axis2=2)
    return subsets, 0.5 * f + (0.5 * diag) @ ind.T


def h2_formula(graph: dict, law: int, gain: float, defense, attack) -> float:
    """The paper's closed form; exact except for law 1 with a defense."""
    lap = laplacian(graph)
    y = np.zeros(graph["n"])
    y[list(defense)] = 1.0
    if law == 1:
        return float(sum(0.5 * (lap[i, i] + 1.0) / (1.0 + gain * y[i]) for i in attack))
    inv = np.linalg.inv(lap + gain * np.diag(y))
    return 0.5 * len(attack) + 0.5 * float(sum(inv[i, i] for i in attack))


def h2_exact(graph: dict, law: int, gain: float, defense, attack) -> float:
    """Squared H2 norm from the attack inputs to the velocities, from the
    observability Gramian of the 2n-state model x' = v, v' = -K x - D v + w.

    Law 1: K = L, D = I + gain*Y; law 2: K = D = L + gain*Y. Law 1's rigid
    mode (x along 1, unobservable) is moved from 0 to -1 by subtracting its
    spectral projector, which leaves C exp(A t) unchanged.
    """
    n = graph["n"]
    lap = laplacian(graph)
    y = np.zeros(n)
    y[list(defense)] = 1.0
    damp = np.eye(n) + gain * np.diag(y) if law == 1 else lap + gain * np.diag(y)
    stiff = lap if law == 1 else damp
    a = np.block([[np.zeros((n, n)), np.eye(n)], [-stiff, -damp]])
    if law == 1:
        right = np.concatenate([np.ones(n), np.zeros(n)])
        left = np.concatenate([damp @ np.ones(n), np.ones(n)])
        a -= np.outer(right, left) / (left @ right)
    select = np.zeros((n, len(attack)))
    select[list(attack), range(len(attack))] = 1.0
    b = np.kron(np.eye(2), select)  # each attacked node drives x_i and v_i
    c = np.hstack([np.zeros((n, n)), np.eye(n)])
    gram = scipy.linalg.solve_continuous_lyapunov(a.T, -c.T @ c)
    return float(np.trace(b.T @ gram @ b))


def game_problems(values, subsets, kind, defender, attacker, value, exact) -> list[str]:
    """Disagreements between one reported solution and the payoff matrix."""
    rank = {s: i for i, s in enumerate(subsets)}
    r, c = rank.get(tuple(defender)), rank.get(tuple(attacker))
    if r is None or c is None:
        return [f"unknown subsets {defender} / {attacker}"]
    row_max, col_min = values.max(axis=1), values.min(axis=0)
    if exact:
        saddles = np.flatnonzero(((values >= row_max[:, None]) & (values <= col_min[None, :])).ravel())
        if saddles.size:
            er, ec = divmod(int(saddles[0]), values.shape[1])
            want = "nash"
        else:
            er = int(row_max.argmin())
            ec = int(values[er].argmax())
            want = "stackelberg_defender_leader"
        if (kind, r, c) != (want, er, ec):
            return [f"got {kind} {defender}/{attacker}, expected {want} {subsets[er]}/{subsets[ec]}"]
        target = values[er, ec]
    else:
        tol = VALUE_TOL * max(1.0, float(np.abs(values).max()))
        if kind == "nash":
            ok = values[r, c] >= row_max[r] - tol and values[r, c] <= col_min[c] + tol
            target = values[r, c]
        else:
            ok = row_max[r] <= row_max.min() + tol and values[r, c] >= row_max[r] - tol
            target = row_max.min()
        if not ok:
            return [f"{kind} {defender}/{attacker} violates the equilibrium conditions"]
    if not _close(value, float(target)):
        return [f"value {value!r}, expected {float(target)!r}"]
    return []


def _gain(task) -> float:
    return task.meta["gains"][0]


def _check_solve(task, path):
    report = json.loads(path.read_text())
    law, f = task.meta["law"], task.meta["f"]
    subsets, values = payoff_matrix(task.graph, law, _gain(task), f)
    return game_problems(values, subsets, report["kind"], report["defender_set"],
                         report["attacker_set"], report["value"], exact=law == 1)


def _check_sweep(task, path):
    rows = json.loads(path.read_text())["rows"]
    gains = task.meta["gains"]
    if [r["kappa"] for r in rows] != gains:
        return [f"sweep rows {[r['kappa'] for r in rows]} do not match the grid {gains}"]
    problems = []
    for row, gain in zip(rows, gains):
        subsets, values = payoff_matrix(task.graph, task.meta["law"], gain, task.meta["f"])
        problems += [f"kappa={gain}: {p}" for p in game_problems(
            values, subsets, row["kind"], row["defender"], row["attacker"], row["value"],
            exact=task.meta["law"] == 1)]
    return problems


def _read_matrix(task, path):
    """(subset labels, values, cells wrapped in np.float64(...)) from a matrix output."""
    if task.meta["format"] == "json":
        report = json.loads(path.read_text())
        return [tuple(s) for s in report["subsets"]], np.array(report["values"], dtype=float), False
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    labels = [tuple(int(i) for i in h.split(":", 1)[1].split("+")) for h in rows[0][1:]]
    if [r[0] for r in rows[1:]] != rows[0][1:]:
        raise ValueError("row labels differ from column labels")
    matches = [[_NP_REPR.fullmatch(v) for v in r[1:]] for r in rows[1:]]
    values = [[float(m.group(1)) if m else float(v) for m, v in zip(ms, r[1:])]
              for ms, r in zip(matches, rows[1:])]
    wrapped = any(m is not None for ms in matches for m in ms)
    return labels, np.array(values), wrapped


def _check_matrix(task, path):
    subsets, values = payoff_matrix(task.graph, task.meta["law"], _gain(task), task.meta["f"])
    try:
        labels, got, wrapped = _read_matrix(task, path)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable matrix output: {exc}"]
    problems = [CSV_DEFECT] if wrapped else []
    if labels != subsets or got.shape != values.shape:
        return problems + ["matrix subsets or shape differ from the lexicographic enumeration"]
    worst = float(np.abs(got - values).max())
    if worst > VALUE_TOL * max(1.0, float(np.abs(values).max())):
        problems.append(f"matrix entries differ by up to {worst:.3g}")
    return problems


def _formula_is_inexact(task) -> bool:
    return task.meta["law"] == 1 and bool(task.meta["defense"])


def _check_h2(task, path):
    report = json.loads(path.read_text())
    m = task.meta
    args = (task.graph, m["law"], _gain(task), m["defense"], m["attack"])
    exact = h2_exact(*args)
    h2, oracle = report["h2_squared"], report["oracle_h2_squared"]
    problems = []
    if not _close(oracle, exact, ORACLE_TOL):
        problems.append(f"oracle_h2_squared {oracle!r}, expected {exact!r}")
    if _close(h2, exact, ORACLE_TOL):
        if not report["oracle_relative_error"] <= ORACLE_TOL:
            problems.append(f"oracle relative error {report['oracle_relative_error']:.3g} > {ORACLE_TOL}")
    elif _formula_is_inexact(task) and _close(h2, h2_formula(*args)):
        problems.append(H2_DEFECT)
    else:
        problems.append(f"h2_squared {h2!r}, expected {exact!r}")
    return problems


_CHECKS = {"solve": _check_solve, "sweep": _check_sweep, "matrix": _check_matrix, "h2": _check_h2}


def summarize(task, path: Path) -> dict:
    """The part of an output that expected/<workload>.json records."""
    if task.command == "matrix":
        _, values, _ = _read_matrix(task, path)
        return {"N": values.shape[0], "value_sum": float(values.sum())}
    report = json.loads(path.read_text())
    if task.command == "h2":
        # where criterion 10 applies, a recorded h2_squared would be the defect's value
        if _formula_is_inexact(task):
            return {"oracle_h2_squared": report["oracle_h2_squared"]}
        return {"h2_squared": report["h2_squared"], "oracle_h2_squared": report["oracle_h2_squared"]}
    if task.command == "sweep":
        return {"rows": [[r["kappa"], r["kind"], r["defender"], r["attacker"], r["value"]]
                         for r in report["rows"]]}
    keys = ("kind", "defender_set", "attacker_set", "value")
    return {**{k: report[k] for k in keys},
            "prediction": {k: report["prediction"][k] for k in keys},
            "prediction_match": report["prediction_match"]}


def _same(expected, actual, tol=VALUE_TOL) -> bool:
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and expected.keys() == actual.keys() and all(
            _same(v, actual[k], ORACLE_TOL if k == "oracle_h2_squared" else tol)
            for k, v in expected.items()))
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(expected) == len(actual)
                and all(_same(e, a, tol) for e, a in zip(expected, actual)))
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        return _close(actual, expected, tol)
    return expected == actual


def only_known(problems: dict) -> bool:
    """True when every task's disagreements are known defects of the package."""
    return all(set(p) <= KNOWN_DEFECTS for p in problems.values())


def load_expected(workload: str) -> dict:
    path = EXPECTED_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def check(task, path: Path, expected: dict | None) -> list[str]:
    """All disagreements for one task's output; [] when it is correct."""
    if not path.exists():
        return ["no output written"]
    try:
        problems = _CHECKS[task.command](task, path)
        if expected is not None and not _same(expected, summarize(task, path)):
            problems.append(f"differs from the recorded answer {json.dumps(expected)}")
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"malformed output: {exc!r}"]
    return problems
