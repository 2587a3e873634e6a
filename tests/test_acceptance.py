"""Acceptance gate: eleven end-to-end criteria, one printed line each.

Criterion 10 checks the closed-form H2 of both laws against the
energy-integration oracle, defended law-1 scenarios included, and the
residual of the law-1 Lyapunov equation behind the closed form. The
law-1 game payoff is the paper's damped-degree formula, which equals the
H2 norm only under uniform damping; criteria 1-5, 9 and 11 validate the
games on that payoff.
"""

import time

import numpy as np
import pytest

from resgame import (
    ControlLaw,
    Graph,
    Scenario,
    build_matrix,
    h2_closed_form,
    h2_energy_oracle,
    predict_equilibrium,
)
from resgame.dynamics import lyapunov_residual
from resgame.game import (
    find_nash,
    nash_threshold,
    payoff_j1,
    payoff_j2,
    stackelberg_defender_leader,
)
from resgame.graphcore import (
    center,
    complete_graph,
    degree_profile,
    degrees,
    laplacian,
    path_graph,
)
from resgame.resistance import (
    GroundedSystem,
    effective_resistance,
    grounded_inverse_diag,
    resistance_matrix,
)

from conftest import random_connected_graph

LAW1 = ControlLaw.ABS_VELOCITY
LAW2 = ControlLaw.REL_VELOCITY


def _report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} [{label}]: {status}{suffix}", flush=True)
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_01_single_budget_matrix_exactness():
    g = path_graph(3)
    build_matrix(g, 0.5, 1, LAW1)  # warm up
    t0 = time.perf_counter()
    m = build_matrix(g, 0.5, 1, LAW1)
    elapsed = time.perf_counter() - t0
    expected = 0.5 * np.array(
        [[2 / 1.5, 3.0, 2.0], [2.0, 3 / 1.5, 2.0], [2.0, 3.0, 2 / 1.5]]
    )
    err = float(np.abs(m.values - expected).max())
    _report(
        1,
        "matrix exactness",
        err < 1e-12 and elapsed < 1e-3,
        f"max err {err:.2e}, {elapsed * 1e6:.0f} us",
    )


def test_criterion_02_saddle_existence_boundary():
    g = path_graph(3)
    ok = nash_threshold(g) == 0.5
    for kappa in np.arange(0.1, 0.51, 0.1):
        kappa = float(kappa)
        saddle = find_nash(build_matrix(g, kappa, 1, LAW1))
        ok = (
            ok
            and saddle is not None
            and saddle[:2] == (1, 1)
            and abs(saddle[2] - 3.0 / (2.0 * kappa + 2.0)) < 1e-12
        )
    for kappa in [0.51, 0.6, 0.7, 0.8, 0.9, 1.0]:
        ok = ok and find_nash(build_matrix(g, kappa, 1, LAW1)) is None
    _report(2, "saddle boundary", ok, "threshold 0.5")


def test_criterion_03_saddle_threshold_ensemble():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for trial in range(300):
        g = random_connected_graph(rng, int(rng.integers(3, 9)))
        kappa = float(rng.uniform(1e-9, 2.0))
        saddle = find_nash(build_matrix(g, kappa, 1, LAW1))
        kbar = nash_threshold(g)
        if (saddle is not None) != (kappa <= kbar):
            ok, detail = False, f"existence mismatch on trial {trial}"
            break
        if saddle is not None:
            prof = degree_profile(g)
            expected = (prof.delta1 + 1.0) / (2.0 * kappa + 2.0)
            if abs(saddle[2] - expected) > 1e-12:
                ok, detail = False, f"value mismatch on trial {trial}"
                break
    elapsed = time.perf_counter() - t0
    _report(3, "threshold ensemble", ok and elapsed < 10.0, detail or f"{elapsed:.1f} s")


def test_criterion_04_leader_value_above_threshold():
    rng = np.random.default_rng(4)
    ok = True
    detail = ""
    done = 0
    while done < 100:
        g = random_connected_graph(rng, int(rng.integers(3, 9)))
        prof = degree_profile(g)
        if len(prof.argmax_nodes) != 1:
            continue
        done += 1
        kappa = nash_threshold(g) + float(rng.uniform(0.01, 2.0))
        rep = stackelberg_defender_leader(build_matrix(g, kappa, 1, LAW1))
        expected = 0.5 * (prof.delta2 + 1.0)
        if abs(rep.value - expected) > 1e-12 or rep.defender_set != (prof.argmax_nodes[0],):
            ok, detail = False, f"trial {done}: value {rep.value} vs {expected}"
            break
    _report(4, "leader value", ok, detail or "100 unique-max instances")


def test_criterion_05_best_response_crossover():
    # degrees (3, 2, 2, 1); with the hub defended, the attacker's payoff on
    # the hub is 2/(kappa+1) and on a degree-2 node 3/2: they cross at 1/3
    g = Graph(4, ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0)))
    prof = degree_profile(g)
    ok = prof.delta1 == 3.0 and prof.delta2 == 2.0
    defender_row = 0
    boundary = 1.0 / 3.0
    for kappa in [0.05, 0.15, 0.25, boundary - 1e-9]:
        m = build_matrix(g, kappa, 1, LAW1)
        ok = ok and int(m.values[defender_row].argmax()) == 0
    for kappa in [boundary + 1e-9, 0.5, 1.0, 2.0]:
        m = build_matrix(g, kappa, 1, LAW1)
        ok = ok and int(m.values[defender_row].argmax()) in (1, 2)
    m = build_matrix(g, boundary, 1, LAW1)
    gap = abs(m.values[0, 0] - m.values[0, 1])
    _report(5, "best-response crossover", ok and gap < 1e-12, f"boundary gap {gap:.2e}")


def test_criterion_06_relative_velocity_no_saddle():
    rng = np.random.default_rng(6)
    ok = True
    detail = ""
    for trial in range(200):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        kappa = float(rng.choice([0.5, 1.0, 2.0]))
        m = build_matrix(g, kappa, 1, LAW2)
        if find_nash(m) is not None:
            ok, detail = False, f"saddle found on trial {trial}"
            break
        diag = np.diag(m.values)
        if np.abs(diag - (0.5 + 0.5 / kappa)).max() > 1e-12:
            ok, detail = False, f"diagonal mismatch on trial {trial}"
            break
    _report(6, "no saddle, velocity coupling", ok, detail or "200 instances")


def test_criterion_07_resistance_oracles():
    rng = np.random.default_rng(7)
    ok = abs(effective_resistance(complete_graph(3), 0, 1) - 2.0 / 3.0) < 1e-12
    ok = ok and abs(effective_resistance(path_graph(4), 0, 3) - 3.0) < 1e-12
    worst = 0.0
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(2, 9)), weighted=True)
        rmat = resistance_matrix(g)
        lap = laplacian(g)
        j = int(rng.integers(0, g.n))
        keep = [i for i in range(g.n) if i != j]
        inv = np.linalg.inv(lap[np.ix_(keep, keep)])
        for pos, i in enumerate(keep):
            worst = max(worst, abs(rmat[i, j] - inv[pos, pos]))
    _report(7, "resistance oracles", ok and worst < 1e-9, f"worst route gap {worst:.2e}")


def test_criterion_08_center_defender():
    rng = np.random.default_rng(8)
    ok = True
    detail = ""
    for trial in range(150):
        tree_case = trial < 100
        n = int(rng.integers(3, 11 if tree_case else 9))
        g = random_connected_graph(rng, n, tree=tree_case)
        kappa = float(rng.choice([0.5, 1.0, 2.0]))
        rep = stackelberg_defender_leader(build_matrix(g, kappa, 1, LAW2))
        pred = predict_equilibrium(g, kappa, 1, LAW2)
        if abs(rep.value - pred.value) > 1e-9:
            ok, detail = False, f"value mismatch on trial {trial}"
            break
        if tree_case:
            tie_set = set(center(g))
        else:
            from resgame.resistance import effective_center

            tie_set = set(effective_center(g))
        if rep.defender_set[0] not in tie_set:
            ok, detail = False, f"defender off the tie set on trial {trial}"
            break
    _report(8, "center defender", ok, detail or "100 trees + 50 graphs")


def test_criterion_09_top_degrees_value():
    rng = np.random.default_rng(9)
    ok = True
    detail = ""
    done = 0
    while done < 50:
        n = int(rng.integers(4, 9))
        g = random_connected_graph(rng, n)
        dmax = degree_profile(g).delta1
        kappa = 0.5 * (2.0 * dmax - 2.0) + float(rng.uniform(1e-6, 1.0))
        pred = predict_equilibrium(g, kappa, 2, LAW1)
        if pred.theorem != "top-degrees":
            continue
        done += 1
        rep = stackelberg_defender_leader(build_matrix(g, kappa, 2, LAW1))
        if abs(rep.value - pred.value) > 1e-12:
            ok, detail = False, f"trial {done}: {rep.value} vs {pred.value}"
            break
    _report(9, "top-degrees value", ok, detail or "50 instances")


def test_criterion_10_h2_oracle_equivalence():
    rng = np.random.default_rng(10)
    t0 = time.perf_counter()
    worst = 0.0
    worst_case = ""
    residual_ok = True
    for trial in range(50):
        n = int(rng.integers(3, 7))
        g = random_connected_graph(rng, n)
        kappa = float(rng.choice([0.2, 1.0, 5.0]))
        law = LAW1 if trial % 2 == 0 else LAW2
        nd = int(rng.integers(1, n + 1))
        dset = tuple(sorted(int(i) for i in rng.choice(n, nd, replace=False)))
        na = int(rng.integers(1, n + 1))
        aset = tuple(sorted(int(i) for i in rng.choice(n, na, replace=False)))
        s = Scenario(g, law, kappa, dset, aset)
        cf = h2_closed_form(s).value_sq
        oracle = h2_energy_oracle(s).value_sq
        rel = abs(cf - oracle) / cf
        if rel > worst:
            worst = rel
            worst_case = f"law {law.value}, n={n}, kappa={kappa}, D={dset}, F={aset}"
        if law is LAW1 and lyapunov_residual(s) > 1e-12:
            residual_ok = False
    elapsed = time.perf_counter() - t0
    _report(
        10,
        "closed form vs oracle",
        worst < 1e-6 and residual_ok and elapsed < 30.0,
        f"worst rel err {worst:.2e} on {worst_case}; "
        f"residuals {'ok' if residual_ok else 'bad'}; {elapsed:.1f} s",
    )


def test_criterion_11_monotonicity():
    rng = np.random.default_rng(11)
    ok = True
    detail = ""
    for trial in range(100):
        n = int(rng.integers(3, 9))
        g = random_connected_graph(rng, n)
        present = {(i, j) for i, j, _ in g.edges}
        missing = [
            (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in present
        ]
        kappa = float(rng.uniform(0.2, 3.0))
        dset = tuple(sorted(int(i) for i in rng.choice(n, 2, replace=False)))
        aset = tuple(sorted(int(i) for i in rng.choice(n, 2, replace=False)))
        if missing:
            i, j = missing[int(rng.integers(0, len(missing)))]
            g2 = g.with_edge(i, j)
            before = grounded_inverse_diag(GroundedSystem(g, dset, kappa))
            after = grounded_inverse_diag(GroundedSystem(g2, dset, kappa))
            if (after - before > 1e-9).any():
                ok, detail = False, f"diag grew on trial {trial}"
                break
            if payoff_j2(g2, kappa, aset, dset) > payoff_j2(g, kappa, aset, dset) + 1e-9:
                ok, detail = False, f"payoff grew on trial {trial}"
                break
        nodes = [int(v) for v in rng.permutation(n)]
        small, big = tuple(sorted(nodes[:1])), tuple(sorted(nodes[:3]))
        if payoff_j1(g, kappa, small, dset) > payoff_j1(g, kappa, big, dset) + 1e-12:
            ok, detail = False, f"law-1 attack monotonicity on trial {trial}"
            break
        if payoff_j2(g, kappa, small, dset) > payoff_j2(g, kappa, big, dset) + 1e-12:
            ok, detail = False, f"law-2 attack monotonicity on trial {trial}"
            break
    _report(11, "monotonicity", ok, detail or "100 + 100 trials")
