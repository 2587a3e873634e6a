"""Law-2 rows and answers against exact rational arithmetic.

W_D = diag((L + κP_D)⁻¹)/2 is computed in `fractions.Fraction` by
Gauss–Jordan elimination, with the weights and κ converted exactly by
`Fraction(float)`. So the float rows, the calibrated bound τ of the
low-rank rows and the solver's value are checked against truth, not
against another float route.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from resgame import ControlLaw, build_matrix, solve
from resgame.game import _payoff_rows

from conftest import random_connected_graph

LAW2 = ControlLaw.REL_VELOCITY


def _inverse_diagonal(a: list[list[Fraction]]) -> list[Fraction]:
    """diag(a⁻¹) for a symmetric positive definite rational matrix, by Gauss–Jordan on [a | I]."""
    n = len(a)
    rows = [row + [Fraction(i == j) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        pivot = rows[c][c]  # positive: a is positive definite
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                factor = rows[r][c]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    return [rows[i][n + i] for i in range(n)]


def exact_rows(g, gain: float, subsets: np.ndarray) -> list[list[Fraction]]:
    """The exact law-2 W, one row per defender set."""
    lap = [[Fraction(0)] * g.n for _ in range(g.n)]
    for i, j, w in g.edges:
        w = Fraction(w)
        lap[i][i] += w
        lap[j][j] += w
        lap[i][j] -= w
        lap[j][i] -= w
    kappa = Fraction(gain)
    rows = []
    for sub in subsets.tolist():
        a = [row[:] for row in lap]
        for d in sub:
            a[d][d] += kappa
        rows.append([x / 2 for x in _inverse_diagonal(a)])
    return rows


def _error(w: np.ndarray, exact: list[list[Fraction]]) -> Fraction:
    """max |w - exact| over all entries, exactly."""
    return max(abs(Fraction(x) - e) for row, ex in zip(w.tolist(), exact) for x, e in zip(row, ex))


@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_law2_rows_and_solve_against_exact_rationals(n, weighted):
    rng = np.random.default_rng([13, n, int(weighted)])
    graphs = [random_connected_graph(rng, n, weighted=weighted) for _ in range(4)]
    for g, gain in itertools.product(graphs, (0.5, 2.0)):
        for f in range(1, min(3, n) + 1):
            m = build_matrix(g, gain, f, LAW2)
            subsets = m.index.subsets
            exact = exact_rows(g, gain, subsets)
            scale = max(max(row) for row in exact)  # every entry is positive
            # the per-row Cholesky rows
            assert _error(_payoff_rows(g, gain, LAW2, subsets), exact) <= Fraction(1e-12) * scale
            # the low-rank rows W̃ hold the calibrated bound against truth
            w, tau = m.approx
            assert tau > 0
            assert _error(w, exact) <= Fraction(tau) / 8
            # solve's value is the exact min-max, and its defender's exact worst case is the optimum's
            worst = [sum(sorted(row)[-f:]) + Fraction(f, 2) for row in exact]
            best = min(worst)
            report = solve(m)
            rank = subsets.tolist().index(list(report.defender_set))
            assert abs(Fraction(report.value) - best) <= Fraction(1e-12) * best
            assert worst[rank] - best <= Fraction(1e-12) * best
