"""Attacker-defender matrix game over node subsets.

The defender (row player, minimizer) picks f nodes to protect; the
attacker (column player, maximizer) picks f nodes to hit. Payoffs are the
squared H2 norms of the resulting dynamics. Alongside the brute-force
solvers, closed-form equilibrium predictors cover the regimes where the
optimal strategies reduce to graph centralities.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .dynamics import ControlLaw
from .errors import ConfigError, EnumerationLimitError
from .graphcore import Graph, degree_profile, degrees
from .resistance import (
    GroundedSystem,
    effective_eccentricities,
    grounded_inverse_diag,
    resistance_matrix,
)

DEFAULT_ENUM_CAP = 10_000
ENUM_CAP_ENV = "RESGAME_ENUM_CAP"


def _check_cap(index: SubsetIndex, cap: int | None) -> None:
    if cap is None:
        cap = int(os.environ.get(ENUM_CAP_ENV, DEFAULT_ENUM_CAP))
    if index.size > cap:
        raise EnumerationLimitError(
            f"C({index.n},{index.f}) = {index.size} subsets exceeds the enumeration cap "
            f"{cap} (override via {ENUM_CAP_ENV})"
        )


class SubsetIndex:
    """Bijection between ranks and f-subsets of {0..n-1} in lexicographic order."""

    def __init__(self, n: int, f: int):
        if not 1 <= f <= n:
            raise ConfigError(f"budget f={f} must satisfy 1 <= f <= n={n}")
        self.n = n
        self.f = f
        self.size = math.comb(n, f)

    def rank(self, subset) -> int:
        nodes = sorted(int(i) for i in subset)
        if len(nodes) != self.f:
            raise ConfigError(f"subset {nodes} does not have size {self.f}")
        r = 0
        prev = -1
        for pos, v in enumerate(nodes):
            for u in range(prev + 1, v):
                r += math.comb(self.n - 1 - u, self.f - pos - 1)
            prev = v
        return r

    def unrank(self, r: int) -> tuple[int, ...]:
        if not 0 <= r < self.size:
            raise ConfigError(f"rank {r} out of range for {self.size} subsets")
        nodes = []
        start = 0
        remaining = self.f
        for _ in range(self.f):
            for v in range(start, self.n):
                block = math.comb(self.n - 1 - v, remaining - 1)
                if r < block:
                    nodes.append(v)
                    start = v + 1
                    remaining -= 1
                    break
                r -= block
        return tuple(nodes)

    def all_subsets(self) -> list[tuple[int, ...]]:
        return list(combinations(range(self.n), self.f))


@dataclass(frozen=True)
class GameMatrix:
    """Payoff matrix: rows = defender subsets, columns = attacker subsets."""

    graph: Graph
    law: ControlLaw
    gain: float
    f: int
    index: SubsetIndex
    values: np.ndarray


@dataclass(frozen=True)
class EquilibriumReport:
    """Solution of the game plus the centrality witness behind it."""

    kind: str  # "nash" | "stackelberg_defender_leader" | "none"
    defender_set: tuple[int, ...]
    attacker_set: tuple[int, ...]
    value: float | None
    theorem: str | None = None
    witness: str | None = None
    threshold: float | None = None
    gain_above_threshold: bool | None = None


def _check_sets(g: Graph, attack_set, defense_set):
    for s in (attack_set, defense_set):
        nodes = list(s)
        if len(set(nodes)) != len(nodes):
            raise ConfigError(f"duplicate nodes in {nodes}")
        if any(not 0 <= int(i) < g.n for i in nodes):
            raise ConfigError(f"node set {nodes} out of range for n={g.n}")


def _indicator(n: int, defender_sets) -> np.ndarray:
    y = np.zeros((len(defender_sets), n))
    for r, sub in enumerate(defender_sets):
        y[r, list(sub)] = 1.0
    return y


def _payoff_rows(g: Graph, gain: float, law: ControlLaw, defender_sets) -> np.ndarray:
    """Per-node attack costs W: W[r, i] is what attacking node i costs row r.

    Under both laws the payoff of an attack set is the sum of W[r] over the
    attacked nodes (plus f/2 for law 2): law 1 W[r, i] = (d_i+1)/(2(1+kappa y_i)),
    law 2 W[r] = diag(L_r^{-1})/2 with L_r the row's grounded Laplacian.
    """
    if law is ControlLaw.ABS_VELOCITY:
        return 0.5 * (degrees(g) + 1.0)[None, :] / (
            1.0 + gain * _indicator(g.n, defender_sets)
        )
    w = np.empty((len(defender_sets), g.n))
    for r, sub in enumerate(defender_sets):
        w[r] = 0.5 * grounded_inverse_diag(GroundedSystem(g, sub, gain))
    return w


def payoff_j1(g: Graph, gain: float, attack_set, defense_set) -> float:
    """Law-1 payoff: half the damped-degree sum over attacked nodes."""
    _check_sets(g, attack_set, defense_set)
    w = _payoff_rows(g, gain, ControlLaw.ABS_VELOCITY, [tuple(defense_set)])[0]
    return float(sum(w[i] for i in attack_set))


def payoff_j2(g: Graph, gain: float, attack_set, defense_set) -> float:
    """Law-2 payoff: f/2 plus half the virtual-node resistances of attacked nodes."""
    _check_sets(g, attack_set, defense_set)
    if not list(defense_set):
        raise ConfigError("law-2 payoff requires a nonempty defense set")
    w = _payoff_rows(g, gain, ControlLaw.REL_VELOCITY, [tuple(defense_set)])[0]
    return 0.5 * len(list(attack_set)) + float(sum(w[i] for i in attack_set))


def closed_form_entry_j1(g: Graph, gain: float, attack_set, defense_set) -> float:
    """Law-1 matrix entry via the overlap decomposition (validation route)."""
    d = degrees(g)
    fset, dset = set(attack_set), set(defense_set)
    inside = fset & dset
    outside = fset - dset
    gamma1 = len(inside)
    gamma2 = len(outside)
    return (sum(d[i] for i in inside) + gamma1) / (2.0 * gain + 2.0) + 0.5 * (
        sum(d[i] for i in outside) + gamma2
    )


def build_matrix(
    g: Graph, gain: float, f: int, law: ControlLaw, cap: int | None = None
) -> GameMatrix:
    """Enumerate all C(n,f) x C(n,f) payoffs.

    Payoffs decompose as sums of per-attacked-node terms that depend only
    on the defender row, so each row is one vector contraction.
    """
    if gain <= 0:
        raise ConfigError(f"gain must be positive, got {gain}")
    index = SubsetIndex(g.n, f)
    _check_cap(index, cap)
    subsets = index.all_subsets()
    values = _payoff_rows(g, gain, law, subsets) @ _indicator(g.n, subsets).T
    if law is ControlLaw.REL_VELOCITY:
        values += 0.5 * f
    return GameMatrix(graph=g, law=law, gain=gain, f=f, index=index, values=values)


def find_nash(m: GameMatrix) -> tuple[int, int, float] | None:
    """Lexicographically smallest pure saddle point, if one exists.

    A cell is a saddle when it is the maximum of its row (attacker cannot
    improve) and the minimum of its column (defender cannot improve). One
    exists iff max-min equals min-max, and then the saddles are exactly the
    cells whose row maximum is the min-max and whose column minimum is the
    max-min, so the smallest takes the first such row and the first such
    column.
    """
    values = m.values
    row_max = values.max(axis=1)
    col_min = values.min(axis=0)
    upper = row_max.min()
    lower = col_min.max()
    if lower != upper:
        return None
    r = int(np.argmax(row_max == upper))
    c = int(np.argmax(col_min == lower))
    return r, c, float(values[r, c])


def nash_threshold(g: Graph) -> float:
    """Largest gain for which the single-budget law-1 game has a pure NE."""
    prof = degree_profile(g)
    return (prof.delta1 - prof.delta2) / (prof.delta2 + 1.0)


def stackelberg_defender_leader(m: GameMatrix) -> EquilibriumReport:
    """Defender commits to the row minimizing its worst column; ties by rank."""
    values = m.values
    row_max = values.max(axis=1)
    r = int(row_max.argmin())
    c = int(values[r].argmax())
    return EquilibriumReport(
        kind="stackelberg_defender_leader",
        defender_set=m.index.unrank(r),
        attacker_set=m.index.unrank(c),
        value=float(values[r, c]),
    )


def solve(m: GameMatrix) -> EquilibriumReport:
    """Pure NE when one exists, otherwise the defender-led Stackelberg solution."""
    saddle = find_nash(m)
    if saddle is not None:
        r, c, v = saddle
        return EquilibriumReport(
            kind="nash",
            defender_set=m.index.unrank(r),
            attacker_set=m.index.unrank(c),
            value=v,
        )
    return stackelberg_defender_leader(m)


def _top_degree_nodes(d: np.ndarray, count: int, exclude=()) -> tuple[int, ...]:
    banned = set(exclude)
    order = sorted(
        (i for i in range(len(d)) if i not in banned), key=lambda i: (-d[i], i)
    )
    return tuple(sorted(order[:count]))


def predict_equilibrium(
    g: Graph, gain: float, f: int, law: ControlLaw, cap: int | None = None
) -> EquilibriumReport:
    """Closed-form equilibrium when a known hypothesis holds.

    Checks, in order: the degree-gap NE threshold and degree-leader result
    (law 1, f = 1), the top-degrees result for large gains (law 1, f > 1),
    the effective-center / tree-center result (law 2, f = 1), and the
    virtual-node resistance min-max (law 2, f > 1). Returns kind "none"
    when no hypothesis applies, signalling the matrix solver is needed.
    The last reads the solver's own per-node payoff table, so it restates
    the brute-force solution rather than predicting it independently.
    """
    if gain <= 0:
        raise ConfigError(f"gain must be positive, got {gain}")
    index = SubsetIndex(g.n, f)  # validates f against n
    no_prediction = EquilibriumReport(
        kind="none", defender_set=(), attacker_set=(), value=None
    )
    if law is ControlLaw.ABS_VELOCITY:
        if not g.has_unit_weights:
            return no_prediction
        d = degrees(g)
        prof = degree_profile(g)
        if f == 1:
            kbar = nash_threshold(g)
            v = prof.argmax_nodes[0]
            if gain <= kbar:
                return EquilibriumReport(
                    kind="nash",
                    defender_set=(v,),
                    attacker_set=(v,),
                    value=(prof.delta1 + 1.0) / (2.0 * gain + 2.0),
                    theorem="degree-gap-nash",
                    witness="max-degree node",
                    threshold=kbar,
                    gain_above_threshold=False,
                )
            attacker = _top_degree_nodes(d, 1, exclude=(v,))
            return EquilibriumReport(
                kind="stackelberg_defender_leader",
                defender_set=(v,),
                attacker_set=attacker,
                value=0.5 * (prof.delta2 + 1.0),
                theorem="degree-leader",
                witness="max-degree node",
                threshold=kbar,
                gain_above_threshold=True,
            )
        if g.n >= 2 * f and gain >= 0.5 * (f * prof.delta1 - 2.0):
            defender = _top_degree_nodes(d, f)
            attacker = _top_degree_nodes(d, f, exclude=defender)
            value = 0.5 * (sum(d[i] for i in attacker) + f)
            return EquilibriumReport(
                kind="stackelberg_defender_leader",
                defender_set=defender,
                attacker_set=attacker,
                value=float(value),
                theorem="top-degrees",
                witness="top-f-degree nodes",
            )
        return no_prediction
    # law 2
    if f == 1:
        ecc = effective_eccentricities(g)
        tie_set = np.flatnonzero(ecc <= ecc.min() + 1e-12)
        v = int(tie_set[0])
        rmat = resistance_matrix(g)
        attacker = int(rmat[v].argmax())
        on_tree = g.is_tree and g.has_unit_weights
        return EquilibriumReport(
            kind="stackelberg_defender_leader",
            defender_set=(v,),
            attacker_set=(attacker,),
            value=0.5 + 0.5 / gain + 0.5 * float(ecc[v]),
            theorem="tree-center" if on_tree else "effective-center",
            witness="graph center" if on_tree else "effective center",
        )
    _check_cap(index, cap)
    subsets = index.all_subsets()
    w = _payoff_rows(g, gain, law, subsets)
    rows = np.arange(len(subsets))
    # each row's f worst nodes (stable ties), summed in node order
    top = np.sort(np.argsort(-w, axis=1, kind="stable")[:, :f], axis=1)
    worst = sum(w[rows, top[:, k]] for k in range(f))
    r = int(worst.argmin())
    return EquilibriumReport(
        kind="stackelberg_defender_leader",
        defender_set=subsets[r],
        attacker_set=tuple(top[r].tolist()),
        value=0.5 * f + float(worst[r]),
        theorem="resistance-minimax",
        witness="min-max virtual-node resistance set",
    )


@dataclass(frozen=True)
class SweepRow:
    kappa: float
    kind: str
    defender_set: tuple[int, ...]
    attacker_set: tuple[int, ...]
    value: float


def sweep_gain(
    g: Graph, f: int, law: ControlLaw, kappa_grid, cap: int | None = None
) -> list[SweepRow]:
    """Solve the game on each gain of the grid; NE when present, else Stackelberg."""
    grid = [float(k) for k in kappa_grid]
    if not grid:
        raise ConfigError("gain grid must be nonempty")
    if any(k <= 0 for k in grid):
        raise ConfigError("all grid gains must be positive")
    rows = []
    for kappa in grid:
        report = solve(build_matrix(g, kappa, f, law, cap=cap))
        rows.append(
            SweepRow(
                kappa=kappa,
                kind=report.kind,
                defender_set=report.defender_set,
                attacker_set=report.attacker_set,
                value=report.value,
            )
        )
    return rows
