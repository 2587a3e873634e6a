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
from functools import cached_property
from itertools import combinations

import numpy as np

from .dynamics import ControlLaw
from .errors import ConfigError, EnumerationLimitError
from .graphcore import Graph, degree_profile, degrees, positive_finite
from .resistance import (
    GroundedSystem,
    _near_minima,
    grounded_inverse_diag,
    resistance_matrix,
)

DEFAULT_ENUM_CAP = 10_000
ENUM_CAP_ENV = "RESGAME_ENUM_CAP"


class SubsetIndex:
    """The f-subsets of {0..n-1} in lexicographic order; a subset's rank is its position.

    `subsets` holds them as one (N, f) integer array, which the payoff
    cells, the reports and the matrix CSV read.
    """

    def __init__(self, n: int, f: int):
        if not 1 <= f <= n:
            raise ConfigError(f"budget f={f} must satisfy 1 <= f <= n={n}")
        self.n = n
        self.f = f
        self.size = math.comb(n, f)

    @cached_property
    def subsets(self) -> np.ndarray:
        """All subsets, enumerated once into a read-only (N, f) integer array.

        Row r holds the nodes of the subset of rank r in ascending order.
        Enumerated on first use; EnumerationLimitError above the cap, which
        is RESGAME_ENUM_CAP, or DEFAULT_ENUM_CAP when it is unset; a value
        that is not an integer is a ConfigError.
        """
        raw = os.environ.get(ENUM_CAP_ENV, str(DEFAULT_ENUM_CAP))
        try:
            cap = int(raw)
        except ValueError:
            raise ConfigError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}")
        if self.size > cap:
            raise EnumerationLimitError(
                f"C({self.n},{self.f}) = {self.size} subsets exceeds the enumeration cap "
                f"{cap} (override via {ENUM_CAP_ENV})"
            )
        subsets = np.fromiter(
            combinations(range(self.n), self.f),
            dtype=np.dtype((np.intp, self.f)),
            count=self.size,
        )
        subsets.flags.writeable = False
        return subsets

    def subset(self, rank: int) -> tuple[int, ...]:
        """The nodes of the subset of the given rank."""
        return tuple(self.subsets[rank].tolist())


@dataclass(frozen=True)
class GameMatrix:
    """One game: graph, control law, gain and the budget f of both players.

    Rows are defender subsets and columns attacker subsets, both in the
    lexicographic order of `index`. The per-node cost table `rows` is
    computed on first use, so the enumeration cap is enforced there, not
    when the game is built. The solvers read only `rows`; the dense payoff
    matrix `values` is built only when read. Use `build_matrix`, which
    validates the inputs.
    """

    graph: Graph
    law: ControlLaw
    gain: float
    f: int
    index: SubsetIndex

    @cached_property
    def rows(self) -> np.ndarray:
        """W, one row per defender subset: rows[r, i] is what attacking node i costs."""
        return _payoff_rows(self.graph, self.gain, self.law, self.index.subsets)

    @cached_property
    def values(self) -> np.ndarray:
        """The N x N payoff matrix: values[r, c] is the `_cells` payoff of row r against column c.

        8 N^2 bytes, built from `rows` on first read, a block of about
        _BLOCK_CELLS cells at a time; `resgame matrix` and the tests read it,
        the solvers do not.
        """
        w, subsets = self.rows, self.index.subsets
        values = np.empty((len(w), len(subsets)))
        step = max(1, _BLOCK_CELLS // len(subsets))
        for lo in range(0, len(w), step):
            values[lo : lo + step] = _cells(w[lo : lo + step, subsets], self.law)
        return values

    @cached_property
    def leader_row(self) -> tuple[int, np.ndarray]:
        """(r0, cells): the first row whose largest payoff is smallest, and its N payoffs.

        Rounded addition is monotone, so a row's largest payoff is its f
        largest W entries summed by the `_cells` rule, found in O(n) per row
        without its cells; only row r0's N cells are computed.
        """
        w, f = self.rows, self.f
        row_max = _cells(np.partition(w, w.shape[1] - f, axis=1)[:, -f:], self.law)
        r0 = int(row_max.argmin())
        return r0, _cells(w[r0, self.index.subsets], self.law)


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


def _indicator(n: int, defender_sets: np.ndarray) -> np.ndarray:
    """0/1 matrix with y[r, i] = 1 when node i is in row r of the (R, f) node array."""
    y = np.zeros((len(defender_sets), n))
    y[np.arange(len(defender_sets))[:, None], defender_sets] = 1.0
    return y


def _payoff_rows(g: Graph, gain: float, law: ControlLaw, defender_sets: np.ndarray) -> np.ndarray:
    """Per-node attack costs W for the (R, f) node array of defender sets.

    W[r, i] is what attacking node i costs row r, and the payoff of an
    attack set is its `_cells` sum: law 1 W[r, i] = (d_i+1)/(2(1+kappa y_i)),
    law 2 W[r] = diag(L_r^{-1})/2 with L_r the row's grounded Laplacian.
    """
    if law is ControlLaw.ABS_VELOCITY:
        return 0.5 * (degrees(g) + 1.0)[None, :] / (
            1.0 + gain * _indicator(g.n, defender_sets)
        )
    w = np.empty((len(defender_sets), g.n))
    for r, sub in enumerate(defender_sets.tolist()):
        w[r] = 0.5 * grounded_inverse_diag(GroundedSystem(g, sub, gain))
    return w


# Payoff cells computed at once when `values` or column minima are built in
# blocks: with f = 2, 256 KB of gathered W entries. Larger blocks raised the
# peak resident memory of small `matrix` exports and were no faster.
_BLOCK_CELLS = 1 << 14


def _cells(entries: np.ndarray, law: ControlLaw) -> np.ndarray:
    """Payoffs from the W entries of a row at the attacked nodes, on the last axis.

    The game's one summation rule: the f entries are added in ascending
    order of value, then f/2 is added for law 2. For f <= 2 the order
    cannot change the rounded sum, so the entries are not sorted, and a
    cell equals the indicator product rows @ y.T plus f/2 bit for bit.
    """
    f = entries.shape[-1]
    if f > 2:
        entries = np.sort(entries, axis=-1)
    total = entries[..., 0]
    for k in range(1, f):
        total = total + entries[..., k]
    if law is ControlLaw.REL_VELOCITY:
        total = total + 0.5 * f
    return total


def _payoff(g: Graph, gain: float, law: ControlLaw, attack_set, defense_set) -> float:
    """One cell: the attack set's payoff against the defense set, by the `_cells` rule."""
    _check_sets(g, attack_set, defense_set)
    if not list(attack_set):
        raise ConfigError("attack set must be nonempty")
    defense = np.array([list(defense_set)], dtype=np.intp)
    w = _payoff_rows(g, gain, law, defense)[0]
    return float(_cells(w[list(attack_set)], law))


def payoff_j1(g: Graph, gain: float, attack_set, defense_set) -> float:
    """Law-1 payoff: half the damped-degree sum over attacked nodes."""
    return _payoff(g, gain, ControlLaw.ABS_VELOCITY, attack_set, defense_set)


def payoff_j2(g: Graph, gain: float, attack_set, defense_set) -> float:
    """Law-2 payoff: f/2 plus half the virtual-node resistances of attacked nodes."""
    if not list(defense_set):
        raise ConfigError("law-2 payoff requires a nonempty defense set")
    return _payoff(g, gain, ControlLaw.REL_VELOCITY, attack_set, defense_set)


def build_matrix(g: Graph, gain: float, f: int, law: ControlLaw) -> GameMatrix:
    """The game on g under `law` with the given gain and budget f.

    The one place that validates a game's gain and f. Nothing is
    enumerated or computed here: payoffs decompose as sums of
    per-attacked-node terms that depend only on the defender row, and
    GameMatrix computes that table and the matrix on first use.
    """
    if not positive_finite(gain):
        raise ConfigError(f"gain must be positive and finite, got {gain}")
    return GameMatrix(graph=g, law=law, gain=gain, f=f, index=SubsetIndex(g.n, f))


def find_nash(m: GameMatrix) -> tuple[int, int, float] | None:
    """Lexicographically smallest pure saddle point, if one exists, from W alone.

    A cell is a saddle when it is the maximum of its row (attacker cannot
    improve) and the minimum of its column (defender cannot improve).
    Saddles are interchangeable: when one exists, they are exactly the
    cells whose row maximum is the min-max `upper` and whose column
    minimum equals it. So the smallest saddle lies in the first such row
    r0 (`GameMatrix.leader_row`) and in the first column c with
    min_r cell(r, c) == upper, and every such c has cell(r0, c) == upper.
    Those candidates are filtered by their own row, the one defending
    exactly c's nodes (a column's minimum is at most that cell), and then
    their column minima are computed over all rows in rank order, a block
    of about _BLOCK_CELLS cells at a time, stopping at the first that
    equals upper. No N x N matrix is built: memory is O(N n), and time is
    O(N n) unless many candidates pass the filter and fail.
    """
    r0, cells = m.leader_row
    upper = cells.max()
    w, subsets = m.rows, m.index.subsets
    candidates = np.flatnonzero(cells == upper)
    own = _cells(w[candidates[:, None], subsets[candidates]], m.law)
    candidates = candidates[own >= upper]
    step = max(1, _BLOCK_CELLS // len(w))
    for lo in range(0, len(candidates), step):
        columns = candidates[lo : lo + step]
        col_min = _cells(w[:, subsets[columns]], m.law).min(axis=0)
        hits = np.flatnonzero(col_min >= upper)
        if hits.size:
            return r0, int(columns[hits[0]]), float(upper)
    return None


def nash_threshold(g: Graph) -> float:
    """Largest gain for which the single-budget law-1 game has a pure NE."""
    prof = degree_profile(g)
    return (prof.delta1 - prof.delta2) / (prof.delta2 + 1.0)


def stackelberg_defender_leader(m: GameMatrix) -> EquilibriumReport:
    """Defender commits to the row minimizing its worst column; ties by rank.

    The row is `GameMatrix.leader_row`'s r0 and the attacker its first
    best column, found from W and row r0's N cells; no N x N matrix is built.
    """
    r0, cells = m.leader_row
    c = int(cells.argmax())
    return EquilibriumReport(
        kind="stackelberg_defender_leader",
        defender_set=m.index.subset(r0),
        attacker_set=m.index.subset(c),
        value=float(cells[c]),
    )


def solve(m: GameMatrix) -> EquilibriumReport:
    """Pure NE when one exists, otherwise the defender-led Stackelberg solution."""
    saddle = find_nash(m)
    if saddle is not None:
        r, c, v = saddle
        return EquilibriumReport(
            kind="nash",
            defender_set=m.index.subset(r),
            attacker_set=m.index.subset(c),
            value=v,
        )
    return stackelberg_defender_leader(m)


def _top_degree_nodes(d: np.ndarray, count: int, exclude=()) -> tuple[int, ...]:
    banned = set(exclude)
    order = sorted(
        (i for i in range(len(d)) if i not in banned), key=lambda i: (-d[i], i)
    )
    return tuple(sorted(order[:count]))


def predict_equilibrium(m: GameMatrix) -> EquilibriumReport:
    """Closed-form equilibrium of the game m when a known hypothesis holds.

    Checks, in order: the degree-gap NE threshold and degree-leader result
    (law 1, f = 1), the top-degrees result for large gains (law 1, f > 1),
    the effective-center / tree-center result (law 2, f = 1), and the
    virtual-node resistance min-max (law 2, f > 1). Returns kind "none"
    when no hypothesis applies, signalling the matrix solver is needed.
    Only the last enumerates subsets: it reads the game's own per-node
    table `m.rows`, which the solver shares, so it restates the
    brute-force solution rather than predicting it independently.
    """
    g, gain, f = m.graph, m.gain, m.f
    no_prediction = EquilibriumReport(
        kind="none", defender_set=(), attacker_set=(), value=None
    )
    if m.law is ControlLaw.ABS_VELOCITY:
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
        rmat = resistance_matrix(g)
        ecc = rmat.max(axis=1)  # effective eccentricities
        v = _near_minima(ecc)[0]  # the first node of the effective center
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
    w = m.rows
    rows = np.arange(len(w))
    # each row's f worst nodes (stable ties), summed in node order
    top = np.sort(np.argsort(-w, axis=1, kind="stable")[:, :f], axis=1)
    worst = sum(w[rows, top[:, k]] for k in range(f))
    r = int(worst.argmin())
    return EquilibriumReport(
        kind="stackelberg_defender_leader",
        defender_set=m.index.subset(r),
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


def sweep_gain(g: Graph, f: int, law: ControlLaw, kappa_grid) -> list[SweepRow]:
    """Solve the game on each gain of the grid; NE when present, else Stackelberg."""
    grid = [float(k) for k in kappa_grid]
    if not grid:
        raise ConfigError("gain grid must be nonempty")
    if not all(map(positive_finite, grid)):
        raise ConfigError("all grid gains must be positive and finite")
    rows = []
    for kappa in grid:
        report = solve(build_matrix(g, kappa, f, law))
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
