"""Attacker-defender matrix game over node subsets.

The defender (row player, minimizer) picks f nodes to protect; the
attacker (column player, maximizer) picks f nodes to hit. Payoffs are the
squared H2 norms of the resulting dynamics. Alongside the brute-force
solvers, closed-form equilibrium predictors cover the regimes where the
optimal strategies reduce to graph centralities.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .dynamics import ControlLaw, Scenario
from .errors import ConfigError, EnumerationLimitError
from .graphcore import Graph, degree_profile, degrees, integer, positive_finite
from .resistance import (
    GroundedSystem,
    _near_minima,
    grounded_inverse_diag,
    resistance_matrix,
    shifted_inverse,
)

DEFAULT_ENUM_CAP = 10_000
ENUM_CAP_ENV = "RESGAME_ENUM_CAP"


class SubsetIndex:
    """The f-subsets of {0..n-1} in lexicographic order; a subset's rank is its position.

    `subsets` holds them as one (N, f) integer array, which the payoff
    cells, the reports and the matrix CSV read.
    """

    def __init__(self, n: int, f: int):
        self.f = f = integer(f, "budget f", ConfigError)
        if not 1 <= f <= n:
            raise ConfigError(f"budget f={f} must satisfy 1 <= f <= n={n}")
        self.n = n
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
    lexicographic order of `index`. The per-node cost tables are computed
    on first use, so the enumeration cap is enforced there, not when the
    game is built. The solvers decide from `approx` and read exact rows
    through `exact_rows` only where `approx` cannot settle a comparison;
    the exact table `rows` and the dense payoff matrix `values` are built
    only when read. Use `build_matrix`, which validates the inputs.
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
    def approx(self) -> tuple[np.ndarray, float]:
        """(W̃, τ): a table of W's shape and a bound τ on |W̃ - rows| entry by entry.

        For law 2 with no exact table in hand, the low-rank rows of
        `_low_rank_rows`. Otherwise, or when G cannot be factored or τ is
        not finite, W̃ is `rows` itself and τ = 0: the exact case of the
        same decisions.
        """
        if self.law is ControlLaw.REL_VELOCITY and "rows" not in vars(self):
            with contextlib.suppress(np.linalg.LinAlgError):
                w, tau = _low_rank_rows(self.graph, self.gain, self.index.subsets)
                if math.isfinite(tau):
                    return w, tau
        return self.rows, 0.0

    @cached_property
    def margin(self) -> float:
        """How far apart two `approx` payoffs must be for their exact payoffs to keep their order.

        A payoff adds f entries, each within τ of exact, and its rounding
        is at most f·u times a bound on the payoffs, for W̃ and for W; so an
        approximate payoff is within margin/2 of the exact one, whatever
        order its entries are added in. With τ = 0 only the rounding is left.
        """
        w, tau = self.approx
        bound = self.f * (float(w.max()) + tau) + 0.5 * self.f  # the largest law-2 payoff
        return 2.0 * self.f * (tau + 2.0 * _UNIT_ROUNDOFF * bound)

    @cached_property
    def _exact(self) -> dict[int, np.ndarray]:
        """The exact rows factored so far, by rank."""
        return {}

    def exact_rows(self, ranks: np.ndarray) -> np.ndarray:
        """The exact W rows of the given ranks, each factored at most once per game."""
        if "rows" in vars(self):
            return self.rows[ranks]
        done = self._exact
        todo = [r for r in dict.fromkeys(ranks.tolist()) if r not in done]
        if todo:
            done.update(zip(todo, _payoff_rows(self.graph, self.gain, self.law, self.index.subsets[todo])))
        return np.array([done[r] for r in ranks.tolist()]).reshape(len(ranks), self.graph.n)

    def _row_max(self, w: np.ndarray) -> np.ndarray:
        """Each row's largest payoff: rounding is monotone, so its f largest entries by `_cells`."""
        f = self.f
        return _cells(np.partition(w, w.shape[1] - f, axis=1)[:, -f:], self.law)

    @cached_property
    def _candidates(self) -> tuple[np.ndarray, np.ndarray]:
        """(ranks, rows): the ranks that may hold the least largest payoff, and their exact rows.

        They are the ranks whose `approx` largest payoff is within `margin`
        of the least, so every rank whose exact one is the least is among them.
        """
        scores = self._row_max(self.approx[0])
        ranks = np.flatnonzero(scores <= scores.min() + self.margin)
        return ranks, self.exact_rows(ranks)

    @cached_property
    def leader_row(self) -> tuple[int, np.ndarray]:
        """(r0, cells): the first row whose largest payoff is smallest, and its N exact payoffs.

        Only the `_candidates` rows are compared, exactly, and only r0's cells are computed.
        """
        ranks, exact = self._candidates
        k = int(self._row_max(exact).argmin())
        return int(ranks[k]), _cells(exact[k][self.index.subsets], self.law)


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


_UNIT_ROUNDOFF = 2.0**-53
# Bytes of each of the two per-chunk intermediates of the low-rank rows:
# 256 KB in all. Larger chunks raise the peak memory of a solve above that
# of the factored rows, and are no faster.
_CHUNK_BYTES = 1 << 17


def _low_rank_rows(g: Graph, gain: float, defender_sets: np.ndarray) -> tuple[np.ndarray, float]:
    """Law-2 W for the (R, f) node array from one n x n inverse, and a bound τ on its error.

    With G = shifted_inverse(g, a) and a = d_max,
    L + κP_D = G⁻¹ - a 11ᵀ/n + κP_D, and Woodbury with G1 = 1/a gives,
    for U = [1, G e_D] and K = [[0, 1ᵀ], [1, I/κ + G_DD]],
    diag((L + κP_D)⁻¹) = diag(G) - rowsum(U K⁻¹ ⊙ U): O(n f²) per row,
    batched in chunks of _CHUNK_BYTES.

    τ = 8 n u ĉ max|W̃|, with u the unit roundoff and
    ĉ = (2 d_max + κ) n (1/κ + max R) ≥ cond₂(L + κP_D) for every D:
    Gershgorin bounds ‖L + κP_D‖₂ by 2 d_max + κ, and for v in D,
    ‖(L + κP_D)⁻¹‖₂ ≤ tr((L + κP_v)⁻¹) = Σᵢ (1/κ + R_vi). Only that
    bound on cond₂ is proven. That n u ĉ max|W̃| bounds |W̃ - W|, which
    adds the rounding of G, of the K solves and of the factored rows, is
    the usual first-order estimate, and the factor 8 was calibrated, not
    derived: on 2- and 3-node graphs the factored rows alone are off by up
    to 0.5 n u ĉ max|W̃|. tests/test_game.py checks |W̃ - W| ≤ τ/8 on random
    unit-weight graphs, cycles, stars, complete graphs, twin leaves,
    weights 10^±6 with gains 1e-8 and 1e8, and the 150-node path.
    """
    d_max = float(degrees(g).max())
    big_g = shifted_inverse(g, d_max)
    diag = np.diag(big_g)
    n, f = g.n, defender_sets.shape[1]
    r_max = float((diag[:, None] - 2.0 * big_g + diag).max())
    c_hat = (2.0 * d_max + gain) * n * (1.0 / gain + r_max)
    w = np.empty((len(defender_sets), n))
    step = max(1, _CHUNK_BYTES // (8 * n * (f + 1)))
    k = np.ones((step, f + 1, f + 1))
    k[:, 0, 0] = 0.0
    for lo in range(0, len(w), step):
        sets = defender_sets[lo : lo + step]
        u = np.ones((len(sets), f + 1, n))
        u[:, 1:] = big_g[sets]
        kk = k[: len(sets)]
        kk[:, 1:, 1:] = big_g[sets[:, :, None], sets[:, None, :]]
        kk[:, range(1, f + 1), range(1, f + 1)] += 1.0 / gain
        x = np.linalg.solve(kk, u)
        x *= u
        np.subtract(diag, x.sum(axis=1), out=w[lo : lo + len(sets)])
    w *= 0.5
    return w, 8.0 * n * _UNIT_ROUNDOFF * c_hat * float(np.abs(w).max())


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
    """One cell: the attack set's payoff against the defense set, by the `_cells` rule.

    The gain and node sets are checked as a `Scenario`'s, with its ConfigError.
    """
    s = Scenario(graph=g, law=law, gain=gain, defense_set=defense_set, attack_set=attack_set)
    w = _payoff_rows(g, gain, law, np.array([s.defense_set], dtype=np.intp))[0]
    return float(_cells(w[list(s.attack_set)], law))


def payoff_j1(g: Graph, gain: float, attack_set, defense_set) -> float:
    """Law-1 payoff: half the damped-degree sum over attacked nodes."""
    return _payoff(g, gain, ControlLaw.ABS_VELOCITY, attack_set, defense_set)


def payoff_j2(g: Graph, gain: float, attack_set, defense_set) -> float:
    """Law-2 payoff: f/2 plus half the virtual-node resistances of attacked nodes."""
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
    index = SubsetIndex(g.n, f)
    return GameMatrix(graph=g, law=law, gain=gain, f=index.f, index=index)


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
    equals upper. Cells are read from `approx`; a column whose approximate
    minimum is within `margin` of upper is settled by the exact cells of
    the rows it cannot tell from upper. No N x N matrix is built: memory
    is O(N n), and time is O(N n) unless many candidates pass the filter
    and fail.
    """
    r0, cells = m.leader_row
    upper = cells.max()
    (w, _), margin, subsets = m.approx, m.margin, m.index.subsets
    candidates = np.flatnonzero(cells == upper)
    own = _cells(w[candidates[:, None], subsets[candidates]], m.law)
    candidates = candidates[own >= upper - margin]
    step = max(1, _BLOCK_CELLS // len(w))
    for lo in range(0, len(candidates), step):
        columns = candidates[lo : lo + step]
        col = _cells(w[:, subsets[columns]], m.law)
        for j in np.flatnonzero(col.min(axis=0) >= upper - margin):
            unsure = np.flatnonzero(col[:, j] < upper + margin)
            if not (_cells(m.exact_rows(unsure)[:, subsets[columns[j]]], m.law) < upper).any():
                return r0, int(columns[j]), float(upper)
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
    Only the last enumerates subsets: it reads the candidate rows that
    `GameMatrix.leader_row` reads, so it restates the brute-force solution
    rather than predicting it independently.
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
    # each candidate row's f worst nodes (stable ties), summed in node order
    ranks, w = m._candidates
    top = np.sort(np.argsort(-w, axis=1, kind="stable")[:, :f], axis=1)
    worst = sum(w[np.arange(len(w)), top[:, k]] for k in range(f))
    r = int(worst.argmin())
    return EquilibriumReport(
        kind="stackelberg_defender_leader",
        defender_set=m.index.subset(int(ranks[r])),
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
