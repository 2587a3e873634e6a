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
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dynamics import ControlLaw, Scenario, _cells
from .errors import ConfigError, EnumerationLimitError
from .graphcore import Graph, checked_gain, degrees, integer, near_minima
from .resistance import GroundedSystem, grounded_inverse_diag, resistance_matrix, shifted_inverse

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
        subsets = np.arange(self.n - self.f + 1, dtype=np.intp)[:, None]
        for top in range(self.n - self.f + 1, self.n):  # node k is at most n - f + k
            counts = top - subsets[:, -1]  # a prefix's children add last + 1, ..., top
            node = np.ones(counts.sum(), dtype=np.intp)  # node k as steps: +1 from sibling
            node[np.cumsum(counts) - counts] = 1 - counts  # to sibling, top to last + 1 between
            node[0] += top  # prefixes, and 0 to the first child's node at the start
            subsets = np.repeat(subsets, counts, axis=0)  # parent level freed: peak ~2 x 8 N f bytes
            subsets = np.column_stack((subsets, np.cumsum(node, out=node)))
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
    game is built. A law-1 game without its exact table takes each row's
    largest payoff from the 2f largest costs and builds one exact row
    (`_law1_leaders`, which a sweep calls once per block of gains).
    Otherwise the solvers decide from `approx` and read exact rows
    through `exact_rows` only where `approx` cannot settle a comparison.
    The exact table `rows` and the dense payoff matrix `values` are built
    only when read, and `cell_blocks` hands out the matrix a block at a
    time. Use `build_matrix`, which validates the inputs.
    """

    graph: Graph
    law: ControlLaw
    gain: float
    index: SubsetIndex

    @property
    def f(self) -> int:
        """The budget of both players: `index.f`."""
        return self.index.f

    @cached_property
    def rows(self) -> np.ndarray:
        """W, one row per defender subset: rows[r, i] is what attacking node i costs."""
        return _payoff_rows(self.graph, self.gain, self.law, self.index.subsets)

    def cell_blocks(self) -> Iterator[np.ndarray]:
        """The payoff matrix `values` in row order, blocks of whole rows of about _KERNEL_CELLS cells.

        Block k is `_cells(rows[block k, subsets])`. `rows` is computed by
        this call, each block only when it is read: `resgame matrix`
        writes them one by one, with no N x N array.
        """
        w, subsets, law = self.rows, self.index.subsets, self.law
        step = max(1, _KERNEL_CELLS // len(subsets))
        return (_cells(w[lo : lo + step, subsets], law) for lo in range(0, len(w), step))

    @cached_property
    def values(self) -> np.ndarray:
        """The N x N payoff matrix: values[r, c] is the `_cells` payoff of row r against column c.

        8 N^2 bytes, filled from `cell_blocks` on first read; the API and
        the tests read it, and neither the solvers nor `resgame matrix` do.
        """
        values = np.empty((self.index.size,) * 2)
        lo = 0
        for block in self.cell_blocks():
            values[lo : lo + len(block)] = block
            lo += len(block)
        return values

    @cached_property
    def approx(self) -> tuple[np.ndarray, float]:
        """(W̃, τ): a table of W's shape and a bound τ on |W̃ - rows| entry by entry.

        For law 2 with no exact table in hand, the low-rank rows of
        `_low_rank_rows`, from the `_shifted(graph)` a sweep hands each of
        its games, None included, or else builds here; the game keeps no copy.
        Otherwise, or when G cannot be factored or τ is not finite, W̃ is
        `rows` itself and τ = 0: the exact case of the same decisions.
        """
        if self.law is ControlLaw.REL_VELOCITY and "rows" not in vars(self):
            subsets = self.index.subsets  # the cap is checked before G is inverted
            shifted = vars(self).pop("_shifted") if "_shifted" in vars(self) else _shifted(self.graph)
            if shifted is not None:
                w, tau = _low_rank_rows(shifted, self.gain, subsets)
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

    @property
    def _law1_direct(self) -> bool:
        """A law-1 game without its exact table: the solvers read costs, not W."""
        return self.law is ControlLaw.ABS_VELOCITY and "rows" not in vars(self)

    def _row_max(self, w: np.ndarray) -> np.ndarray:
        """Each row's largest payoff: rounding is monotone, so its f largest entries by `_cells`."""
        f = self.f
        return _cells(np.partition(w, w.shape[1] - f, axis=1)[:, -f:], self.law)

    @cached_property
    def leader_row(self) -> tuple[int, np.ndarray]:
        """(r0, cells): the first row whose largest payoff is smallest, and its N exact payoffs.

        A law-1 game without its exact table takes both from `_law1_leaders`
        at its one gain. Otherwise it compares the exact rows of the ranks
        whose `approx` largest payoff is within `margin` of the least, which
        hold every exact least. Only r0's cells are computed.
        """
        if self._law1_direct:
            return _law1_leaders(self, [self.gain])[0]
        scores = self._row_max(self.approx[0])
        ranks = np.flatnonzero(scores <= scores.min() + self.margin)
        exact = self.exact_rows(ranks)
        k = int(self._row_max(exact).argmin())
        return int(ranks[k]), _cells(exact[k][self.index.subsets], self.law)


@dataclass(frozen=True)
class EquilibriumReport:
    """Solution of the game plus the centrality witness behind it."""

    kind: str  # "nash" | "stackelberg_defender_leader"
    defender_set: tuple[int, ...]
    attacker_set: tuple[int, ...]
    value: float
    theorem: str | None = None
    witness: str | None = None
    threshold: float | None = None
    gain_above_threshold: bool | None = None


def _law1_costs(g: Graph, gain: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, ĉ): law-1 W's undefended entries c = (d+1)/2 and defended ĉ = c/(1+κ), per gain of a column.

    c is the graph's read-only `_costs`, computed once per graph.
    """
    c = g._costs
    return c, c / (1.0 + gain)


def _law1_row_max(m: GameMatrix, gains: list[float]) -> np.ndarray:
    """Each row's largest payoff in the law-1 game m at each gain, the `_row_max` of its W.

    Row D's entries are ĉ on D and c elsewhere, and `_cells` sums a
    multiset to the same bits in any order, so D's f largest entries are
    needed only as a multiset: the f largest of two sorted halves. Rank
    the nodes by descending c. The k-th rank outside D is k stepped past
    each of D's ranks in ascending order; c at those ranks, k < f, is
    the f largest c outside D, descending, whatever the gain (-inf past
    the n - f nodes outside D). ĉ = c/(1+κ) is monotone in c, as rounding
    is, so ĉ at D's ranks taken in descending order is ascending at every
    gain. The elementwise maximum of a descending and an ascending
    sequence is the f largest of both (Batcher's bitonic half-cleaner,
    1968). Arrays are (f, N), one column per row D: O(N f^2) time once
    and O(N f) time and memory per gain, no N x n table.
    """
    c, c_hat = _law1_costs(m.graph, np.array(gains)[:, None])
    f = m.f
    order = np.argsort(c)[::-1]
    rank = np.empty(len(c), np.intp)
    rank[order] = np.arange(len(c))
    inside = np.sort(rank[m.index.subsets.T], axis=0)  # D's ranks, ascending
    outside = np.repeat(np.arange(f)[:, None], inside.shape[1], axis=1)
    for r in inside:
        outside += outside >= r
    top = c_hat[:, order][:, inside[::-1]]  # ĉ on D, ascending
    np.maximum(top, np.append(c[order], np.full(f, -np.inf))[outside], out=top)
    return _cells(top.transpose(0, 2, 1), m.law)


def _law1_leaders(m: GameMatrix, gains: list[float]) -> list[tuple[int, np.ndarray]]:
    """`GameMatrix.leader_row` of the law-1 game m at each gain: one `_law1_row_max`, then row r0 of W."""
    subsets = m.index.subsets
    leaders = _law1_row_max(m, gains).argmin(axis=1).tolist()
    rows = [_payoff_rows(m.graph, gain, m.law, subsets[r0 : r0 + 1]) for gain, r0 in zip(gains, leaders)]
    return list(zip(leaders, _cells(np.concatenate(rows)[:, subsets], m.law)))


def _payoff_rows(g: Graph, gain: float, law: ControlLaw, defender_sets: np.ndarray) -> np.ndarray:
    """Per-node attack costs W for the (R, f) node array of defender sets.

    W[r, i] is what attacking node i costs row r, and the payoff of an
    attack set is its `_cells` sum: law 1 W[r, i] = (d_i+1)/(2(1+kappa y_i)),
    law 2 W[r] = diag(L_r^{-1})/2 with L_r the row's grounded Laplacian.
    """
    if law is ControlLaw.ABS_VELOCITY:
        c, c_hat = _law1_costs(g, gain)  # c / (1 + kappa*0) is c: c / (1 + kappa y) bit for bit
        w = np.tile(c, (len(defender_sets), 1))
        w[np.arange(len(defender_sets))[:, None], defender_sets] = c_hat[defender_sets]
        return w
    w = np.empty((len(defender_sets), g.n))
    work = np.empty((g.n, g.n)), np.empty((g.n, g.n)), np.eye(g.n)
    for r, sub in enumerate(map(tuple, defender_sets.tolist())):
        w[r] = grounded_inverse_diag(GroundedSystem._checked(g, sub, gain), work)
    w *= 0.5
    return w


_UNIT_ROUNDOFF = 2.0**-53
# Payoff cells computed at once when column minima are built in blocks (with
# f = 2, 256 KB of gathered W entries), and floats per chunk of `_low_rank_rows`'
# rows and of each downdate column: 128 KB (64 KB ran 15% slower at f = 5).
_BLOCK_CELLS = 1 << 14


def _shifted(g: Graph) -> tuple[float, np.ndarray] | None:
    """(d_max, R) for `_low_rank_rows`, None when G does not factor; no gain enters it.

    R_vi = G_vv - 2 G_vi + G_ii is built in the array of G = shifted_inverse(g, d_max).
    """
    d_max = float(degrees(g).max())
    try:
        r = shifted_inverse(g, d_max)
    except np.linalg.LinAlgError:
        return None
    diag = r.diagonal().copy()
    r *= -2.0
    r += diag[:, None]
    r += diag
    return d_max, r


@np.errstate(all="ignore")  # an inf or NaN in W̃ makes τ not finite, and `approx` falls back to `rows`
def _low_rank_rows(shifted: tuple, gain: float, defender_sets: np.ndarray) -> tuple[np.ndarray, float]:
    """Law-2 W for the (N, f) node array from the resistance matrix R, and a bound τ on its error.

    `shifted` is `_shifted(g)`, (d_max, R). Grounding d₁ alone gives
    H = (L + κe₁e₁ᵀ)⁻¹, H_ab = 1/κ + (R_d₁a + R_d₁b - R_ab)/2, so the f = 1
    row is (1/κ + R[v]) / 2. Each further defender d_s is one rank-one
    downdate (Sherman & Morrison 1950; Kron form: Dörfler & Bullo 2013),
    h_s = H e_{d_s} - Σ_{t<s} h_t h_t[d_s]/p_t, p_s = 1/κ + h_s[d_s] and
    diag -= h_s²/p_s, kept doubled (g = 2h, q = 4p: same rounding, one pass
    fewer): elementwise passes over chunks of rows, no f x f inverse.

    τ = 8 n u ĉ max|W̃|, u the unit roundoff, ĉ = (2 d_max + κ) n (1/κ + max R)
    ≥ cond₂(L + κP_D) for every D. Only that bound on cond₂ is proven; the
    factor 8 was calibrated on the families where tests/test_game.py checks
    |W̃ - W| ≤ τ/8 (docs/formats.md, "Certified low-rank rows").
    """
    d_max, r = shifted
    n, k = len(r), 1.0 / gain
    c_hat = (2.0 * d_max + gain) * n * (k + float(r.max()))
    w = np.empty((len(defender_sets), n))
    step = max(1, _BLOCK_CELLS // n)
    for lo in range(0, len(w), step):
        sets = defender_sets[lo : lo + step]
        diag, at, first = w[lo : lo + step], np.arange(len(sets)), sets[:, 0]
        np.take(r, first, axis=0, out=diag, mode="clip")  # "raise" would fill a buffer, then copy it
        diag += k
        downdates = []
        for d in sets[:, 1:].T:
            g = np.take(r, d, axis=0)
            np.subtract(diag, g, out=g)
            g += (r[first, d] + k)[:, None]  # 2 H e_d
            for g_t, q_t in downdates:
                g -= g_t * (2.0 * (g_t[at, d] / q_t))[:, None]
            downdates.append((g, 4.0 * k + 2.0 * g[at, d]))
        for g, q in downdates:
            g *= g
            g /= q[:, None]
            diag -= g
        diag *= 0.5
    return w, 8.0 * n * _UNIT_ROUNDOFF * c_hat * float(np.abs(w).max())


# Payoff cells per block of `GameMatrix.cell_blocks`, which the writer's
# shortest-repr kernel takes whole: its text buffer, 32 bytes a cell, and
# the f = 2 gathered W entries then stay below glibc's 128 KiB mmap
# threshold. Blocks of _BLOCK_CELLS raised the peak resident memory of the
# benchmark's exports by 0.4 MB.
_KERNEL_CELLS = 4000


def _payoff(g: Graph, gain: float, law: ControlLaw, attack_set, defense_set) -> float:
    """One cell: the attack set's payoff against the defense set, by the `_cells` rule.

    The gain and node sets are checked as a `Scenario`'s, with its ConfigError.
    """
    s = Scenario(graph=g, law=law, gain=gain, defense_set=defense_set, attack_set=attack_set)
    w = _payoff_rows(g, s.gain, law, np.array([s.defense_set], dtype=np.intp))[0]
    return float(_cells(w[list(s.attack_set)], law))


def payoff_j1(g: Graph, gain: float, attack_set, defense_set) -> float:
    """Law-1 payoff: half the damped-degree sum over attacked nodes."""
    return _payoff(g, gain, ControlLaw.ABS_VELOCITY, attack_set, defense_set)


def payoff_j2(g: Graph, gain: float, attack_set, defense_set) -> float:
    """Law-2 payoff: f/2 plus half the virtual-node resistances of attacked nodes."""
    return _payoff(g, gain, ControlLaw.REL_VELOCITY, attack_set, defense_set)


def build_matrix(g: Graph, gain: float, f: int, law: ControlLaw) -> GameMatrix:
    """The game on g under `law` with the given gain and budget f.

    The one place that validates a game's law, gain and f. Nothing is
    enumerated or computed here: payoffs decompose as sums of
    per-attacked-node terms that depend only on the defender row, and
    GameMatrix computes that table and the matrix on first use.
    """
    law = ControlLaw.from_int(law)
    gain = checked_gain(gain)
    index = SubsetIndex(g.n, f)
    return GameMatrix(graph=g, law=law, gain=gain, index=index)


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
    exactly c's nodes: a column's minimum is at most that cell.

    Law 1 without the exact table stops there, at the first candidate
    whose own cell is at least upper. At each attacked node i a column's
    own row holds ĉ_i = fl(c_i/(1+κ)) and every other row ĉ_i or c_i;
    fl(1+κ) >= 1, so ĉ_i <= c_i, and rounded addition of sorted entries
    is monotone. So a column's minimum is its own cell, in floating point
    too, and this is the scan's answer in O(N f) time and memory.

    Otherwise the column minima of the survivors are computed over all
    rows in rank order, a block of about _BLOCK_CELLS cells at a time,
    stopping at the first that equals upper. Cells are read from `approx`;
    a column whose approximate minimum is within `margin` of upper is
    settled by the exact cells of the rows it cannot tell from upper.
    No N x N matrix is built: memory is O(N n), and time is O(N n) unless
    many candidates pass the filter and fail.

    Law 2 with f = 1 on n >= 2 nodes has no saddle, by the paper's theorem,
    so None, before any scan: cell (v, a) grows with R_va, so column a's
    minimum is its own row's cell, as R_aa = 0, and no row's maximum is, as
    R_vi > 0 for i != v. Rounded rows at small gains can tie the two.
    """
    if m.law is ControlLaw.REL_VELOCITY and m.f == 1 < m.graph.n:
        return None
    r0, cells = m.leader_row
    upper = cells.max()
    subsets = m.index.subsets
    candidates = np.flatnonzero(cells == upper)
    if m._law1_direct:
        _, c_hat = _law1_costs(m.graph, m.gain)
        saddles = candidates[_cells(c_hat[subsets[candidates]], m.law) >= upper]
        return (r0, int(saddles[0]), float(upper)) if len(saddles) else None
    (w, _), margin = m.approx, m.margin
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


def nash_threshold(g: Graph, f: int = 1) -> float:
    """Largest gain for which the law-1 game with budget f has a pure NE.

    With the degrees sorted δ_1 ≥ δ_2 ≥ ..., it is (δ_f − δ_{f+1})/(δ_{f+1} + 1):
    the f largest costs, defended, stay at least the next one,
    c₍f₎/(1 + κ) ≥ c₍f+1₎. math.inf when f = n, where the one cell is a saddle.
    """
    f = SubsetIndex(g.n, f).f
    if f == g.n:
        return math.inf
    delta = np.sort(degrees(g))[::-1]
    return float((delta[f - 1] - delta[f]) / (delta[f] + 1.0))


def _report(m: GameMatrix, kind: str, row: int, column: int, value: float) -> EquilibriumReport:
    """The solvers' report: the defender and attacker sets of the cell (row, column) of m."""
    return EquilibriumReport(kind, m.index.subset(row), m.index.subset(column), value)


def stackelberg_defender_leader(m: GameMatrix) -> EquilibriumReport:
    """Defender commits to the row minimizing its worst column; ties by rank.

    The row is `GameMatrix.leader_row`'s r0 and the attacker its first
    best column, found from the row maxima and row r0's N cells; no N x N
    matrix is built.
    """
    r0, cells = m.leader_row
    c = int(cells.argmax())
    return _report(m, "stackelberg_defender_leader", r0, c, float(cells[c]))


def solve(m: GameMatrix) -> EquilibriumReport:
    """Pure NE when one exists, otherwise the defender-led Stackelberg solution."""
    saddle = find_nash(m)
    return stackelberg_defender_leader(m) if saddle is None else _report(m, "nash", *saddle)


def predict_equilibrium(m: GameMatrix) -> EquilibriumReport:
    """Closed-form equilibrium of the game m from graph centralities.

    Law 2, f = 1: the effective-center / tree-center result. Its attacker,
    the node farthest from the center v in resistance, is v, a pure NE,
    only on the one-node graph. Otherwise a defender set D and its row of
    W give the report: the attacker takes the row's f largest entries,
    ties to the smaller index; their `_cells` payoff, the value, is the
    row's largest cell bit for bit, as rounding is monotone; the kind is
    `nash`, with D as the attacker, iff attacking D reaches the value.

    Law 1, on any graph and for every gain and f, from `_law1_costs`, the
    solvers' kernel: D is the f nodes of largest cost c = (d+1)/2, ties to
    the smaller index, a best row; it holds ĉ = c/(1+κ) on D and c
    elsewhere. Every column's minimum is its own cell (see `find_nash`)
    and D's is the largest, so the NE test is κ <= `nash_threshold(g, f)`,
    decided on the rounded payoffs as `solve` decides it. Theorems:
    degree-gap-nash (NE), degree-leader (f = 1), top-degrees (f > 1); the
    threshold is reported for f < n.

    Law 2, f > 1: the virtual-node resistance min-max. D is the solver's
    `leader_row`, so this branch alone enumerates subsets, and restates
    the brute-force solution rather than predicting it independently.
    """
    g, gain, f = m.graph, m.gain, m.f
    law1 = m.law is ControlLaw.ABS_VELOCITY
    if not law1 and f == 1:
        rmat = resistance_matrix(g)
        ecc = rmat.max(axis=1)  # effective eccentricities
        v = near_minima(ecc)[0]  # the first node of the effective center
        attacker = int(rmat[v].argmax())
        on_tree = g.is_tree and g.has_unit_weights
        return EquilibriumReport(
            kind="nash" if attacker == v else "stackelberg_defender_leader",
            defender_set=(v,),
            attacker_set=(attacker,),
            value=0.5 + 0.5 / gain + 0.5 * float(ecc[v]),
            theorem="tree-center" if on_tree else "effective-center",
            witness="graph center" if on_tree else "effective center",
        )
    if law1:
        c, _ = _law1_costs(g, gain)
        defender = np.sort(np.argsort(-c, kind="stable")[:f])
        row = _payoff_rows(g, gain, m.law, defender[None])[0]
        theorem = "degree-leader" if f == 1 else "top-degrees"
        witness = "max-degree node" if f == 1 else "top-f-degree nodes"
    else:
        r0, _ = m.leader_row
        defender, row = m.index.subsets[r0], m.exact_rows(np.array([r0]))[0]
        theorem, witness = "resistance-minimax", "min-max virtual-node resistance set"
    attacker = np.sort(np.argsort(-row, kind="stable")[:f])
    value = float(_cells(row[attacker], m.law))
    nash = float(_cells(row[defender], m.law)) == value
    kbar = nash_threshold(g, f) if law1 and f < g.n else None
    return EquilibriumReport(
        kind="nash" if nash else "stackelberg_defender_leader",
        defender_set=tuple(defender.tolist()),
        attacker_set=tuple((defender if nash else attacker).tolist()),
        value=value,
        theorem="degree-gap-nash" if nash and law1 else theorem,
        witness=witness,
        threshold=kbar,
        gain_above_threshold=None if kbar is None else gain > kbar,
    )


@dataclass(frozen=True)
class SweepRow:
    kappa: float
    kind: str
    defender_set: tuple[int, ...]
    attacker_set: tuple[int, ...]
    value: float


def sweep_gain(g: Graph, f: int, law: ControlLaw, kappa_grid) -> list[SweepRow]:
    """Solve the game on each gain of the grid; NE when present, else Stackelberg.

    The gains share one `SubsetIndex`, so the subsets are enumerated once,
    and each gain's game gets first what it shares. Law 1 without exact
    tables: the `leader_row`s of a block of gains, from one `_law1_leaders`
    call that holds at most _BLOCK_CELLS row maxima, each block solved
    before the next. Law 2: the one resistance matrix, `_shifted(g)`.
    """
    grid = [checked_gain(k) for k in kappa_grid]
    if not grid:
        raise ConfigError("gain grid must be nonempty")
    base = build_matrix(g, grid[0], f, law)  # one subset index for every gain
    step = max(1, _BLOCK_CELLS // len(base.index.subsets))  # enumerated before G is inverted
    shared = {"_shifted": _shifted(g)} if base.law is ControlLaw.REL_VELOCITY else {}
    rows = []
    for lo in range(0, len(grid), step):
        block = grid[lo : lo + step]
        games = [replace(base, gain=kappa) for kappa in block]
        if base._law1_direct:
            for m, leader in zip(games, _law1_leaders(base, block)):
                vars(m)["leader_row"] = leader
        for m in games:
            vars(m).update(shared)  # None too when G does not factor: `approx` then uses `rows`
            r = solve(m)
            rows.append(SweepRow(m.gain, r.kind, r.defender_set, r.attacker_set, r.value))
    return rows
