"""Seeded ensemble verification suites behind the `verify` CLI command.

Each suite draws random connected graphs and checks one family of
invariants: linear-algebra structure, agreement of independent
computation routes, monotonicity laws, and the closed-form equilibrium
characterizations against brute-force solves.

The suites are the module's `check_*` functions, in definition order,
each named by its function (`check_law2_no_ne` is `law2-no-ne`). Every
numeric check but the strict ones is one value against one bound
(`_within`), which a NaN fails.
"""

from __future__ import annotations

import math
import zlib
from collections import deque
from itertools import combinations

import numpy as np

from . import game
from .dynamics import (
    ControlLaw,
    Scenario,
    h2_closed_form,
    h2_energy_oracle,
    lyapunov_residual,
)
from .errors import ConfigError
from .graphcore import Graph, center, distances, laplacian
from .resistance import (
    GroundedSystem,
    effective_eccentricities,
    extended_graph,
    grounded_inverse_diag,
    laplacian_pinv,
    resistance_matrix,
)


class VerificationFailure(AssertionError):
    """An invariant suite failed; the message names the invariant."""


def random_connected_graph(
    rng: np.random.Generator,
    n: int,
    tree: bool = False,
    weighted: bool = False,
) -> Graph:
    """Random spanning tree plus optional extra edges and weights."""
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = 1.0
    if not tree:
        for _ in range(int(rng.integers(0, n))):
            i, j = (int(x) for x in rng.integers(0, n, 2))
            if i != j:
                edges[(min(i, j), max(i, j))] = 1.0
    if weighted:
        for key in edges:
            edges[key] = float(rng.uniform(0.2, 3.0))
    return Graph(n, tuple((i, j, w) for (i, j), w in edges.items()))


def _graph(rng, low: int, nmax: int, weighted: bool | None = False) -> Graph:
    """n from [low, nmax], a weight coin if `weighted` is None, then the graph."""
    n = int(rng.integers(low, nmax + 1))
    if weighted is None:
        weighted = bool(rng.integers(0, 2))
    return random_connected_graph(rng, n, weighted=weighted)


def _nodes(rng, n: int, k: int) -> tuple[int, ...]:
    """k distinct nodes of n, sorted."""
    return tuple(sorted(int(i) for i in rng.choice(n, k, replace=False)))


def _fail(name: str, detail: str):
    raise VerificationFailure(f"invariant '{name}' violated: {detail}")


def _within(name: str, value, bound, detail: str) -> None:
    """Fail invariant `name` unless value <= bound; a NaN value fails."""
    if not value <= bound:
        _fail(name, detail)


def _bfs_ecc(g: Graph, s: int) -> int:
    adj = g.neighbors()
    dist = {s: 0}
    queue = deque([s])
    far = 0
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                far = max(far, dist[v])
                queue.append(v)
    return far


def check_laplacian_structure(rng, trials, nmax, fault=None):
    for _ in range(trials):
        g = _graph(rng, 2, nmax, None)
        n = g.n
        lap = laplacian(g)
        if fault == "laplacian-sign":
            lap = -lap
        # bit-exact for unit weights; float weights leave rounding residue
        tol = 0.0 if g.has_unit_weights else 1e-12 * n * max(w for _, _, w in g.edges)
        _within("laplacian-zero-rowsum", np.abs(lap @ np.ones(n)).max(), tol, f"n={n}, edges={g.edges}")
        vals = np.linalg.eigvalsh(lap)
        if int((np.abs(vals) < 1e-9).sum()) != 1:
            _fail("laplacian-single-zero-mode", f"eigs={vals}")
        _within("laplacian-psd", -vals.min(), 1e-9, f"eigs={vals}")
        dmat = distances(g)
        brute = [_bfs_ecc(g, v) for v in range(n)]
        ecc = dmat.max(axis=1)
        if not np.array_equal(ecc, np.array(brute)):
            _fail("distances-vs-bfs", f"{ecc} vs {brute}")
        ctr = set(center(g))
        argmin = {int(i) for i in np.flatnonzero(ecc == ecc.min())}
        if ctr != argmin:
            _fail("center-vs-bfs-argmin", f"{ctr} vs {argmin}")


def check_resistance_routes(rng, trials, nmax, fault=None):
    for _ in range(trials):
        g = _graph(rng, 2, nmax, True)
        n = g.n
        rmat = resistance_matrix(g)
        lap = laplacian(g)
        # independent route: ground at j, read the grounded inverse at i
        j = int(rng.integers(0, n))
        keep = [i for i in range(n) if i != j]
        grounded = np.linalg.inv(lap[np.ix_(keep, keep)])
        for pos, i in enumerate(keep):
            _within("resistance-pinv-vs-grounded", abs(rmat[i, j] - grounded[pos, pos]), 1e-9,
                    f"pair ({i},{j}): {rmat[i, j]} vs {grounded[pos, pos]}")
        tree = random_connected_graph(rng, n, tree=True)
        _within("tree-resistance-equals-distance",
                np.abs(resistance_matrix(tree) - distances(tree)).max(), 1e-9, f"edges={tree.edges}")


def check_grounded_vs_extended(rng, trials, nmax, fault=None):
    for _ in range(trials):
        g = _graph(rng, 2, nmax, None)
        n = g.n
        kappa = float(rng.choice([0.1, 1.0, 10.0]))
        dset = _nodes(rng, n, int(rng.integers(1, min(3, n) + 1)))
        gdiag = grounded_inverse_diag(GroundedSystem(g, dset, kappa))
        pinv = laplacian_pinv(extended_graph(g, dset, kappa))
        for i in range(n):
            r_virtual = pinv[i, i] + pinv[n, n] - 2.0 * pinv[i, n]
            _within("grounded-diag-vs-extended-pinv",
                    abs(gdiag[i] - r_virtual) / max(abs(r_virtual), 1e-30), 1e-9,
                    f"node {i}: {gdiag[i]} vs {r_virtual}")


def check_rayleigh_monotonicity(rng, trials, nmax, fault=None):
    for _ in range(trials):
        g = _graph(rng, 3, nmax, None)
        n = g.n
        present = {(i, j) for i, j, _ in g.edges}
        missing = [
            (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in present
        ]
        if missing:
            i, j = missing[int(rng.integers(0, len(missing)))]
            g2 = g.with_edge(i, j, float(rng.uniform(0.5, 2.0)))
        else:
            i, j, w = g.edges[int(rng.integers(0, len(g.edges)))]
            g2 = Graph(
                n,
                tuple(
                    (a, b, ww * 2.0 if (a, b) == (i, j) else ww)
                    for a, b, ww in g.edges
                ),
            )
        _within("resistance-edge-monotonicity", (resistance_matrix(g2) - resistance_matrix(g)).max(),
                1e-9, f"added/upgraded ({i},{j})")
        kappa = float(rng.choice([0.5, 1.0, 2.0]))
        dset = _nodes(rng, n, 2)
        g1d = grounded_inverse_diag(GroundedSystem(g, dset, kappa))
        g2d = grounded_inverse_diag(GroundedSystem(g2, dset, kappa))
        _within("grounded-diag-edge-monotonicity", (g2d - g1d).max(), 1e-9, f"D={dset}")


def check_gain_monotonicity(rng, trials, nmax, fault=None):
    for _ in range(trials):
        g = _graph(rng, 2, nmax)
        dset = _nodes(rng, g.n, 1 + int(rng.integers(0, min(2, g.n))))
        prev = None
        for kappa in [0.2, 0.5, 1.0, 2.0, 5.0]:
            cur = grounded_inverse_diag(GroundedSystem(g, dset, kappa))
            if prev is not None and not (cur < prev).all():
                _fail("grounded-diag-gain-decreasing", f"kappa={kappa}, D={dset}")
            prev = cur


def _random_scenario(rng, nmax, law, allow_empty_defense):
    g = _graph(rng, 3, nmax)
    n = g.n
    kappa = float(rng.choice([0.2, 1.0, 5.0]))
    dset = _nodes(rng, n, int(rng.integers(0 if allow_empty_defense else 1, n + 1)))
    aset = _nodes(rng, n, int(rng.integers(1, n + 1)))
    return Scenario(g, law, kappa, dset, aset)


def check_h2_oracle_law2(rng, trials, nmax, fault=None):
    for _ in range(trials):
        s = _random_scenario(rng, nmax, ControlLaw.REL_VELOCITY, False)
        cf = h2_closed_form(s).value_sq
        oracle = h2_energy_oracle(s).value_sq
        _within("h2-closed-vs-oracle-law2", abs(cf - oracle) / cf, 1e-6, f"{cf} vs {oracle} on {s}")


def check_h2_oracle_law1_undefended(rng, trials, nmax, fault=None):
    # law 1 with no defended node; under this uniform damping the exact H2
    # checked here also equals the game's damped-degree payoff
    for _ in range(trials):
        g = _graph(rng, 3, nmax)
        aset = _nodes(rng, g.n, int(rng.integers(1, g.n + 1)))
        s = Scenario(g, ControlLaw.ABS_VELOCITY, 1.0, (), aset)
        cf = h2_closed_form(s).value_sq
        oracle = h2_energy_oracle(s).value_sq
        _within("h2-closed-vs-oracle-law1-undefended", abs(cf - oracle) / cf, 1e-6, f"{cf} vs {oracle}")


def check_lyapunov_blocks(rng, trials, nmax, fault=None):
    for _ in range(trials):
        s = _random_scenario(rng, nmax, ControlLaw.ABS_VELOCITY, True)
        res = lyapunov_residual(s)
        _within("lyapunov-block-residual", res, 1e-12, f"residual {res} on {s}")


def check_law1_closed_form(rng, trials, nmax, fault=None):
    # the law-1 predictor against the brute-force solve for f = 1-3 on unit
    # and weighted graphs, with the gain on both sides of the NE threshold
    for t in range(trials):
        g = _graph(rng, 2, nmax, None)
        n = g.n
        f = int(rng.integers(1, min(3, n) + 1))
        kbar = game.nash_threshold(g, f)
        spread = float(10.0 ** rng.uniform(-3.0, 1.0))
        if t % 2 == 0 and 0.0 < kbar < math.inf:
            kappa = kbar / (1.0 + spread)
        else:  # above the threshold, or any gain when f = n
            kappa = spread + (kbar if kbar < math.inf else 0.0)
        m = game.build_matrix(g, kappa, f, ControlLaw.ABS_VELOCITY)
        saddle = game.find_nash(m)
        if (saddle is not None) != (kappa <= kbar):
            _fail("ne-exists-iff-degree-gap", f"f={f}, kappa={kappa}, kbar={kbar}, saddle={saddle}")
        rep, pred = game.solve(m), game.predict_equilibrium(m)
        if (pred.kind, pred.value) != (rep.kind, rep.value):
            _fail("law1-prediction-equals-solve", f"f={f}, kappa={kappa}: {pred} vs {rep}")
        c = np.sort(game._law1_costs(g, kappa)[0])[::-1]
        if (f == n or c[f - 1] > c[f]) and pred.defender_set != rep.defender_set:
            _fail("law1-leader-row", f"f={f}, kappa={kappa}: {pred.defender_set} vs {rep.defender_set}")


def check_law2_no_ne(rng, trials, nmax, fault=None):
    for _ in range(trials):
        g = _graph(rng, 2, nmax)
        kappa = float(rng.choice([0.5, 1.0, 2.0]))
        v = game.build_matrix(g, kappa, 1, ControlLaw.REL_VELOCITY).values  # scanned: find_nash reads the theorem
        if ((v == v.max(axis=1)[:, None]) & (v == v.min(axis=0))).any():
            _fail("law2-never-has-pure-ne", f"kappa={kappa}, edges={g.edges}")


def check_payoff_structure(rng, trials, nmax, fault=None):
    for _ in range(trials):
        g = _graph(rng, 2, nmax)
        n = g.n
        kappa = float(rng.uniform(0.1, 3.0))
        m1 = game.build_matrix(g, kappa, 1, ControlLaw.ABS_VELOCITY)
        col_argmin = m1.values.argmin(axis=0)
        if not np.array_equal(col_argmin, np.arange(n)):
            _fail("law1-column-min-on-diagonal", f"argmin={col_argmin}")
        v = game.build_matrix(g, kappa, 1, ControlLaw.REL_VELOCITY).values
        for i in range(n):
            if not ((v[i, i] < np.delete(v[i], i)).all() and (v[i, i] < np.delete(v[:, i], i)).all()):
                _fail("law2-diagonal-strict-minimum", f"i={i}")
        # law-1 value ignores defenses placed outside the attacked set: node
        # 0 defended, or node 1 when 0 is the one attacked
        attack = (int(rng.integers(0, n)),)
        base = game.payoff_j1(g, kappa, attack, ())
        moved = game.payoff_j1(g, kappa, attack, (int(attack[0] == 0),))
        _within("law1-defense-outside-attack-irrelevant", abs(base - moved), 0.0, f"{base} vs {moved}")
        # every law-1 column's minimum is its own row's cell, in floating
        # point too, at any gain: the diagonal rule of `find_nash`
        for f in (2, 3):
            gain = float(10.0 ** rng.uniform(-20.0, 8.0))
            if f <= n:
                v = game.build_matrix(g, gain, f, ControlLaw.ABS_VELOCITY).values
                if not np.array_equal(np.diag(v), v.min(axis=0)):
                    _fail("law1-column-min-on-diagonal", f"f={f}, gain={gain}")


def check_attack_monotonicity(rng, trials, nmax, fault=None):
    for _ in range(trials):
        g = _graph(rng, 3, nmax)
        kappa = float(rng.uniform(0.1, 3.0))
        nodes = list(rng.permutation(g.n))
        small = tuple(sorted(int(i) for i in nodes[:2]))
        big = tuple(sorted(int(i) for i in nodes[:3]))
        dset = (int(nodes[-1]),)
        for law, payoff in (("law1", game.payoff_j1), ("law2", game.payoff_j2)):
            _within(f"attack-superset-monotonicity-{law}", payoff(g, kappa, small, dset),
                    payoff(g, kappa, big, dset) + 1e-12, f"{small} vs {big}")


def check_center_predictions(rng, trials, nmax, fault=None):
    minimax = []
    for _ in range(trials):
        n = int(rng.integers(3, nmax + 1))
        kappa = float(rng.choice([0.5, 1.0, 2.0]))
        # trees: defender sits at the hop center
        tree = random_connected_graph(rng, n, tree=True)
        m = game.build_matrix(tree, kappa, 1, ControlLaw.REL_VELOCITY)
        rep = game.stackelberg_defender_leader(m)
        expected = 0.5 + 0.5 / kappa + 0.5 * distances(tree).max(axis=1).min()
        _within("tree-center-value", abs(rep.value - expected), 1e-9, f"{rep.value} vs {expected}")
        if rep.defender_set[0] not in set(center(tree)):
            _fail("tree-center-row", f"{rep.defender_set} vs {center(tree)}")
        # general graphs: effective center
        g = random_connected_graph(rng, n)
        m = game.build_matrix(g, kappa, 1, ControlLaw.REL_VELOCITY)
        rep = game.stackelberg_defender_leader(m)
        expected = 0.5 + 0.5 / kappa + 0.5 * effective_eccentricities(g).min()
        _within("effective-center-value", abs(rep.value - expected), 1e-9, f"{rep.value} vs {expected}")
        if n >= 4:
            minimax.append((g, kappa))
    # those games meet no pure NE at f = 2, nor do weights e^U(-6, 6) on 3 or
    # more nodes at these gains; at f = n = 2 the one cell is a saddle
    for _ in range(trials):
        h = _graph(rng, 2, 4)
        g = Graph(h.n, tuple((i, j, float(np.exp(rng.uniform(-6, 6)))) for i, j, _ in h.edges))
        minimax.append((g, float(rng.choice([0.5, 1.0, 2.0]))))
    # f = 2: the resistance min-max against one grounded factorization per
    # subset, its two largest entries (stable ties) and the first least
    # sum; a pure NE, attacking the defended pair, iff that pair reaches it
    for g, kappa in minimax:
        loop = []
        for sub in combinations(range(g.n), 2):
            gdiag = grounded_inverse_diag(GroundedSystem(g, sub, kappa))
            top = np.sort(np.argsort(-gdiag, kind="stable")[:2])
            own = 1.0 + 0.5 * float(gdiag[list(sub)].sum())
            loop.append((1.0 + 0.5 * float(gdiag[top].sum()), sub, tuple(top.tolist()), own))
        value, sub, top, own = min(loop, key=lambda entry: entry[0])
        nash = own == value
        best = ("nash" if nash else "stackelberg_defender_leader", value, sub, sub if nash else top)
        pred = game.predict_equilibrium(game.build_matrix(g, kappa, 2, ControlLaw.REL_VELOCITY))
        if (pred.kind, pred.value, pred.defender_set, pred.attacker_set) != best:
            _fail("resistance-minimax-vs-subset-loop", f"{pred} vs {best}")


def check_certified_rows(rng, trials, nmax, fault=None):
    # law-2 rows from R within τ/8 of the factored rows, with up to every node
    # defended, weights 10^U(-6, 6) and gains 10^U(0, 8)
    for _ in range(trials):
        h = _graph(rng, 2, min(nmax, 8))
        g = Graph(h.n, tuple((i, j, float(10.0 ** rng.uniform(-6, 6))) for i, j, _ in h.edges))
        f = int(rng.integers(1, g.n + 1))
        m = game.build_matrix(g, float(10.0 ** rng.uniform(0, 8)), f, ControlLaw.REL_VELOCITY)
        w, tau = m.approx
        if tau:
            _within("low-rank-rows-within-tau", float(np.abs(w - m.rows).max()) / tau, 0.125,
                    f"f={f}, gain={m.gain}, tau={tau}, edges={g.edges}")


# every `check_*` function above, in definition order, named by its function
SUITES = [(name[len("check_"):].replace("_", "-"), fn)
          for name, fn in globals().items() if name.startswith("check_")]


def run_suites(
    seed: int = 0, trials: int = 15, nmax: int = 8, fault: str | None = None
) -> dict[str, str]:
    """Run every suite with a seeded generator; returns suite -> pass/fail text.

    ConfigError unless trials >= 1, nmax >= 3 (some suites draw 3 nodes) and seed >= 0.
    """
    for name, value, least in (("trials", trials, 1), ("nmax", nmax, 3), ("seed", seed, 0)):
        if value < least:
            raise ConfigError(f"verify {name} must be >= {least}, got {value}")
    results = {}
    for name, fn in SUITES:
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        try:
            fn(rng, trials, nmax, fault=fault)
        except VerificationFailure as exc:
            results[name] = f"fail: {exc}"
        else:
            results[name] = "pass"
    return results
