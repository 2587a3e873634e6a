import math
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from resgame import (
    ConfigError,
    ControlLaw,
    ConvergenceError,
    EnumerationLimitError,
    Graph,
    build_matrix,
    predict_equilibrium,
    solve,
    sweep_gain,
)
import resgame.game as game_module
from resgame.game import (
    ENUM_CAP_ENV,
    SubsetIndex,
    _indicator,
    find_nash,
    nash_threshold,
    payoff_j1,
    payoff_j2,
    stackelberg_defender_leader,
)
from resgame.graphcore import (
    center,
    complete_graph,
    cycle_graph,
    degree_profile,
    degrees,
    path_graph,
    star_graph,
)
from resgame.resistance import (
    GroundedSystem,
    effective_eccentricities,
    grounded_inverse_diag,
)

from conftest import random_connected_graph

LAW1 = ControlLaw.ABS_VELOCITY
LAW2 = ControlLaw.REL_VELOCITY


def closed_form_entry_j1(g: Graph, gain: float, attack_set, defense_set) -> float:
    """Law-1 matrix entry via the overlap decomposition (reference route)."""
    d = degrees(g)
    fset, dset = set(attack_set), set(defense_set)
    inside = fset & dset
    outside = fset - dset
    gamma1 = len(inside)
    gamma2 = len(outside)
    return (sum(d[i] for i in inside) + gamma1) / (2.0 * gain + 2.0) + 0.5 * (
        sum(d[i] for i in outside) + gamma2
    )


class TestSubsetIndex:
    def test_every_subset_once_in_lexicographic_order(self):
        idx = SubsetIndex(7, 3)
        assert idx.size == math.comb(7, 3)
        # reference: the 3-bit masks of 7 bits, decoded and sorted
        masks = [m for m in range(2**7) if bin(m).count("1") == 3]
        expected = sorted(tuple(i for i in range(7) if m >> i & 1) for m in masks)
        assert idx.subsets.shape == (idx.size, 3) and idx.subsets.dtype == np.intp
        assert list(map(tuple, idx.subsets.tolist())) == expected
        assert idx.subsets is idx.subsets  # enumerated once
        assert not idx.subsets.flags.writeable

    def test_lexicographic_order(self):
        idx = SubsetIndex(4, 2)
        assert idx.subset(0) == (0, 1)
        assert idx.subset(idx.size - 1) == (2, 3)

    def test_size_without_enumerating(self, monkeypatch):
        monkeypatch.setenv(ENUM_CAP_ENV, "10000")
        idx = SubsetIndex(2000, 3)
        assert idx.size == math.comb(2000, 3)
        assert "subsets" not in vars(idx)
        with pytest.raises(EnumerationLimitError, match="enumeration cap"):
            idx.subsets

    def test_rejects_bad_budget(self):
        with pytest.raises(ConfigError):
            SubsetIndex(3, 0)
        with pytest.raises(ConfigError):
            SubsetIndex(3, 4)

    @pytest.mark.parametrize("f", [1.5, True, 1.0, "1"], ids=["float", "bool", "float-1", "str"])
    @pytest.mark.parametrize("law", list(ControlLaw), ids=["law1", "law2"])
    def test_build_matrix_rejects_non_integer_budget(self, f, law):
        with pytest.raises(ConfigError, match=f"budget f must be an integer, got {re.escape(repr(f))}"):
            build_matrix(path_graph(3), 1.0, f, law)


class TestPayoffs:
    def test_j1_degree_formula(self):
        g = star_graph(5)
        # hub degree 4, attacked undefended: (4+1)/2
        assert payoff_j1(g, 1.0, (0,), ()) == pytest.approx(2.5, abs=1e-12)
        # defended: divided by (1 + kappa)
        assert payoff_j1(g, 1.0, (0,), (0,)) == pytest.approx(1.25, abs=1e-12)

    def test_j1_overlap_decomposition_cross_check(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(3, 9)))
            kappa = float(rng.uniform(0.1, 3.0))
            f = int(rng.integers(1, 4))
            fset = tuple(sorted(int(i) for i in rng.choice(g.n, min(f, g.n), replace=False)))
            dset = tuple(sorted(int(i) for i in rng.choice(g.n, min(f, g.n), replace=False)))
            assert payoff_j1(g, kappa, fset, dset) == pytest.approx(
                closed_form_entry_j1(g, kappa, fset, dset), abs=1e-12
            )

    def test_j1_mixed_overlap_example(self):
        # P3, attack {0,1}, defend {1,2}: node 1 defended, node 0 not
        kappa = 0.7
        got = payoff_j1(path_graph(3), kappa, (0, 1), (1, 2))
        assert got == pytest.approx(1.0 + 3.0 / (2.0 * kappa + 2.0), abs=1e-12)

    def test_j2_requires_defense(self):
        with pytest.raises(ConfigError):
            payoff_j2(path_graph(3), 1.0, (0,), ())

    @pytest.mark.parametrize("gain", [math.nan, -1.0, 0.0, math.inf])
    def test_payoffs_reject_bad_gain(self, gain):
        for payoff in (payoff_j1, payoff_j2):
            with pytest.raises(ConfigError, match="gain must be positive and finite"):
                payoff(path_graph(3), gain, (1,), (1,))

    @pytest.mark.parametrize(
        "attack, defense, match",
        [((1, 1), (0,), "duplicates"), ((0,), (2, 2), "duplicates"),
         ((3,), (0,), "lie in"), ((0,), (-1,), "lie in")],
    )
    def test_payoffs_reject_bad_node_sets(self, attack, defense, match):
        for payoff in (payoff_j1, payoff_j2):
            with pytest.raises(ConfigError, match=match):
                payoff(path_graph(3), 1.0, attack, defense)

    def test_payoffs_require_an_attack(self):
        for payoff in (payoff_j1, payoff_j2):
            with pytest.raises(ConfigError, match="attack set must be nonempty"):
                payoff(path_graph(3), 1.0, (), (0,))

    def test_j2_attacking_single_defended_node(self):
        for kappa in (0.5, 1.0, 2.0):
            got = payoff_j2(path_graph(4), kappa, (2,), (2,))
            assert got == pytest.approx(0.5 + 0.5 / kappa, abs=1e-12)

    def test_attack_superset_monotone(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(3, 8)))
            kappa = float(rng.uniform(0.1, 3.0))
            nodes = [int(i) for i in rng.permutation(g.n)]
            small, big = tuple(sorted(nodes[:1])), tuple(sorted(nodes[:2]))
            dset = (nodes[-1],)
            assert payoff_j1(g, kappa, small, dset) <= payoff_j1(g, kappa, big, dset) + 1e-12
            assert payoff_j2(g, kappa, small, dset) <= payoff_j2(g, kappa, big, dset) + 1e-12


class TestBuildMatrix:
    @pytest.mark.parametrize("n, f", [(1, 1), (5, 1), (6, 2), (7, 3), (8, 8)])
    def test_indicator_equals_loop(self, n, f):
        subs = SubsetIndex(n, f).subsets
        expected = np.zeros((len(subs), n))
        for r, sub in enumerate(subs):
            for i in sub:
                expected[r, i] = 1.0
        assert np.array_equal(_indicator(n, subs), expected)

    def test_p3_single_budget_matrix(self):
        m = build_matrix(path_graph(3), 0.5, 1, LAW1)
        expected = 0.5 * np.array(
            [[2 / 1.5, 3.0, 2.0], [2.0, 3 / 1.5, 2.0], [2.0, 3.0, 2 / 1.5]]
        )
        assert np.abs(m.values - expected).max() < 1e-12

    def test_entries_match_scalar_payoffs(self, rng):
        g = random_connected_graph(rng, 5)
        for law, payoff in ((LAW1, payoff_j1), (LAW2, payoff_j2)):
            m = build_matrix(g, 1.3, 2, law)
            subs = m.index.subsets
            for r in range(0, len(subs), 3):
                for c in range(0, len(subs), 3):
                    assert m.values[r, c] == pytest.approx(
                        payoff(g, 1.3, subs[c], subs[r]), abs=1e-12
                    )

    def test_law1_column_minima_on_diagonal(self, rng):
        g = random_connected_graph(rng, 6)
        m = build_matrix(g, 1.0, 1, LAW1)
        assert np.array_equal(m.values.argmin(axis=0), np.arange(6))

    def test_law2_diagonal_strict_minima(self, rng):
        g = random_connected_graph(rng, 6)
        v = build_matrix(g, 1.0, 1, LAW2).values
        for i in range(6):
            assert (v[i, i] < np.delete(v[i], i)).all()
            assert (v[i, i] < np.delete(v[:, i], i)).all()

    def test_enumeration_cap(self, monkeypatch):
        g = complete_graph(10)
        monkeypatch.setenv(ENUM_CAP_ENV, "100")
        m = build_matrix(g, 1.0, 5, LAW1)  # builds lazily: nothing enumerated yet
        with pytest.raises(EnumerationLimitError):
            m.values
        with pytest.raises(EnumerationLimitError):
            solve(m)
        with pytest.raises(EnumerationLimitError):
            sweep_gain(g, 5, LAW1, [1.0])
        with pytest.raises(EnumerationLimitError):
            predict_equilibrium(build_matrix(g, 1.0, 5, LAW2))
        monkeypatch.setenv(ENUM_CAP_ENV, "300")
        assert build_matrix(g, 1.0, 5, LAW1).values.shape == (252, 252)

    def test_law1_prediction_needs_no_enumeration(self, monkeypatch):
        monkeypatch.setenv(ENUM_CAP_ENV, "10")
        pred = predict_equilibrium(build_matrix(path_graph(2000), 5.0, 3, LAW1))
        assert pred.theorem == "top-degrees"
        assert pred.defender_set == (1, 2, 3) and pred.attacker_set == (4, 5, 6)

    def test_law2_single_budget_prediction_needs_no_enumeration(self, monkeypatch):
        monkeypatch.setenv(ENUM_CAP_ENV, "10")
        m = build_matrix(path_graph(41), 1.0, 1, LAW2)
        pred = predict_equilibrium(m)
        assert pred.theorem == "tree-center" and pred.defender_set == (20,)
        assert "subsets" not in vars(m.index) and "rows" not in vars(m)


class TestNash:
    def test_p3_saddle_below_threshold(self):
        m = build_matrix(path_graph(3), 0.4, 1, LAW1)
        assert find_nash(m) == (1, 1, pytest.approx(3.0 / 2.8, abs=1e-12))

    def test_p3_no_saddle_above_threshold(self):
        assert find_nash(build_matrix(path_graph(3), 0.6, 1, LAW1)) is None

    def test_threshold_value(self):
        assert nash_threshold(path_graph(3)) == pytest.approx(0.5, abs=1e-15)
        assert nash_threshold(star_graph(5)) == pytest.approx(1.5, abs=1e-15)

    def test_existence_matches_threshold(self, rng):
        for _ in range(50):
            g = random_connected_graph(rng, int(rng.integers(3, 8)))
            kappa = float(rng.uniform(1e-6, 2.0))
            saddle = find_nash(build_matrix(g, kappa, 1, LAW1))
            assert (saddle is not None) == (kappa <= nash_threshold(g))

    @staticmethod
    def _seeded(n, f, law, w):
        """A game on n nodes whose per-node table W is `w` instead of the graph's."""
        m = build_matrix(path_graph(n), 0.5, f, law)
        vars(m)["rows"] = np.asarray(w, dtype=float)
        return m

    def test_lexicographic_tie_break(self):
        # constant W: every cell is a saddle; smallest (row, col) wins
        for f in (1, 2, 3):
            for law in (LAW1, LAW2):
                m = self._seeded(4, f, law, np.ones((math.comb(4, f), 4)))
                assert find_nash(m) == (0, 0, f + (0.5 * f if law is LAW2 else 0.0))

    @staticmethod
    def _first_saddle_by_scan(values):
        row_max = values.max(axis=1)
        col_min = values.min(axis=0)
        saddles = [
            (r, c, float(values[r, c]))
            for r in range(values.shape[0])
            for c in range(values.shape[1])
            if values[r, c] >= row_max[r] and values[r, c] <= col_min[c]
        ]
        return (saddles[0] if saddles else None), len(saddles)

    def test_matches_cell_scan_with_many_saddles(self):
        # small-integer W tables: their sums are exact, so ties are dense and
        # the matrix equals the indicator product; half are capped at a
        # value v with about half their rows constant v, so that many rows
        # and columns tie at the min-max
        rng = np.random.default_rng(4)
        multi = 0
        for trial in range(1500):
            f = 1 + trial % 3
            law = (LAW1, LAW2)[trial // 3 % 2]
            n = int(rng.integers(f, 7))
            subs = SubsetIndex(n, f).subsets
            w = rng.integers(0, 4, (len(subs), n))
            if trial % 4 >= 2:
                v = int(rng.integers(1, 4))
                w = np.minimum(w, v)
                w[rng.random(len(subs)) < 0.5] = v
            m = self._seeded(n, f, law, w)
            product = w @ _indicator(n, subs).T + (0.5 * f if law is LAW2 else 0.0)
            assert np.array_equal(m.values, product)
            saddle, count = self._first_saddle_by_scan(m.values)
            assert find_nash(m) == saddle
            multi += count > 1
        assert multi > 100


class TestMatrixFree:
    @staticmethod
    def _product(w, subs, f, law):
        """The indicator product rows @ y.T, plus f/2 in place for law 2."""
        values = w @ _indicator(w.shape[1], subs).T
        if law is LAW2:
            values += 0.5 * f
        return values

    def test_cells_equal_indicator_product_for_f_le_2(self, rng):
        # real-valued W over six decades, so that sums round
        for trial in range(80):
            f, law = 1 + trial % 2, (LAW1, LAW2)[trial // 2 % 2]
            n = int(rng.integers(f, 10))
            subs = SubsetIndex(n, f).subsets
            w = rng.random((len(subs), n)) * 10.0 ** rng.integers(-3, 4, (len(subs), n))
            m = TestNash._seeded(n, f, law, w)
            product = self._product(w, subs, f, law)
            r0, cells = m.leader_row
            assert r0 == int(product.max(axis=1).argmin())
            assert np.array_equal(cells, product[r0])
            assert np.array_equal(m.values, product)
        for law in (LAW1, LAW2):
            m = build_matrix(random_connected_graph(rng, 8, weighted=True), 0.9, 2, law)
            assert np.array_equal(m.values, self._product(m.rows, m.index.subsets, 2, law))

    def test_f3_solvers_agree_with_matrix_scan(self, rng):
        games = [build_matrix(random_connected_graph(rng, 7, weighted=bool(k % 2)), gain, f, law)
                 for k, gain in enumerate((0.3, 2.0)) for f in (3, 4) for law in (LAW1, LAW2)]
        for trial in range(40):
            f, law = 3 + trial % 2, (LAW1, LAW2)[trial // 2 % 2]
            n = int(rng.integers(f, 8))
            w = rng.random((math.comb(n, f), n)) * 10.0 ** rng.integers(-3, 4, (math.comb(n, f), n))
            games.append(TestNash._seeded(n, f, law, w))
        for m in games:
            values = m.values
            # the cell rule: entries added in ascending order, then f/2 for law 2
            half = 0.5 * m.f if m.law is LAW2 else 0.0
            subs = m.index.subsets.tolist()
            assert values.tolist() == [
                [sum(sorted(w[i] for i in c)) + half for c in subs] for w in m.rows.tolist()
            ]
            row_max = values.max(axis=1)
            r = int(row_max.argmin())
            c = int(values[r].argmax())
            leader = stackelberg_defender_leader(m)
            assert (leader.defender_set, leader.attacker_set) == (m.index.subset(r), m.index.subset(c))
            assert leader.value == values[r, c] == row_max[r]
            saddle, _ = TestNash._first_saddle_by_scan(values)
            assert find_nash(m) == saddle
            rep = solve(m)
            if saddle is not None:
                assert rep.kind == "nash"
                assert (rep.defender_set, rep.attacker_set) == tuple(map(m.index.subset, saddle[:2]))
            else:
                assert rep == leader

    def test_solvers_build_no_matrix(self, rng, monkeypatch):
        g = random_connected_graph(rng, 7)
        for f in (1, 2, 3):
            for law in (LAW1, LAW2):
                m = build_matrix(g, 0.8, f, law)
                solve(m)
                stackelberg_defender_leader(m)
                predict_equilibrium(m)
                # law 2 decides from the low-rank table, without the exact one
                assert ("rows" in vars(m)) == (law is LAW1) and "values" not in vars(m)
        built = []
        monkeypatch.setattr(
            game_module, "build_matrix", lambda *args: built.append(build_matrix(*args)) or built[-1]
        )
        for law in (LAW1, LAW2):
            sweep_gain(g, 2, law, [0.1, 1.0, 10.0])
        assert len(built) == 6
        assert all(("rows" in vars(m)) == (m.law is LAW1) and "values" not in vars(m) for m in built)

    @pytest.mark.parametrize("kind", ["random", "cycle"])
    def test_law1_solve_memory_at_the_cap(self, rng, kind):
        # N = C(141, 2) = 9,870: the dense matrix alone would be 779 MB; on the
        # cycle every column not meeting row 0 ties at the row maximum
        g = random_connected_graph(rng, 141) if kind == "random" else cycle_graph(141)
        m = build_matrix(g, 0.3, 2, LAW1)
        tracemalloc.start()
        try:
            rep = solve(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert "values" not in vars(m)
        if kind == "cycle":
            assert rep == stackelberg_defender_leader(m)
            assert (rep.defender_set, rep.attacker_set, rep.value) == ((0, 1), (2, 3), 3.0)


class TestCertifiedRows:
    """Law-2 answers from the low-rank table equal those of the exact table.

    Each game is solved as built, deciding from `approx` and factoring only
    the rows it cannot settle, and again with the exact table `rows` set,
    which is the exact path. Reports are compared bit for bit.
    """

    @staticmethod
    def _exact(g, gain, f):
        m = build_matrix(g, gain, f, LAW2)
        vars(m)["rows"] = game_module._payoff_rows(g, gain, LAW2, m.index.subsets)
        return m

    def _check(self, monkeypatch, games):
        """Compare solve, predict and sweep on each (graph, gains, budgets); count fast games."""
        fast = 0
        for g, gains, budgets in games:
            for f in budgets:
                for gain in gains:
                    m = build_matrix(g, gain, f, LAW2)
                    exact = self._exact(g, gain, f)
                    assert (solve(m), predict_equilibrium(m)) == (solve(exact), predict_equilibrium(exact))
                    w, tau = m.approx
                    if tau:
                        assert np.abs(w - exact.rows).max() <= tau / 8
                        assert "rows" not in vars(m)
                        fast += 1
                with monkeypatch.context() as patch:
                    patch.setattr(game_module, "build_matrix", lambda g, gain, f, law: self._exact(g, gain, f))
                    expected = sweep_gain(g, f, LAW2, gains)
                assert sweep_gain(g, f, LAW2, gains) == expected
        return fast

    def test_random_unit_weight_graphs(self, rng, monkeypatch):
        games = [(random_connected_graph(rng, int(rng.integers(4, 12))), (0.2, 1.0, 5.0), (1, 2, 3))
                 for _ in range(8)]
        assert self._check(monkeypatch, games) == 72

    def test_dense_ties(self, monkeypatch):
        # symmetric graphs: many rows share their largest payoff exactly
        twin_leaves = Graph(8, ((0, 1), (1, 2), (2, 3), (2, 4), (0, 5), (0, 6), (1, 7)))
        graphs = [cycle_graph(9), star_graph(8), complete_graph(7), twin_leaves]
        assert self._check(monkeypatch, [(g, (0.3, 1.0, 4.0), (1, 2, 3)) for g in graphs]) == 36

    def test_ill_conditioned(self, rng, monkeypatch):
        # weights over twelve decades and extreme gains: W̃ is far from W, so
        # the bound must grow with the conditioning or answers change
        games = []
        for _ in range(8):
            base = random_connected_graph(rng, int(rng.integers(5, 11)))
            g = Graph(base.n, tuple((i, j, float(10.0 ** rng.uniform(-6, 6))) for i, j, _ in base.edges))
            games.append((g, (1e-8, 1.0, 1e8), (1, 2, 3)))
        games.append((path_graph(150), (1e-8, 1e8), (1,)))
        assert self._check(monkeypatch, games) == 74

    def test_one_node_graph_falls_back_to_exact_rows(self):
        # G does not factor (L = [[0]], a = d_max = 0), so approx is the exact table
        m = build_matrix(Graph(1, ()), 1.0, 1, LAW2)
        w, tau = m.approx
        assert tau == 0.0 and np.array_equal(w, m.rows)
        assert solve(m).value == 1.0

    def test_unfactorable_graph_keeps_the_exact_error(self):
        # weights 1e8 and 1e-8 in turn: neither G nor the grounded rows factor
        g = Graph(20, tuple((i, i + 1, 1e-8 if i % 2 else 1e8) for i in range(19)))
        m = build_matrix(g, 1.0, 1, LAW2)
        with pytest.raises(ConvergenceError, match="potrf"):
            solve(m)


class TestSolveAndPredict:
    def test_stackelberg_max_degree_defender(self):
        g = star_graph(5)
        rep = stackelberg_defender_leader(build_matrix(g, 2.0, 1, LAW1))
        assert rep.defender_set == (0,)
        assert rep.value == pytest.approx(1.0, abs=1e-12)  # (delta2+1)/2

    def test_solve_prefers_nash(self):
        rep = solve(build_matrix(path_graph(3), 0.4, 1, LAW1))
        assert rep.kind == "nash"
        rep = solve(build_matrix(path_graph(3), 1.0, 1, LAW1))
        assert rep.kind == "stackelberg_defender_leader"
        assert rep.defender_set == (1,) and rep.value == pytest.approx(1.0)

    def test_prediction_matches_brute_force_law1(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(3, 8)))
            kappa = float(rng.uniform(0.05, 2.5))
            pred = predict_equilibrium(build_matrix(g, kappa, 1, LAW1))
            rep = solve(build_matrix(g, kappa, 1, LAW1))
            if pred.kind == "nash":
                assert rep.kind == "nash"
                assert rep.value == pytest.approx(pred.value, abs=1e-12)
            elif pred.kind != "none":
                assert rep.value == pytest.approx(pred.value, abs=1e-12)

    def test_prediction_law1_top_degrees(self, rng):
        done = 0
        while done < 15:
            g = random_connected_graph(rng, int(rng.integers(4, 9)))
            f = 2
            if g.n < 2 * f:
                continue
            prof = degree_profile(g)
            kappa = 0.5 * (f * prof.delta1 - 2.0) + 1.0
            pred = predict_equilibrium(build_matrix(g, kappa, f, LAW1))
            assert pred.theorem == "top-degrees"
            rep = stackelberg_defender_leader(build_matrix(g, kappa, f, LAW1))
            assert rep.value == pytest.approx(pred.value, abs=1e-12)
            done += 1

    def test_prediction_law1_reads_no_laplacian(self):
        # degrees come from one O(n) sum per graph; the 2000 x 2000
        # Laplacian alone would be 32 MB
        g = path_graph(2000)
        m = build_matrix(g, 5.0, 3, LAW1)
        tracemalloc.start()
        try:
            pred = predict_equilibrium(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert pred.theorem == "top-degrees"
        assert "_laplacian" not in vars(g)

    def test_prediction_law2_center(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 9))
            kappa = float(rng.choice([0.5, 1.0, 2.0]))
            tree = random_connected_graph(rng, n, tree=True)
            pred = predict_equilibrium(build_matrix(tree, kappa, 1, LAW2))
            assert pred.theorem == "tree-center"
            assert pred.defender_set[0] in set(center(tree))
            rep = stackelberg_defender_leader(build_matrix(tree, kappa, 1, LAW2))
            assert rep.value == pytest.approx(pred.value, abs=1e-9)
            g = random_connected_graph(rng, n)
            pred = predict_equilibrium(build_matrix(g, kappa, 1, LAW2))
            ecc = effective_eccentricities(g)
            assert pred.value == pytest.approx(0.5 + 0.5 / kappa + 0.5 * ecc.min(), abs=1e-12)
            rep = stackelberg_defender_leader(build_matrix(g, kappa, 1, LAW2))
            assert rep.value == pytest.approx(pred.value, abs=1e-9)

    def test_prediction_law2_multi_budget(self, rng):
        for _ in range(5):
            g = random_connected_graph(rng, 6)
            pred = predict_equilibrium(build_matrix(g, 1.0, 2, LAW2))
            assert pred.theorem == "resistance-minimax"
            rep = stackelberg_defender_leader(build_matrix(g, 1.0, 2, LAW2))
            assert rep.value == pytest.approx(pred.value, abs=1e-9)

    def test_resistance_minimax_matches_subset_loop(self, rng):
        # reference: one grounded factorization per defender subset, the f
        # largest diagonal entries (stable ties), first strict minimum wins
        graphs = [complete_graph(5), Graph(5, tuple((i, (i + 1) % 5, 1.0) for i in range(5)))]
        graphs += [random_connected_graph(rng, 7, weighted=bool(k % 2)) for k in range(6)]
        for g in graphs:
            for f in (2, 3):
                best = None
                for sub in combinations(range(g.n), f):
                    gdiag = grounded_inverse_diag(GroundedSystem(g, sub, 0.7))
                    nodes = tuple(sorted(np.argsort(-gdiag, kind="stable")[:f].tolist()))
                    worst = float(sum(gdiag[i] for i in nodes))
                    if best is None or worst < best[0]:
                        best = (worst, sub, nodes)
                pred = predict_equilibrium(build_matrix(g, 0.7, f, LAW2))
                assert (pred.defender_set, pred.attacker_set) == best[1:]
                assert pred.value == 0.5 * f + 0.5 * best[0]

    def test_resistance_minimax_exact_table_keeps_rounding_ties(self):
        # τ = 0: rows 0 and 1 hold the same three worst entries, permuted and
        # one ulp apart, so row 0's node-order sum rounds above row 1's while
        # row 1's `_cells` maximum rounds above row 0's; the margin must leave
        # room for that rounding, or row 0 alone is a candidate
        w = [
            [3.8923705390608188, 6.998678150332286, 0.9764256640870306, 0.0],
            [6.998678150332286, 0.9764256640870306, 0.0, 3.892370539060819],
            [10.0, 10.0, 10.0, 0.0],
            [10.0, 10.0, 0.0, 10.0],
        ]
        m = TestNash._seeded(4, 3, LAW2, w)
        assert m.approx[1] == 0.0
        pred = predict_equilibrium(m)
        assert (pred.defender_set, pred.attacker_set) == ((0, 1, 3), (0, 1, 3))
        assert pred.value == 13.367474353480135

    def test_no_prediction_for_weighted_law1(self):
        g = Graph(3, ((0, 1, 2.0), (1, 2, 1.0)))
        assert predict_equilibrium(build_matrix(g, 1.0, 1, LAW1)).kind == "none"


class TestSweep:
    def test_crossover_graph(self):
        # delta1=3, delta2=2: attacker's best response against the defended
        # hub switches from the hub to a degree-2 node at kappa = 1/3
        g = Graph(4, ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0)))
        assert degree_profile(g).delta1 == 3.0 and degree_profile(g).delta2 == 2.0
        rows = sweep_gain(g, 1, LAW1, [0.2, 1.0 / 3.0, 0.5])
        assert rows[0].kind == "nash" and rows[0].attacker_set == (0,)
        assert rows[2].kind == "stackelberg_defender_leader"
        assert rows[2].attacker_set in ((1,), (2,))
        # equal payoffs at the boundary
        m = build_matrix(g, 1.0 / 3.0, 1, LAW1)
        assert m.values[0, 0] == pytest.approx(m.values[0, 1], abs=1e-12)

    def test_rejects_bad_grid(self):
        with pytest.raises(ConfigError):
            sweep_gain(path_graph(3), 1, LAW1, [])
        with pytest.raises(ConfigError):
            sweep_gain(path_graph(3), 1, LAW1, [0.5, -1.0])

    def test_rows_cover_grid(self):
        rows = sweep_gain(path_graph(3), 1, LAW2, [0.5, 1.0])
        assert [r.kappa for r in rows] == [0.5, 1.0]
        assert all(r.kind == "stackelberg_defender_leader" for r in rows)
