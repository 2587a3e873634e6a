import math
import re
import tracemalloc
import warnings
from functools import cached_property
from itertools import combinations

import numpy as np
import pytest
import scipy.linalg

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
    laplacian,
    path_graph,
    star_graph,
)
from resgame.resistance import (
    GroundedSystem,
    effective_eccentricities,
    grounded_inverse_diag,
    shifted_inverse,
)

from conftest import random_connected_graph

LAW1 = ControlLaw.ABS_VELOCITY
LAW2 = ControlLaw.REL_VELOCITY


def exact_game(g: Graph, gain: float, f: int, law: ControlLaw):
    """The game with its exact table `rows` already set: the solvers then scan W."""
    m = build_matrix(g, gain, f, law)
    vars(m)["rows"] = game_module._payoff_rows(g, gain, law, m.index.subsets)
    return m


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


def indicator(n: int, subsets) -> np.ndarray:
    """0/1 matrix with y[r, i] = 1 when node i is in row r of the (R, f) node array."""
    y = np.zeros((len(subsets), n))
    for r, sub in enumerate(subsets):
        for i in sub:
            y[r, i] = 1.0
    return y


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

    def test_equals_itertools_combinations(self):
        for n in range(1, 13):
            for f in range(1, n + 1):
                idx = SubsetIndex(n, f)
                subs = idx.subsets
                assert subs.tolist() == [list(c) for c in combinations(range(n), f)], (n, f)
                assert subs.dtype == np.intp and subs.shape == (math.comb(n, f), f)
                assert not subs.flags.writeable and idx.subsets is subs

    @pytest.mark.parametrize("n, f", [(40, 3), (20, 18)])
    def test_enumeration_peak_memory(self, n, f):
        # no intermediate outgrows the (N, f) result: n = 20, f = 18 would
        # pass through C(20, 10) = 184,756 prefixes if dead ones were kept
        idx = SubsetIndex(n, f)
        tracemalloc.start()
        try:
            idx.subsets
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * idx.subsets.nbytes == 3 * 8 * math.comb(n, f) * f

    def test_lexicographic_order(self):
        idx = SubsetIndex(4, 2)
        assert idx.subset(0) == (0, 1)
        assert idx.subset(idx.size - 1) == (2, 3)

    def test_size_without_enumerating(self, monkeypatch):
        monkeypatch.setenv(ENUM_CAP_ENV, "10000")
        idx = SubsetIndex(2000, 3)
        assert idx.size == math.comb(2000, 3)
        assert "subsets" not in vars(idx)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationLimitError, match="enumeration cap"):
                idx.subsets
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2000  # the cap is checked before any O(n) array exists

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

    def test_build_matrix_normalises_law(self):
        # a plain 1 is law 1: value 1.0, not law 2's rows without its f/2
        assert solve(build_matrix(path_graph(3), 1.0, 1, 1)).value == 1.0
        assert build_matrix(path_graph(3), 1.0, 1, 2).law is LAW2
        assert build_matrix(path_graph(3), 1.0, 1, LAW2).law is LAW2

    @pytest.mark.parametrize("law", [3, 0, True, "2", 2.0])
    def test_build_matrix_rejects_bad_law(self, law):
        with pytest.raises(ConfigError, match=f"control law must be 1 or 2, got {re.escape(repr(law))}"):
            build_matrix(path_graph(3), 1.0, 1, law)

    @pytest.mark.parametrize("gain", [True, "1", 1j, None])
    def test_build_matrix_and_sweep_reject_non_real_gain(self, gain):
        # True would otherwise run as gain 1, a string fail deep inside
        match = f"gain must be a real number, got {re.escape(repr(gain))}"
        with pytest.raises(ConfigError, match=match):
            build_matrix(path_graph(3), gain, 1, 2)
        with pytest.raises(ConfigError, match=match):
            sweep_gain(path_graph(3), 1, LAW1, [0.5, gain])

    def test_build_matrix_normalises_gain(self):
        for gain in (2, np.int64(2), np.float32(2.0)):
            m = build_matrix(path_graph(3), gain, 1, 2)
            assert type(m.gain) is float and m.gain == 2.0


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


class TestLaw2Rows:
    """`_payoff_rows` for law 2 against one `grounded_inverse_diag(GroundedSystem(...))` per row."""

    @staticmethod
    def _per_row(g, gain, sets):
        return 0.5 * np.array([grounded_inverse_diag(GroundedSystem(g, s, gain)) for s in sets.tolist()])

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_rows_equal_the_per_row_factorizations(self, rng, f, weighted):
        for n in (f, 7, 12):
            g = random_connected_graph(rng, n, weighted=weighted)
            sets = SubsetIndex(n, f).subsets
            for gain in (1e-3, 0.7, 50.0):
                rows = game_module._payoff_rows(g, gain, LAW2, sets)
                assert np.array_equal(rows, self._per_row(g, gain, sets))

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    @pytest.mark.parametrize("n", [26, 30])
    def test_export_sized_rows_equal_scipy_cho_solve(self, rng, n, weighted):
        # the sizes of the benchmark's law-2 exports, f = 2, against SciPy's own factor and solve
        g = random_connected_graph(rng, n, weighted=weighted)
        sets = SubsetIndex(n, 2).subsets
        for gain in (1e-3, 0.7, 50.0):
            expected = np.empty((len(sets), n))
            for r, (a, b) in enumerate(sets.tolist()):
                lbar = laplacian(g)
                lbar[a, a] += gain
                lbar[b, b] += gain
                expected[r] = scipy.linalg.cho_solve(scipy.linalg.cho_factor(lbar), np.eye(n)).diagonal()
            assert np.array_equal(game_module._payoff_rows(g, gain, LAW2, sets), 0.5 * expected)

    def test_failed_factorization_mid_table_raises_the_rows_error(self):
        # at gain 3e-16 the 12-node path grounded at its end node 0 has no
        # positive last pivot; grounded anywhere else it factors
        g, gain = path_graph(12), 3e-16
        sets = np.array([[3], [7], [0], [5]])
        with pytest.raises(ConvergenceError) as expected:
            grounded_inverse_diag(GroundedSystem(g, (0,), gain))
        head = sets[:2]
        assert np.array_equal(game_module._payoff_rows(g, gain, LAW2, head), self._per_row(g, gain, head))
        with pytest.raises(ConvergenceError) as raised:
            game_module._payoff_rows(g, gain, LAW2, sets)
        assert str(raised.value) == str(expected.value) == (
            "grounded Laplacian factorization failed: LAPACK potrf info=12")


class TestBuildMatrix:
    @pytest.mark.parametrize("n, f", [(1, 1), (5, 1), (6, 2), (7, 3), (8, 8)])
    def test_indicator_equals_loop(self, rng, n, f):
        # law-1 W is c / (1 + kappa y) bit for bit, with y the indicator written out
        subs = SubsetIndex(n, f).subsets
        for weighted in (False, True):
            g = random_connected_graph(rng, n, weighted=weighted)
            c = 0.5 * (degrees(g) + 1.0)
            for gain in 10.0 ** np.arange(-8, 9):
                expected = c[None, :] / (1.0 + gain * indicator(n, subs))
                assert np.array_equal(game_module._payoff_rows(g, gain, LAW1, subs), expected)

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

    def test_law2_single_defender_has_no_saddle_at_small_gains(self):
        # the paper's theorem: law 2 with f = 1 has no pure NE on n >= 2 nodes.
        # The rounded rows of these 60 graphs gave a saddle in 56 games at
        # gain 1e-10 and in 50 at 1e-8 when find_nash scanned them
        rng = np.random.default_rng(0)
        graphs = [random_connected_graph(rng, int(rng.integers(3, 12))) for _ in range(60)]
        for kappa in (1e-10, 1e-8):
            games = [build_matrix(g, kappa, 1, LAW2) for g in graphs]
            assert [find_nash(m) for m in games] == [None] * 60
            assert {solve(m).kind for m in games} == {"stackelberg_defender_leader"}
        # the one-node game keeps its one-cell saddle
        assert find_nash(build_matrix(Graph(1, ()), 1e-8, 1, LAW2)) == (0, 0, 0.5 + 0.5e8)

    def test_threshold_value(self):
        assert nash_threshold(path_graph(3)) == pytest.approx(0.5, abs=1e-15)
        assert nash_threshold(star_graph(5)) == pytest.approx(1.5, abs=1e-15)
        # degrees 3, 2, 2, 2, 1: (delta2 - delta3)/(delta3 + 1) = 0, then (2 - 1)/2
        g = Graph(5, ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (3, 4, 1.0)))
        assert nash_threshold(g, 2) == 0.0 and nash_threshold(g, 4) == 0.5
        assert nash_threshold(path_graph(3), 3) == math.inf
        assert nash_threshold(Graph(1, ()), 1) == math.inf

    def test_existence_matches_threshold(self, rng):
        for k in range(150):
            g = random_connected_graph(rng, int(rng.integers(3, 8)), weighted=bool(k % 2))
            f = 1 + k % 3
            kappa = float(rng.uniform(1e-6, 2.0))
            saddle = find_nash(build_matrix(g, kappa, f, LAW1))
            assert (saddle is not None) == (kappa <= nash_threshold(g, f))

    @staticmethod
    def _seeded(n, f, law, w):
        """A game on n nodes whose per-node table W is `w` instead of the graph's."""
        m = build_matrix(path_graph(n), 0.5, f, law)
        vars(m)["rows"] = np.asarray(w, dtype=float)
        return m

    def test_lexicographic_tie_break(self):
        # constant W: every cell is a saddle; smallest (row, col) wins. Law 2
        # with f = 1 has no saddle on any graph, so no table is scanned there
        for f in (1, 2, 3):
            for law in (LAW1, LAW2):
                m = self._seeded(4, f, law, np.ones((math.comb(4, f), 4)))
                expected = None if law is LAW2 and f == 1 else (0, 0, f + (0.5 * f if law is LAW2 else 0.0))
                assert find_nash(m) == expected

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
            product = w @ indicator(n, subs).T + (0.5 * f if law is LAW2 else 0.0)
            assert np.array_equal(m.values, product)
            saddle, count = self._first_saddle_by_scan(m.values)
            assert find_nash(m) == (None if law is LAW2 and f == 1 < n else saddle)
            multi += count > 1
        assert multi > 100


class TestMatrixFree:
    @staticmethod
    def _product(w, subs, f, law):
        """The indicator product rows @ y.T, plus f/2 in place for law 2."""
        values = w @ indicator(w.shape[1], subs).T
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
                # law 1 decides from the costs, law 2 from the low-rank table
                assert "rows" not in vars(m) and "values" not in vars(m)
        enumerated, solved = [], []
        enumerate_subsets = vars(SubsetIndex)["subsets"].func
        counted = cached_property(lambda index: enumerated.append(index) or enumerate_subsets(index))
        counted.__set_name__(SubsetIndex, "subsets")
        monkeypatch.setattr(SubsetIndex, "subsets", counted)
        monkeypatch.setattr(game_module, "solve", lambda m: solved.append(m) or solve(m))
        for law in (LAW1, LAW2):
            sweep_gain(g, 2, law, [0.1, 1.0, 10.0])
        # one enumeration per sweep, shared by its three gains
        assert len(enumerated) == 2 and len(solved) == 6
        assert all(m.index is enumerated[k // 3] for k, m in enumerate(solved))
        assert all("rows" not in vars(m) and "values" not in vars(m) for m in solved)

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
        # the exact table W alone would be 11 MB
        assert peak < 4 * 2**20
        assert "rows" not in vars(m) and "values" not in vars(m)
        if kind == "cycle":
            assert rep == stackelberg_defender_leader(m)
            assert (rep.defender_set, rep.attacker_set, rep.value) == ((0, 1), (2, 3), 3.0)


    def test_law1_sweep_memory_at_the_cap(self, rng):
        # one gain per block at N = 9,870: 64 gains peak where one solve does
        g = random_connected_graph(rng, 141)
        tracemalloc.start()
        try:
            rows = sweep_gain(g, 2, LAW1, list(10.0 ** np.linspace(-3, 2, 64)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 64 and peak < 4 * 2**20


class TestLaw1FromCosts:
    """Law-1 answers from the costs equal those of the exact table W, bit for bit.

    A law-1 game takes its row maxima from the 2f largest costs and its
    saddle from the diagonal; the same game with `rows` set scans W.
    """

    def test_equal_bits_to_the_exact_table(self, rng):
        saddles = 0
        for n in range(2, 11):
            for f in range(1, n + 1):  # n < 2f included
                for weighted in (False, True):
                    g = random_connected_graph(rng, n)
                    if weighted:
                        g = Graph(n, tuple((i, j, float(np.exp(rng.uniform(-6, 6)))) for i, j, _ in g.edges))
                    for gain in 10.0 ** rng.uniform(-20, 8, 3):
                        m, exact = build_matrix(g, gain, f, LAW1), exact_game(g, gain, f, LAW1)
                        row_max = game_module._law1_row_max(m, [gain])[0]
                        assert row_max.tobytes() == exact._row_max(exact.rows).tobytes()
                        saddle = find_nash(m)
                        assert saddle == find_nash(exact)
                        assert solve(m) == solve(exact)
                        assert stackelberg_defender_leader(m) == stackelberg_defender_leader(exact)
                        (r0, cells), (r0_exact, cells_exact) = m.leader_row, exact.leader_row
                        assert r0 == r0_exact and cells.tobytes() == cells_exact.tobytes()
                        assert "rows" not in vars(m)
                        saddles += saddle is not None
        assert saddles > 50

    @staticmethod
    def _partition_row_max(m, gains):
        """The row maxima by two partitions of a (gains, N, 2f) candidate array: the reference."""
        c, c_hat = game_module._law1_costs(m.graph, np.array(gains)[:, None])
        subsets, f = m.index.subsets, m.f
        top = np.argsort(c)[-2 * f :]
        slot = np.full(len(c), -1)
        slot[top] = np.arange(len(top))
        own = slot[subsets]
        r, k = np.nonzero(own >= 0)
        outside = np.tile(c[top], (len(subsets), 1))
        outside[r, own[r, k]] = -np.inf
        entries = np.empty((len(gains), len(subsets), 2 * f))
        entries[..., :f] = np.partition(outside, -f, axis=1)[:, -f:]
        entries[..., f:] = c_hat[:, subsets]
        entries.partition(f, axis=2)
        return game_module._cells(entries[..., f:], m.law)

    def test_row_max_equals_the_partition_reference(self, rng):
        # several gains in one call, on tied degrees (cycles, complete graphs,
        # stars, unweighted random graphs) and weighted ones, n = f and n < 2f included
        gains = [1e-12, 0.3, 1.0, 1.0 + 2**-52, 7.5, 1e6]
        checked = 0
        for f in range(1, 5):
            for n in sorted({max(f, 2), *range(f + 1, 2 * f + 3)}):
                h = random_connected_graph(rng, n)
                weighted = Graph(n, tuple((i, j, float(np.exp(rng.uniform(-6, 6)))) for i, j, _ in h.edges))
                graphs = [path_graph(n), star_graph(n), complete_graph(n), h, weighted]
                if n >= 3:
                    graphs.append(cycle_graph(n))
                for g in graphs:
                    m = build_matrix(g, 1.0, f, LAW1)
                    row_max = game_module._law1_row_max(m, gains)
                    assert row_max.shape == (len(gains), len(m.index.subsets))
                    assert row_max.tobytes() == self._partition_row_max(m, gains).tobytes()
                    checked += 1
        assert checked > 100

    def test_costs_are_cached_per_graph_and_equal_the_degree_formula(self, rng):
        # c = (d+1)/2 is read from the graph; c and ĉ keep the bits of the formula computed per call
        gains = [1e-12, 0.3, 1.0, 1.0 + 2**-52, 7.5, 1e6]
        weighted = random_connected_graph(rng, 9, weighted=True)
        for g in [path_graph(5), star_graph(6), complete_graph(4), weighted]:
            expected = 0.5 * (degrees(g) + 1.0)
            for gain in gains:
                c, c_hat = game_module._law1_costs(g, gain)
                assert c.tobytes() == expected.tobytes() and not c.flags.writeable
                assert c_hat.tobytes() == (expected / (1 + gain)).tobytes()
            column = np.array(gains)[:, None]
            c_col, c_hat = game_module._law1_costs(g, column)
            assert c_col is c  # one array per graph
            assert c_hat.shape == (len(gains), g.n)
            assert c_hat.tobytes() == (expected / (1 + column)).tobytes()
            d = degrees(g)
            d += 1.0  # still a fresh writable copy, apart from the cached costs
            assert c.tobytes() == (0.5 * (degrees(g) + 1.0)).tobytes()

    def test_sweeps_equal_per_gain_solves(self, rng, monkeypatch):
        # blocks of 1-3 gains: every sweep here spans several of `_law1_leaders`' blocks
        monkeypatch.setattr(game_module, "_BLOCK_CELLS", 100)
        for n in range(2, 10):
            for f in range(1, min(n, 3) + 1):  # n < 2f included
                for weighted in (False, True):
                    g = random_connected_graph(rng, n)
                    if weighted:
                        g = Graph(n, tuple((i, j, float(np.exp(rng.uniform(-6, 6)))) for i, j, _ in g.edges))
                    gains = list(10.0 ** rng.uniform(-20, 3, 4))
                    kbar = nash_threshold(g, f)
                    if 0.0 < kbar < math.inf:  # the threshold and one ulp on either side
                        gains += [np.nextafter(kbar, 0.0), kbar, np.nextafter(kbar, math.inf)]
                    expected = [solve(build_matrix(g, gain, f, LAW1)) for gain in gains]
                    assert expected == [solve(exact_game(g, gain, f, LAW1)) for gain in gains]
                    rows = sweep_gain(g, f, LAW1, gains)
                    assert [(r.kappa, r.kind, r.defender_set, r.attacker_set, r.value) for r in rows] == [
                        (float(gain), e.kind, e.defender_set, e.attacker_set, e.value)
                        for gain, e in zip(gains, expected)
                    ]

    def test_rounding_saddles_off_the_diagonal(self):
        # 1 + 1e-20 rounds to 1: defended cells tie undefended ones, and the
        # first saddle is off the diagonal, in row 0
        for f, saddle in ((1, (0, 1, 1.5)), (2, (0, 4, 3.0))):
            m = build_matrix(path_graph(5), 1e-20, f, LAW1)
            assert find_nash(m) == find_nash(exact_game(path_graph(5), 1e-20, f, LAW1)) == saddle
            assert "rows" not in vars(m)


class TestCertifiedRows:
    """Law-2 answers from the low-rank table equal those of the exact table.

    Each game is solved as built, deciding from `approx` and factoring only
    the rows it cannot settle, and again with the exact table `rows` set,
    which is the exact path. Reports are compared bit for bit.
    """

    def _check(self, monkeypatch, games):
        """Compare solve, predict and sweep on each (graph, gains, budgets); count fast games."""
        fast = 0
        for g, gains, budgets in games:
            for f in budgets:
                for gain in gains:
                    m = build_matrix(g, gain, f, LAW2)
                    exact = exact_game(g, gain, f, LAW2)
                    assert (solve(m), predict_equilibrium(m)) == (solve(exact), predict_equilibrium(exact))
                    w, tau = m.approx
                    if tau:
                        assert np.abs(w - exact.rows).max() <= tau / 8
                        assert "rows" not in vars(m)
                        fast += 1
                with monkeypatch.context() as patch:
                    # every game the sweep solves, with its exact table
                    patch.setattr(game_module, "solve", lambda m: solve(exact_game(m.graph, m.gain, m.f, m.law)))
                    expected = sweep_gain(g, f, LAW2, gains)
                assert sweep_gain(g, f, LAW2, gains) == expected
        return fast

    def test_random_unit_weight_graphs(self, rng, monkeypatch):
        games = [(random_connected_graph(rng, int(rng.integers(4, 12))), (0.2, 1.0, 5.0), (1, 2, 3))
                 for _ in range(8)]
        assert self._check(monkeypatch, games) == 72

    def test_random_unit_weight_graphs_f4(self, rng, monkeypatch):
        # the kernel is generic in f: four defenders, three rank-one downdates per row
        games = [(random_connected_graph(rng, int(rng.integers(5, 12))), (0.2, 1.0, 5.0), (4,))
                 for _ in range(4)]
        assert self._check(monkeypatch, games) == 12

    def test_single_defender_rows_are_resistances(self, rng):
        # f = 1, D = {v}: W̃[v] = (R[v] + 1/κ) / 2 bit for bit, R_vi = G_vv - 2 G_vi + G_ii from the same G
        for _ in range(6):
            g = random_connected_graph(rng, int(rng.integers(2, 30)))
            big_g = shifted_inverse(g, float(degrees(g).max()))
            d = np.diag(big_g)
            r = d[:, None] - 2.0 * big_g + d
            for gain in (1e-3, 1.0, 1e3):
                w, tau = build_matrix(g, gain, 1, LAW2).approx
                assert 0.0 < tau
                assert w.tobytes() == (0.5 * (r + 1.0 / gain)).tobytes()

    def test_law2_solves_make_no_small_inverses(self, rng, monkeypatch):
        # every law-2 row comes from R: f = 1 reads it, f >= 2 downdates it, with no f x f inverse
        g = random_connected_graph(rng, 12)
        gains = [0.2, 1.0, 5.0]
        budgets = (1, 2, 3, 4)
        expected = {f: [solve(exact_game(g, gain, f, LAW2)) for gain in gains] for f in budgets}
        shapes = []
        inv = np.linalg.inv
        monkeypatch.setattr(game_module.np.linalg, "inv", lambda a: shapes.append(a.shape) or inv(a))
        for f in budgets:
            assert [solve(build_matrix(g, gain, f, LAW2)) for gain in gains] == expected[f]
            rows = sweep_gain(g, f, LAW2, gains)
            assert [(r.kind, r.defender_set, r.attacker_set, r.value) for r in rows] == [
                (e.kind, e.defender_set, e.attacker_set, e.value) for e in expected[f]]
        assert shapes == []

    def test_spread_weights_with_most_nodes_defended(self, monkeypatch):
        # n = 4-9, f = n - 1 or n - 2, weights 10^U(-6, 6) and gains 10^U(0, 8):
        # f x f Woodbury inverses missed τ/8 by up to 264 τ on these games and
        # reported wrong Stackelberg rows; the downdates stay within it
        rng = np.random.default_rng(5)
        games = []
        for _ in range(300):
            n = int(rng.integers(4, 10))
            f = n - 1 - int(rng.integers(0, 2))
            base = random_connected_graph(rng, n)
            g = Graph(n, tuple((i, j, float(10.0 ** rng.uniform(-6, 6))) for i, j, _ in base.edges))
            games.append((g, (float(10.0 ** rng.uniform(0, 8)),), (f,)))
        assert self._check(monkeypatch, games) == 300

    def test_non_finite_low_rank_table_falls_back_to_exact_rows(self, rng, monkeypatch):
        g = random_connected_graph(rng, 9)
        expected = [(solve(m), predict_equilibrium(m)) for m in (exact_game(g, 1.0, f, LAW2) for f in (1, 2, 3))]
        monkeypatch.setattr(game_module, "shifted_inverse", lambda g, a: np.full((g.n, g.n), np.nan))
        for f, answers in zip((1, 2, 3), expected):
            m = build_matrix(g, 1.0, f, LAW2)
            w, tau = m.approx
            assert tau == 0.0 and w is m.rows
            assert (solve(m), predict_equilibrium(m)) == answers

    def test_overflowing_rows_are_not_finite_without_warnings(self):
        # at gain 1e-160 the squared downdate columns overflow: τ is inf, so
        # `approx` falls back to the exact rows, and nothing reaches stderr
        g = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3), (1, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, tau = game_module._low_rank_rows(game_module._shifted(g), 1e-160, SubsetIndex(4, 2).subsets)
        assert tau == math.inf

    def test_law2_sweep_inverts_g_once(self, rng, monkeypatch):
        g = random_connected_graph(rng, 9)
        gains = [0.2, 1.0, 5.0]
        expected = [solve(build_matrix(g, gain, 2, LAW2)) for gain in gains]
        calls = []
        monkeypatch.setattr(game_module, "shifted_inverse",
                            lambda g, a: calls.append(a) or shifted_inverse(g, a))
        rows = sweep_gain(g, 2, LAW2, gains)
        assert len(calls) == 1
        assert [(r.kind, r.defender_set, r.attacker_set, r.value) for r in rows] == [
            (e.kind, e.defender_set, e.attacker_set, e.value) for e in expected]

    def test_law2_sweep_tries_an_unfactorable_g_once(self, monkeypatch):
        # G of the one-node graph does not factor: the sweep's None is handed
        # to every gain, not recomputed by each game's `approx`
        calls = []
        monkeypatch.setattr(game_module, "shifted_inverse",
                            lambda g, a: calls.append(a) or shifted_inverse(g, a))
        rows = sweep_gain(Graph(1, ()), 1, LAW2, [0.5, 1.0, 2.0, 4.0])
        assert len(calls) == 1
        assert [r.value for r in rows] == [solve(build_matrix(Graph(1, ()), k, 1, LAW2)).value
                                           for k in (0.5, 1.0, 2.0, 4.0)]

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
        for k in range(150):
            g = random_connected_graph(rng, int(rng.integers(3, 8)), weighted=bool(k % 2))
            f = 1 + k % 3
            kappa = float(10.0 ** rng.uniform(-3.0, 1.0))
            pred = predict_equilibrium(build_matrix(g, kappa, f, LAW1))
            rep = solve(build_matrix(g, kappa, f, LAW1))
            assert (pred.kind, pred.value) == (rep.kind, rep.value)
            c = np.sort(game_module._law1_costs(g, kappa)[0])[::-1]
            if f == g.n or c[f - 1] > c[f]:  # with c(f) = c(f+1) the sets may differ
                assert (pred.defender_set, pred.attacker_set) == (rep.defender_set, rep.attacker_set)

    def test_prediction_law1_at_the_edges(self):
        # one node: the only cell is a saddle, 0.5/(1 + kappa)
        pred = predict_equilibrium(build_matrix(Graph(1, ()), 1.0, 1, LAW1))
        assert (pred.kind, pred.defender_set, pred.attacker_set, pred.value) == ("nash", (0,), (0,), 0.25)
        assert pred.threshold is None and pred.gain_above_threshold is None
        # f = n: every node defended and attacked
        m = build_matrix(path_graph(3), 1.0, 3, LAW1)
        pred, rep = predict_equilibrium(m), solve(m)
        assert (pred.kind, pred.defender_set, pred.attacker_set, pred.value) == ("nash", (0, 1, 2), (0, 1, 2), 1.75)
        assert (rep.kind, rep.value) == ("nash", 1.75) and pred.theorem == "degree-gap-nash"
        # the gain is the threshold, 0.062499999999999986, but the defended hub's
        # cost rounds to 0.7999999999999999 < 0.8: the payoffs decide, no saddle
        g = Graph(3, ((0, 1, 0.1), (1, 2, 0.6)))
        m = build_matrix(g, nash_threshold(g), 1, LAW1)
        pred, rep = predict_equilibrium(m), solve(m)
        assert (pred.kind, pred.defender_set, pred.attacker_set, pred.value) == (rep.kind, (1,), (2,), 0.8)
        assert rep.kind == "stackelberg_defender_leader" and pred.gain_above_threshold is False

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

    def test_law2_prediction_kind_is_the_solvers(self, rng):
        # f = n and some 2 <= f < n games have a pure NE; the leader row's own
        # cell reaching the value decides it as `find_nash` does
        games = [(Graph(1, ()), 1.0, 1)]
        for k in range(200):
            n = int(rng.integers(3, 9))
            g = random_connected_graph(rng, n, weighted=bool(k % 2))
            games.append((g, float(10.0 ** rng.uniform(-2.0, 2.0)), int(rng.integers(2, n + 1))))
        nash_below_n = 0
        for g, gain, f in games:
            pred = predict_equilibrium(build_matrix(g, gain, f, LAW2))
            rep = solve(build_matrix(g, gain, f, LAW2))
            assert (pred.kind, pred.value) == (rep.kind, rep.value)
            if pred.kind == "nash":
                assert pred.attacker_set == pred.defender_set
                nash_below_n += f < g.n
        assert nash_below_n > 0

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

    def test_resistance_minimax_is_the_solvers_row(self, rng):
        # defender and value are `leader_row`'s, on separately built games
        for k in range(40):
            f = 2 + k % 2
            g = random_connected_graph(rng, int(rng.integers(f + 1, 10)), weighted=bool(k // 2 % 2))
            gain = float(10.0 ** rng.uniform(-1.0, 1.0))
            pred = predict_equilibrium(build_matrix(g, gain, f, LAW2))
            rep = stackelberg_defender_leader(build_matrix(g, gain, f, LAW2))
            assert (pred.defender_set, pred.value) == (rep.defender_set, rep.value)

    def test_resistance_minimax_exact_table_keeps_rounding_ties(self):
        # τ = 0: rows 0 and 1 hold the same three worst entries, permuted and
        # one ulp apart, so a node-order sum rounds row 0 above row 1 while
        # row 1's `_cells` maximum rounds above row 0's; the prediction takes
        # the solver's row 0 and its value
        w = [
            [3.8923705390608188, 6.998678150332286, 0.9764256640870306, 0.0],
            [6.998678150332286, 0.9764256640870306, 0.0, 3.892370539060819],
            [10.0, 10.0, 10.0, 0.0],
            [10.0, 10.0, 0.0, 10.0],
        ]
        m = TestNash._seeded(4, 3, LAW2, w)
        assert m.approx[1] == 0.0
        pred = predict_equilibrium(m)
        assert (pred.defender_set, pred.attacker_set) == ((0, 1, 2), (0, 1, 2))
        assert pred.value == 13.367474353480135
        rep = stackelberg_defender_leader(TestNash._seeded(4, 3, LAW2, w))
        assert (rep.defender_set, rep.value) == (pred.defender_set, pred.value)


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

    def test_bad_grid_gain_names_its_value(self):
        with pytest.raises(ConfigError, match=re.escape("gain must be positive and finite, got -1.0")):
            sweep_gain(path_graph(3), 1, LAW1, [0.5, -1.0])

    def test_rows_cover_grid(self):
        rows = sweep_gain(path_graph(3), 1, LAW2, [0.5, 1.0])
        assert [r.kappa for r in rows] == [0.5, 1.0]
        assert all(r.kind == "stackelberg_defender_leader" for r in rows)
