import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from resgame import ConfigError, ControlLaw, ConvergenceError, Graph, build_matrix, predict_equilibrium
from resgame.graphcore import complete_graph, cycle_graph, degrees, distances, laplacian, path_graph
from resgame.resistance import (
    GroundedSystem,
    effective_center,
    effective_eccentricities,
    extended_graph,
    grounded_inverse_diag,
    laplacian_pinv,
    resistance_matrix,
    shifted_inverse,
)

from conftest import random_connected_graph


class TestResistanceMatrix:
    def test_unit_triangle_pair(self):
        # two parallel routes: 1 ohm in parallel with 2 ohms
        assert resistance_matrix(complete_graph(3))[0, 1] == pytest.approx(
            2.0 / 3.0, abs=1e-12
        )

    def test_path4_endpoints(self):
        assert resistance_matrix(path_graph(4))[0, 3] == pytest.approx(
            3.0, abs=1e-12
        )

    def test_tree_resistance_equals_hop_distance(self, rng):
        for _ in range(20):
            t = random_connected_graph(rng, int(rng.integers(2, 11)), tree=True)
            assert np.abs(resistance_matrix(t) - distances(t)).max() < 1e-9

    def test_matches_grounded_route(self, rng):
        # independent route: ground one node, invert the reduced Laplacian
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(2, 9)), weighted=True)
            lap = laplacian(g)
            rmat = resistance_matrix(g)
            j = int(rng.integers(0, g.n))
            keep = [i for i in range(g.n) if i != j]
            inv = np.linalg.inv(lap[np.ix_(keep, keep)])
            for pos, i in enumerate(keep):
                assert rmat[i, j] == pytest.approx(inv[pos, pos], abs=1e-9)

    def test_pinv_annihilates_ones(self, rng):
        g = random_connected_graph(rng, 7, weighted=True)
        assert np.abs(laplacian_pinv(g) @ np.ones(7)).max() < 1e-12


class TestEffectiveCenter:
    def test_path_center(self):
        assert effective_center(path_graph(5)) == (2,)

    def test_clique_plus_path_center_leaves_the_clique(self):
        # a K5 with a long tail: hop/degree centrality favors the clique,
        # but resistance eccentricity is dominated by the tail
        k = 5
        edges = [(i, j, 1.0) for i in range(k) for j in range(i + 1, k)]
        tail = [(k - 1 + t, k + t, 1.0) for t in range(6)]
        g = Graph(k + 6, tuple(edges + tail))
        eff = effective_center(g)
        assert all(v >= k for v in eff)  # strictly inside the tail

    @pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e8])
    def test_tie_rule_is_scale_free(self, rng, scale):
        # the tie window is relative, so scaling every weight moves no node
        # in or out of the effective center
        def scaled(g):
            return Graph(g.n, tuple((i, j, w * scale) for i, j, w in g.edges))

        for n in (12, 30, 60):
            assert effective_center(scaled(cycle_graph(n))) == tuple(range(n))
            assert effective_center(scaled(complete_graph(n))) == tuple(range(n))
        for k in range(20):
            g = random_connected_graph(rng, int(rng.integers(3, 13)), weighted=bool(k % 2))
            assert effective_center(scaled(g)) == effective_center(g)
            before, after = (
                predict_equilibrium(build_matrix(h, 1.0, 1, ControlLaw.REL_VELOCITY)).defender_set
                for h in (g, scaled(g))
            )
            assert after == before

    def test_eccentricities_are_row_maxima(self, rng):
        g = random_connected_graph(rng, 8, weighted=True)
        assert np.array_equal(
            effective_eccentricities(g), resistance_matrix(g).max(axis=1)
        )


def grounded_laplacian(g, dset, kappa):
    """L + kappa P_D, built here from the Laplacian."""
    indicator = np.zeros(g.n)
    indicator[list(dset)] = 1.0
    return laplacian(g) + kappa * np.diag(indicator)


class TestGroundedSystem:
    def test_rejects_empty_defense(self):
        with pytest.raises(ConfigError):
            GroundedSystem(path_graph(3), (), 1.0)

    def test_rejects_bad_gain(self):
        with pytest.raises(ConfigError):
            GroundedSystem(path_graph(3), (0,), -1.0)

    @pytest.mark.parametrize("gain", [True, "1", 1j])
    def test_rejects_non_real_gain(self, gain):
        with pytest.raises(ConfigError, match=r"gain must be a real number, got "):
            GroundedSystem(path_graph(3), (0,), gain)

    def test_gain_is_stored_as_float(self):
        gs = GroundedSystem(path_graph(3), (0,), np.int64(2))
        assert type(gs.gain) is float
        expected = np.diag(cho_solve(cho_factor(grounded_laplacian(path_graph(3), (0,), 2.0)), np.eye(3)))
        assert np.array_equal(grounded_inverse_diag(gs), expected)

    @pytest.mark.parametrize("dset", [(1.5,), (True,), (0, 0), (3,)], ids=["float", "bool", "duplicate", "range"])
    def test_rejects_bad_defense_set(self, dset):
        with pytest.raises(ConfigError, match="^defense set .*must"):
            GroundedSystem(path_graph(3), dset, 1.0)

    def test_diag_matches_direct_inverse(self, rng):
        g = random_connected_graph(rng, 7, weighted=True)
        direct = np.diag(np.linalg.inv(grounded_laplacian(g, (0, 3), 1.5)))
        assert np.abs(grounded_inverse_diag(GroundedSystem(g, (0, 3), 1.5)) - direct).max() < 1e-10

    @pytest.mark.parametrize("weighted", [False, True])
    def test_bit_identical_to_scipy_cholesky(self, rng, weighted):
        for n in (2, 3, 7, 16, 33, 50):
            g = random_connected_graph(rng, n, weighted=weighted)
            size = int(rng.integers(1, n + 1))
            dset = tuple(int(i) for i in rng.choice(n, size, replace=False))
            lap = laplacian(g)
            for kappa in (0.3, 1.0, 4.0):
                expected = np.diag(cho_solve(cho_factor(grounded_laplacian(g, dset, kappa)), np.eye(n)))
                assert np.array_equal(grounded_inverse_diag(GroundedSystem(g, dset, kappa)), expected)
                # the factorization works in place on a fresh array, not on the graph's Laplacian
                assert np.array_equal(laplacian(g), lap)

    def test_indefinite_system_is_convergence_error(self):
        # positive definite in exact arithmetic, but at kappa = 1e-16 the last
        # pivot of L + kappa P_D is not positive in floating point
        gs = GroundedSystem(path_graph(30), (0,), 1e-16)
        with pytest.raises(ConvergenceError, match="factorization failed: LAPACK potrf info=30"):
            grounded_inverse_diag(gs)

    def test_equals_virtual_node_resistance(self, rng):
        # the grounded inverse diagonal reads off resistances to a virtual
        # node wired to every defended node with conductance kappa
        for _ in range(20):
            n = int(rng.integers(2, 9))
            g = random_connected_graph(rng, n, weighted=True)
            kappa = float(rng.choice([0.3, 1.0, 4.0]))
            nd = int(rng.integers(1, min(3, n) + 1))
            dset = tuple(sorted(int(i) for i in rng.choice(n, nd, replace=False)))
            gdiag = grounded_inverse_diag(GroundedSystem(g, dset, kappa))
            rmat = resistance_matrix(extended_graph(g, dset, kappa))
            for i in range(n):
                assert gdiag[i] == pytest.approx(rmat[i, n], rel=1e-9)

    def test_single_defense_shifts_by_series_resistor(self, rng):
        # one defended node d: resistance to the virtual node is 1/kappa + R_id
        g = random_connected_graph(rng, 6, weighted=True)
        kappa = 2.0
        gdiag = grounded_inverse_diag(GroundedSystem(g, (2,), kappa))
        rmat = resistance_matrix(g)
        assert np.abs(gdiag - (1.0 / kappa + rmat[2])).max() < 1e-9

    def test_edge_monotonicity(self, rng):
        # more connectivity never hurts: every diagonal entry weakly drops
        for _ in range(15):
            n = int(rng.integers(3, 9))
            g = random_connected_graph(rng, n)
            present = {(i, j) for i, j, _ in g.edges}
            missing = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if (i, j) not in present
            ]
            if not missing:
                continue
            i, j = missing[int(rng.integers(0, len(missing)))]
            g2 = g.with_edge(i, j)
            before = grounded_inverse_diag(GroundedSystem(g, (0,), 1.0))
            after = grounded_inverse_diag(GroundedSystem(g2, (0,), 1.0))
            assert (after <= before + 1e-9).all()

    def test_gain_monotonicity(self, rng):
        g = random_connected_graph(rng, 7)
        prev = None
        for kappa in (0.2, 0.5, 1.0, 2.0, 5.0):
            cur = grounded_inverse_diag(GroundedSystem(g, (1, 4), kappa))
            if prev is not None:
                assert (cur < prev).all()
            prev = cur


class TestShiftedInverse:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bit_identical_to_scipy_cholesky(self, rng, weighted):
        for _ in range(50):
            g = random_connected_graph(rng, int(rng.integers(2, 60)), weighted=weighted)
            a = float(degrees(g).max())
            shifted = laplacian(g)
            shifted += a / g.n
            factor = cho_factor(shifted.T, overwrite_a=True)
            expected = cho_solve(factor, np.eye(g.n).T, overwrite_b=True).T
            assert np.array_equal(shifted_inverse(g, a), expected)

    def test_one_node_graph_is_linalg_error(self):
        # L = [[0]] and a = d_max = 0: cho_factor raises the same error type
        with pytest.raises(np.linalg.LinAlgError, match="potrf info=1"):
            shifted_inverse(Graph(1, ()), 0.0)
