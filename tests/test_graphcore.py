import numpy as np
import pytest

from resgame import Graph, GraphError
from resgame.graphcore import (
    center,
    complete_graph,
    cycle_graph,
    degree_profile,
    degrees,
    distances,
    eccentricities,
    laplacian,
    path_graph,
    star_graph,
)

from conftest import random_connected_graph


class TestGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(2, ((0, 0, 1.0), (0, 1, 1.0)))

    def test_rejects_duplicate_edge_regardless_of_orientation(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(2, ((0, 1, 1.0), (1, 0, 2.0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph(2, ((0, 2, 1.0),))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(GraphError, match="non-positive"):
            Graph(2, ((0, 1, 0.0),))

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError, match="disconnected"):
            Graph(4, ((0, 1, 1.0), (2, 3, 1.0)))

    def test_normalizes_edge_orientation(self):
        g = Graph(3, ((2, 0, 1.0), (1, 0, 1.0)))
        assert g.edges == ((0, 1, 1.0), (0, 2, 1.0))

    def test_with_edge_returns_new_graph(self):
        g = path_graph(3)
        g2 = g.with_edge(0, 2)
        assert len(g.edges) == 2 and len(g2.edges) == 3

    def test_tree_and_weight_flags(self):
        assert path_graph(4).is_tree
        assert not cycle_graph(4).is_tree
        assert path_graph(4).has_unit_weights
        assert not Graph(2, ((0, 1, 2.0),)).has_unit_weights


class TestLaplacian:
    def test_path3_matrix(self):
        expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        assert np.array_equal(laplacian(path_graph(3)), expected)

    def test_unit_weight_rowsums_exact_zero(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(2, 9)))
            assert np.abs(laplacian(g) @ np.ones(g.n)).max() == 0.0

    def test_psd_rank_deficiency_one(self, rng):
        g = random_connected_graph(rng, 7, weighted=True)
        vals = np.linalg.eigvalsh(laplacian(g))
        assert vals[0] == pytest.approx(0.0, abs=1e-9)
        assert vals[1] > 1e-9

    def test_degrees_match_laplacian_diagonal(self, rng):
        g = random_connected_graph(rng, 6, weighted=True)
        assert np.allclose(degrees(g), np.diag(laplacian(g)))

    def test_cached_laplacian_equals_edge_loop(self, rng):
        for n in (2, 5, 12, 30, 50):
            g = random_connected_graph(rng, n, weighted=True)
            expected = np.zeros((n, n))
            expected_degrees = np.zeros(n)
            for i, j, w in g.edges:
                expected[i, j] -= w
                expected[j, i] -= w
                expected[i, i] += w
                expected[j, j] += w
                expected_degrees[i] += w
                expected_degrees[j] += w
            assert np.array_equal(laplacian(g), expected)
            assert np.array_equal(laplacian(g), expected)  # served from the cache
            d = degrees(g)
            assert np.array_equal(d, expected_degrees) and d.flags.writeable
            d[0] += 1.0
            assert np.array_equal(degrees(g), expected_degrees)  # a fresh copy

    def test_returns_a_writable_copy(self, rng):
        g = random_connected_graph(rng, 8, weighted=True)
        lap = laplacian(g)
        before = lap.copy()
        assert lap.flags.writeable
        lap[0, 0] += 1.0
        lap[:, 1] = 0.0
        again = laplacian(g)
        assert np.array_equal(again, before)
        assert again is not lap


class TestDegreeProfile:
    def test_unique_max(self):
        prof = degree_profile(star_graph(5))
        assert prof.delta1 == 4.0
        assert prof.delta2 == 1.0
        assert prof.argmax_nodes == (0,)

    def test_tied_max_gives_equal_deltas(self):
        prof = degree_profile(cycle_graph(5))
        assert prof.delta1 == prof.delta2 == 2.0
        assert prof.argmax_nodes == (0, 1, 2, 3, 4)


class TestDistancesAndCenter:
    def test_path_distances(self):
        d = distances(path_graph(4))
        assert d[0, 3] == 3 and d[1, 2] == 1

    def test_path_center_and_eccentricity(self):
        assert center(path_graph(5)) == (2,)
        assert eccentricities(path_graph(5)).tolist() == [4, 3, 2, 3, 4]

    def test_even_path_center_is_tie_pair(self):
        assert center(path_graph(4)) == (1, 2)

    def test_distances_ignore_weights(self):
        g = Graph(3, ((0, 1, 10.0), (1, 2, 0.1)))
        assert distances(g)[0, 2] == 2


class TestBuilders:
    def test_complete_graph_edge_count(self):
        assert len(complete_graph(5).edges) == 10

    def test_star_hub(self):
        assert degrees(star_graph(6))[0] == 5.0

    def test_cycle_is_two_regular(self):
        assert set(degrees(cycle_graph(6)).tolist()) == {2.0}
