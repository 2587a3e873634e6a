import math
import re
import tracemalloc
from collections import deque

import numpy as np
import pytest

from resgame import ConfigError, Graph, GraphError
from resgame.graphcore import (
    center,
    complete_graph,
    cycle_graph,
    degree_profile,
    degrees,
    distances,
    eccentricities,
    integer,
    laplacian,
    node_set,
    path_graph,
    real,
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

    def test_rejects_empty_graph(self):
        with pytest.raises(GraphError, match="node count must be >= 1, got 0"):
            Graph(0, ())

    def test_disconnected_message_lists_components(self):
        # 4 edges could connect 5 nodes, so the components are searched
        with pytest.raises(GraphError, match=re.escape("components: [[0, 1, 2], [3, 4]]")):
            Graph(5, ((0, 1), (1, 2), (0, 2), (3, 4)))

    def test_rejects_too_few_edges_before_per_node_work(self):
        # n - 1 edges are needed to connect n nodes: a huge node index is
        # rejected without building n adjacency lists
        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match="disconnected: 1 edges cannot connect 1000000000 nodes"):
                Graph(10**9, ((0, 1),))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    @pytest.mark.parametrize("n", ["2", 2.5, True, None, 2.0], ids=["str", "float", "bool", "none", "float-2"])
    def test_rejects_non_integer_node_count(self, n):
        with pytest.raises(GraphError, match=f"node count must be an integer, got {n!r}"):
            Graph(n, ((0, 1),))

    @pytest.mark.parametrize(
        "entry",
        [(0, 1, 1.0, 5), (0,), (0, "x"), (0, 1.5), (0, 1, "heavy"), 5, (True, 0), {"i": 0, "j": 1},
         (0, 1, True), (0, 1, "2.5"), (0, 1, 1 + 0j)],
        ids=["four-fields", "one-field", "str-node", "float-node", "str-weight", "not-a-sequence",
             "bool-node", "mapping", "bool-weight", "numeric-str-weight", "complex-weight"],
    )
    def test_rejects_malformed_edge_entry(self, entry):
        with pytest.raises(GraphError, match=f"bad edge entry {re.escape(repr(entry))}"):
            Graph(2, (entry,))

    @pytest.mark.parametrize(
        "tail, message",
        [
            ([(0, True)], "bad edge entry (0, True): expected (i, j) or (i, j, w), i, j integers, w real"),
            ([(0, 1.5)], "bad edge entry (0, 1.5): expected (i, j) or (i, j, w), i, j integers, w real"),
            ([(np.int64(0), 1), (3, 3)], "self-loop at node 3"),
            ([(np.int64(0), 1), [2, 1]], "duplicate edge (1, 2)"),
            ([(0, 1, 2), (0, 3, math.nan)], "edge (0, 3) has non-positive or non-finite weight nan"),
        ],
        ids=["bool-node", "float-node", "numpy-node-then-self-loop", "numpy-node-then-duplicate",
             "int-weight-then-nan-weight"],
    )
    def test_first_error_on_a_mixed_edge_list(self, tail, message):
        # valid [i, j] and [i, j, w] entries, taken as they are, then entries
        # that need converting or fail: the first error and its message as
        # the per-entry conversion gave them
        with pytest.raises(GraphError) as info:
            Graph(4, [[1, 2], [2, 3, 2.5], *tail])
        assert str(info.value) == message

    def test_mixed_edge_list_equals_its_converted_edges(self):
        g = Graph(4, [[1, 2], (2, 3, 2.5), (np.int64(0), 1), (0, 3, 2), [0, 2, np.float64(0.5)]])
        assert g.edges == ((0, 1, 1.0), (0, 2, 0.5), (0, 3, 2.0), (1, 2, 1.0), (2, 3, 2.5))
        assert all(type(i) is int and type(j) is int and type(w) is float for i, j, w in g.edges)
        assert degrees(g).tolist() == [3.5, 2.0, 4.0, 4.5]
        single = Graph(1, ())
        assert degrees(single).dtype == laplacian(single).dtype == np.float64
        assert degrees(single).tolist() == [0.0] and laplacian(single).tolist() == [[0.0]]

    def test_accepts_numpy_integers(self):
        g = Graph(np.int64(3), ((np.int64(0), np.int32(1)), (1, 2, np.float64(2.0))))
        assert type(g.n) is int and g.edges == ((0, 1, 1.0), (1, 2, 2.0))
        assert all(type(i) is int and type(j) is int for i, j, _ in g.edges)

    @pytest.mark.parametrize(
        "value", [True, False, 2.0, 1.9, "1", None, np.float64(1.0), np.True_],
        ids=["true", "false", "float-2", "float-1.9", "str", "none", "np-float", "np-bool"],
    )
    def test_integer_rule_rejects_non_integers(self, value):
        with pytest.raises(ConfigError, match=re.escape(f"count must be an integer, got {value!r}")):
            integer(value, "count", ConfigError)

    @pytest.mark.parametrize("value", [0, -3, np.int64(7), np.intp(7), np.int32(7), np.uint8(7)])
    def test_integer_rule_returns_a_python_int(self, value):
        got = integer(value)
        assert type(got) is int and got == value

    @pytest.mark.parametrize(
        "value", [True, np.True_, "2.5", "1e0", None, 1 + 0j, np.complex128(1.0)],
        ids=["true", "np-bool", "str", "str-exponent", "none", "complex", "np-complex"],
    )
    def test_real_rule_rejects_non_reals(self, value):
        with pytest.raises(ConfigError, match=re.escape(f"gain must be a real number, got {value!r}")):
            real(value, "gain", ConfigError)

    @pytest.mark.parametrize(
        "value", [2.5, 0, -3, np.float64(2.5), np.float32(2.5), np.int64(7), np.uint8(7), float("nan")],
    )
    def test_real_rule_returns_a_python_float(self, value):
        got = real(value)
        assert type(got) is float and (got == value or got != got)

    @pytest.mark.parametrize(
        "nodes, problem",
        [((1.5,), "must hold integer nodes"), ((True,), "must hold integer nodes"),
         (("1",), "must hold integer nodes"), (1, "must hold integer nodes"),
         ((1, 1), "must not contain duplicates"), ((3,), r"must lie in \[0, 3\)"),
         ((-1,), r"must lie in \[0, 3\)")],
        ids=["float", "bool", "str", "not-a-collection", "duplicate", "too-large", "negative"],
    )
    def test_node_set_rejects_and_names_the_set(self, nodes, problem):
        with pytest.raises(ConfigError, match=f"^attack set .*{problem}"):
            node_set(nodes, 3, "attack set")

    def test_node_set_sorts(self):
        assert node_set(np.array([2, 0]), 3, "defense set") == (0, 2)
        assert node_set((), 3, "defense set") == ()

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

    @staticmethod
    def _bfs(g: Graph) -> np.ndarray:
        """Hop counts by one queue-based breadth-first search per source."""
        adj = g.neighbors()
        dist = np.full((g.n, g.n), -1, dtype=int)
        for s in range(g.n):
            dist[s, s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for v in adj[u]:
                    if dist[s, v] < 0:
                        dist[s, v] = dist[s, u] + 1
                        queue.append(v)
        return dist

    def test_distances_equal_one_bfs_per_source(self, rng):
        graphs = [Graph(1, ()), path_graph(2), path_graph(40), star_graph(30), cycle_graph(25)]
        for k in range(30):
            n = int(rng.integers(2, 60))
            graphs.append(random_connected_graph(rng, n, tree=k % 3 == 0, weighted=k % 2 == 1))
        for g in graphs:
            d = distances(g)
            assert d.dtype == self._bfs(g).dtype and np.array_equal(d, self._bfs(g))


class TestBuilders:
    def test_complete_graph_edge_count(self):
        assert len(complete_graph(5).edges) == 10

    def test_star_hub(self):
        assert degrees(star_graph(6))[0] == 5.0

    def test_cycle_is_two_regular(self):
        assert set(degrees(cycle_graph(6)).tolist()) == {2.0}
