"""Undirected weighted graphs: Laplacian, degrees, hop distances, center.

Nodes are contiguous 0-based integers. Graphs are immutable after
construction and validated to be simple, connected, and positively
weighted, so every downstream routine can assume a well-formed input.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, GraphError

Edge = tuple[int, int, float]


def positive_finite(x: float) -> bool:
    """The one range rule for edge weights and gains: false for 0, negatives, nan and +-inf."""
    return 0.0 < x < math.inf


def integer(value, what: str = "value", error: type[ValueError] = GraphError) -> int:
    """Any integer, NumPy's included, as an int; a bool, a float (even 2.0) or a string raises `error`."""
    if type(value) is int or type(value) is not bool and hasattr(value, "__index__"):
        return operator.index(value)
    raise error(f"{what} must be an integer, got {value!r}")


def real(value, what: str = "value", error: type[ValueError] = GraphError) -> float:
    """Any real number, NumPy's included, as a float; a bool, a string or a complex raises `error`."""
    if isinstance(value, (float, np.floating)) or type(value) is not bool and hasattr(value, "__index__"):
        return float(value)
    raise error(f"{what} must be a real number, got {value!r}")


def checked_gain(value) -> float:
    """The one gain rule: a real number with 0 < gain < inf, as a float; else a ConfigError."""
    gain = real(value, "gain", ConfigError)
    if not positive_finite(gain):
        raise ConfigError(f"gain must be positive and finite, got {gain}")
    return gain


def node_set(nodes, n: int, what: str) -> tuple[int, ...]:
    """A strategy's nodes, sorted, distinct and in [0, n); else a ConfigError naming `what`."""
    try:
        nodes = tuple(sorted(map(integer, nodes)))
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must hold integer nodes, got {nodes!r}") from None
    if len(set(nodes)) != len(nodes):
        raise ConfigError(f"{what} {nodes} must not contain duplicates")
    if nodes and not (0 <= nodes[0] and nodes[-1] < n):
        raise ConfigError(f"{what} {nodes} must lie in [0, {n})")
    return nodes


def _edge_entry(e) -> Edge:
    """(i, j) with unit weight or (i, j, w), as two ints and a float."""
    try:
        if len(e) not in (2, 3):
            raise ValueError
        return integer(e[0]), integer(e[1]), real(e[2]) if len(e) == 3 else 1.0
    except (TypeError, ValueError, LookupError):
        raise GraphError(f"bad edge entry {e!r}: expected (i, j) or (i, j, w), i, j integers, w real") from None


@dataclass(frozen=True)
class Graph:
    """Connected simple undirected graph with positive edge conductances.

    Edges are stored as (i, j, w) with i < j.
    """

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", integer(self.n, "node count"))
        if self.n < 1:
            raise GraphError(f"node count must be >= 1, got {self.n}")
        seen = set()
        norm = []
        for e in self.edges:
            # an int pair, or an int pair and a float, as they come from a file: no conversion to make
            k = len(e) if type(e) is tuple or type(e) is list else 0
            if k == 2:
                (i, j), w = e, 1.0
            elif k == 3:
                i, j, w = e
            if k not in (2, 3) or type(i) is not int or type(j) is not int or type(w) is not float:
                i, j, w = _edge_entry(e)
            if i == j:
                raise GraphError(f"self-loop at node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise GraphError(f"edge ({i}, {j}) out of range for n={self.n}")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise GraphError(f"duplicate edge ({i}, {j})")
            if not positive_finite(w):
                raise GraphError(f"edge ({i}, {j}) has non-positive or non-finite weight {w}")
            seen.add((i, j))
            norm.append((i, j, w))
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        # checked before any O(n) work, so a huge node index costs nothing
        if len(norm) < self.n - 1:
            raise GraphError(f"graph is disconnected: {len(norm)} edges cannot connect {self.n} nodes")
        comps = _components(self.neighbors())
        if len(comps) > 1:
            raise GraphError(
                f"graph is disconnected; components: {[sorted(c) for c in comps]}"
            )

    @property
    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1

    @property
    def has_unit_weights(self) -> bool:
        return all(w == 1.0 for _, _, w in self.edges)

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j, _ in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def with_edge(self, i: int, j: int, w: float = 1.0) -> "Graph":
        """New graph with one extra edge (graphs are immutable)."""
        return Graph(self.n, self.edges + ((i, j, w),))

    @cached_property
    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, w): the edges as three arrays, in edge order."""
        i, j, w = zip(*self.edges) if self.edges else ((), (), ())
        m = len(w)
        ij = np.fromiter(i + j, np.intp, 2 * m).reshape(2, m)
        return ij[0], ij[1], np.fromiter(w, float, m)

    @cached_property
    def _degrees(self) -> np.ndarray:
        """Weighted degrees, each node's edge weights added in edge order; read-only.

        One `np.bincount` over the interleaved ends i0, j0, i1, j1, ... with
        each weight repeated: it adds in input order into zeros, so these
        are the additions d[i] += w, d[j] += w of a loop over the edges in
        the loop's order, bit for bit on weighted graphs.
        """
        i, j, w = self._edge_arrays
        ends = np.empty(2 * len(w), np.intp)
        ends[0::2], ends[1::2] = i, j
        d = np.bincount(ends, np.repeat(w, 2), self.n).astype(float, copy=False)  # int zeros when edgeless
        d.flags.writeable = False
        return d

    @cached_property
    def _costs(self) -> np.ndarray:
        """(d+1)/2 per node, from `_degrees`, once per graph; read-only: law-1 W's undefended entries."""
        c = 0.5 * (self._degrees + 1.0)
        c.flags.writeable = False
        return c

    @cached_property
    def _laplacian(self) -> np.ndarray:
        """The Laplacian, built once per graph and read-only; see `laplacian`.

        -w is scattered to (i, j) and (j, i), each written once in a simple
        graph, and the diagonal is `_degrees`.
        """
        i, j, w = self._edge_arrays
        lap = np.zeros((self.n, self.n))
        lap[i, j] = lap[j, i] = -w
        np.fill_diagonal(lap, self._degrees)
        lap.flags.writeable = False
        return lap


@dataclass(frozen=True)
class DegreeProfile:
    """Weighted degrees with the two largest values.

    delta2 is the second-largest element of the degree multiset: when the
    maximum degree is attained by two or more nodes, delta2 == delta1.
    """

    degrees: np.ndarray
    delta1: float
    delta2: float
    argmax_nodes: tuple[int, ...]


def _components(adj: list[list[int]]) -> list[set[int]]:
    unseen = set(range(len(adj)))
    comps = []
    while unseen:
        root = unseen.pop()
        comp = {root}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v in unseen:
                    unseen.discard(v)
                    comp.add(v)
                    queue.append(v)
        comps.append(comp)
    return comps


def laplacian(g: Graph) -> np.ndarray:
    """Weighted graph Laplacian; rows sum to zero (bit-exact for unit weights).

    Built once per graph and cached on it; each call returns a fresh
    writable copy, so callers may modify their own.
    """
    return g._laplacian.copy()


def degrees(g: Graph) -> np.ndarray:
    """Weighted degrees, the Laplacian's diagonal, as a fresh writable array.

    Summed once per graph in edge order, without building the Laplacian,
    which takes its diagonal from the same sum.
    """
    return g._degrees.copy()


def degree_profile(g: Graph) -> DegreeProfile:
    d = degrees(g)
    order = np.sort(d)[::-1]
    delta1 = float(order[0])
    delta2 = float(order[1]) if g.n > 1 else float(order[0])
    argmax = tuple(int(i) for i in np.flatnonzero(d == d.max()))
    return DegreeProfile(d, delta1, delta2, argmax)


def distances(g: Graph) -> np.ndarray:
    """All-pairs shortest-path hop counts (weights are ignored).

    A breadth-first search from every node at once, one level at a time,
    on NumPy alone, so `centrality` loads no SciPy: the (source, node)
    pairs s n + v of one level step to v's neighbours, and the pairs not
    reached before form the next level. O(n m) work in all.
    """
    n, adj = g.n, g.neighbors()
    degree = np.array([len(a) for a in adj])
    first = np.cumsum(degree) - degree  # where v's neighbours start in `flat`
    flat = np.array([v for a in adj for v in a], dtype=np.intp)
    dist = np.full((n, n), -1, dtype=int)
    pairs, level = np.arange(n) * (n + 1), 0
    while len(pairs):
        dist.flat[pairs] = level
        s, v = np.divmod(pairs, n)
        k = degree[v]
        slot = np.arange(k.sum()) + np.repeat(first[v] - (np.cumsum(k) - k), k)
        reached = np.repeat(s * n, k) + flat[slot]
        reached = reached[dist.flat[reached] < 0]
        tag = -2 - np.arange(len(reached))  # a pair reached twice keeps one of its tags: listed once
        dist.flat[reached] = tag
        pairs, level = reached[dist.flat[reached] == tag], level + 1
    return dist


def eccentricities(g: Graph) -> np.ndarray:
    return distances(g).max(axis=1)


def near_minima(ecc: np.ndarray) -> tuple[int, ...]:
    """The centers' tie rule: nodes within 1e-12·|min| of the least eccentricity, at any weight scale."""
    low = ecc.min()
    return tuple(int(i) for i in np.flatnonzero(ecc <= low + 1e-12 * abs(low)))


def center(g: Graph) -> tuple[int, ...]:
    """Nodes of minimum hop eccentricity."""
    return near_minima(eccentricities(g))


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))


def star_graph(n: int) -> Graph:
    """Star on n nodes with hub 0."""
    return Graph(n, tuple((0, i, 1.0) for i in range(1, n)))


def cycle_graph(n: int) -> Graph:
    edges = [(i, i + 1, 1.0) for i in range(n - 1)] + [(0, n - 1, 1.0)]
    return Graph(n, tuple(edges))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)))
