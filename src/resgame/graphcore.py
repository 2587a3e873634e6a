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
    """The one rule for edge weights and gains: false for 0, negatives, nan and +-inf."""
    return 0.0 < x < math.inf


def integer(value, what: str = "value", error: type[ValueError] = GraphError) -> int:
    """Any integer, NumPy's included, as an int; a bool, a float (even 2.0) or a string raises `error`."""
    if type(value) is int or type(value) is not bool and hasattr(value, "__index__"):
        return operator.index(value)
    raise error(f"{what} must be an integer, got {value!r}")


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
        return integer(e[0]), integer(e[1]), float(e[2]) if len(e) == 3 else 1.0
    except (TypeError, ValueError, LookupError):
        raise GraphError(f"bad edge entry {e!r}: expected (i, j) or (i, j, w), i and j integers") from None


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
    def _degrees(self) -> np.ndarray:
        """Weighted degrees, each node's edge weights added in edge order; read-only."""
        d = np.zeros(self.n)
        for i, j, w in self.edges:
            d[i] += w
            d[j] += w
        d.flags.writeable = False
        return d

    @cached_property
    def _laplacian(self) -> np.ndarray:
        """The Laplacian, built once per graph and read-only; see `laplacian`."""
        lap = np.zeros((self.n, self.n))
        for i, j, w in self.edges:
            lap[i, j] -= w
            lap[j, i] -= w
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
    """All-pairs shortest-path hop counts (weights are ignored)."""
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


def eccentricities(g: Graph) -> np.ndarray:
    return distances(g).max(axis=1)


def center(g: Graph) -> tuple[int, ...]:
    """Nodes of minimum hop eccentricity."""
    ecc = eccentricities(g)
    return tuple(int(i) for i in np.flatnonzero(ecc == ecc.min()))


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
