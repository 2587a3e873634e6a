"""Undirected weighted graphs: Laplacian, degrees, hop distances, center.

Nodes are contiguous 0-based integers. Graphs are immutable after
construction and validated to be simple, connected, and positively
weighted, so every downstream routine can assume a well-formed input.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GraphError

Edge = tuple[int, int, float]


def positive_finite(x: float) -> bool:
    """The one rule for edge weights and gains: false for 0, negatives, nan and +-inf."""
    return 0.0 < x < math.inf


@dataclass(frozen=True)
class Graph:
    """Connected simple undirected graph with positive edge conductances.

    Edges are stored as (i, j, w) with i < j.
    """

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.n < 1:
            raise GraphError(f"node count must be >= 1, got {self.n}")
        seen = set()
        norm = []
        for e in self.edges:
            if len(e) == 2:
                i, j, w = e[0], e[1], 1.0
            else:
                i, j, w = e
            i, j, w = int(i), int(j), float(w)
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
        comps = _components(self.n, self.edges)
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
    def _laplacian(self) -> np.ndarray:
        """The Laplacian, built once per graph and read-only; see `laplacian`."""
        lap = np.zeros((self.n, self.n))
        for i, j, w in self.edges:
            lap[i, j] -= w
            lap[j, i] -= w
            lap[i, i] += w
            lap[j, j] += w
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

    def __post_init__(self):
        object.__setattr__(self, "degrees", np.asarray(self.degrees, dtype=float))


def _components(n: int, edges: tuple[Edge, ...]) -> list[set[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    unseen = set(range(n))
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
    """Weighted degrees: the Laplacian's diagonal, a fresh writable array.

    The cached Laplacian adds each node's edge weights in edge order, so
    this equals the edge-loop sum bit for bit.
    """
    return np.diag(g._laplacian).copy()


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
