"""Effective resistance and grounded-Laplacian quantities.

The grounded system L + kappa * diag(y) is the Laplacian of an extended
graph in which a virtual node attaches to every defended node with
conductance kappa, with the virtual node's row and column removed. Its
inverse diagonal therefore reads off effective resistances to that
virtual node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConfigError, ConvergenceError
from .graphcore import Graph, laplacian

# Relative eigenvalue cutoff for the Laplacian pseudoinverse; a connected
# graph has exactly one zero mode.
_PINV_RCOND = 1e-12


def laplacian_pinv(g: Graph) -> np.ndarray:
    lap = laplacian(g)
    vals, vecs = np.linalg.eigh(lap)
    cutoff = _PINV_RCOND * vals[-1]
    inv = np.where(vals > cutoff, 1.0 / np.where(vals > cutoff, vals, 1.0), 0.0)
    return (vecs * inv) @ vecs.T


def resistance_matrix(g: Graph) -> np.ndarray:
    """All-pairs effective resistances R_ij = Lp_ii + Lp_jj - 2 Lp_ij."""
    pinv = laplacian_pinv(g)
    diag = np.diag(pinv)
    r = diag[:, None] + diag[None, :] - 2.0 * pinv
    np.fill_diagonal(r, 0.0)
    return r


def effective_resistance(g: Graph, i: int, j: int) -> float:
    if not (0 <= i < g.n and 0 <= j < g.n):
        raise ConfigError(f"node pair ({i}, {j}) out of range for n={g.n}")
    if i == j:
        return 0.0
    pinv = laplacian_pinv(g)
    return float(pinv[i, i] + pinv[j, j] - 2.0 * pinv[i, j])


def effective_eccentricities(g: Graph) -> np.ndarray:
    return resistance_matrix(g).max(axis=1)


def effective_center(g: Graph) -> tuple[int, ...]:
    """Nodes of minimum effective eccentricity (resistance analogue of center)."""
    return _near_minima(effective_eccentricities(g))


def _near_minima(ecc: np.ndarray) -> tuple[int, ...]:
    """Nodes whose eccentricity is within 1e-12 of the minimum (the tie rule)."""
    return tuple(int(i) for i in np.flatnonzero(ecc <= ecc.min() + 1e-12))


@dataclass(frozen=True)
class GroundedSystem:
    """Graph plus defense set and gain; holds L + kappa * diag(indicator)."""

    base: Graph
    defense_set: tuple[int, ...]
    gain: float
    lbar: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        dset = tuple(sorted(int(i) for i in self.defense_set))
        if not dset:
            raise ConfigError("defense set must be nonempty for a grounded system")
        if len(set(dset)) != len(dset):
            raise ConfigError(f"duplicate nodes in defense set {dset}")
        if any(not 0 <= i < self.base.n for i in dset):
            raise ConfigError(f"defense set {dset} out of range for n={self.base.n}")
        if self.gain <= 0:
            raise ConfigError(f"gain must be positive, got {self.gain}")
        object.__setattr__(self, "defense_set", dset)
        lbar = laplacian(self.base)
        for i in dset:
            lbar[i, i] += self.gain
        object.__setattr__(self, "lbar", lbar)


def grounded_inverse_diag(gs: GroundedSystem) -> np.ndarray:
    """Diagonal of lbar^{-1}; entry i is the resistance from i to the virtual node."""
    try:
        factor = scipy.linalg.cho_factor(gs.lbar)
        inv = scipy.linalg.cho_solve(factor, np.eye(gs.base.n))
    except np.linalg.LinAlgError as exc:  # cannot occur for a valid system
        raise ConvergenceError(f"grounded Laplacian factorization failed: {exc}")
    return np.diag(inv).copy()


def extended_graph(g: Graph, defense_set, gain: float) -> Graph:
    """Graph with an extra virtual node n linked to each defended node."""
    extra = tuple((int(i), g.n, float(gain)) for i in sorted(defense_set))
    return Graph(g.n + 1, g.edges + extra)
