"""Effective resistance and grounded-Laplacian quantities.

The grounded system L + kappa * diag(y) is the Laplacian of an extended
graph in which a virtual node attaches to every defended node with
conductance kappa, with the virtual node's row and column removed. Its
inverse diagonal therefore reads off effective resistances to that
virtual node.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConvergenceError
from .graphcore import Graph, checked_gain, laplacian, near_minima, node_set

# Relative eigenvalue cutoff for the Laplacian pseudoinverse; a connected
# graph has exactly one zero mode.
_PINV_RCOND = 1e-12


@functools.cache
def _cholesky_lapack():
    """LAPACK (potrf, potrs) for float64: the routines behind SciPy's cho_factor and cho_solve.

    SciPy is imported at the first call, so a process that factors nothing
    (law-1 games, centralities) never loads it.
    """
    import scipy.linalg

    return scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def laplacian_pinv(g: Graph) -> np.ndarray:
    lap = laplacian(g)
    vals, vecs = np.linalg.eigh(lap)
    cutoff = _PINV_RCOND * vals[-1]
    inv = np.where(vals > cutoff, 1.0 / np.where(vals > cutoff, vals, 1.0), 0.0)
    return (vecs * inv) @ vecs.T


def shifted_inverse(g: Graph, a: float) -> np.ndarray:
    """G = (L + a 11ᵀ/n)⁻¹ = L⁺ + 11ᵀ/(a n) for a connected g and a > 0.

    G1 = 1/a, and R_ij = G_ii + G_jj - 2 G_ij, as with the pseudoinverse
    L⁺ (Ghosh, Boyd & Saberi, SIAM Review 2008). With a the largest
    weighted degree, the ones direction's eigenvalue a is within a factor
    n/(n-1) of L's nonzero spectrum (λ₂ ≤ n/(n-1)·d_min and
    λ_n ≥ n/(n-1)·d_max, Fiedler 1973), so G is about as well conditioned
    as L⁺ whatever the scale of the weights.

    Calls LAPACK potrf/potrs with cho_factor/cho_solve's flags, so G is
    bit-identical to theirs, and raises np.linalg.LinAlgError where
    cho_factor would: when L + a 11ᵀ/n does not factor (n = 1 with a = 0).
    """
    potrf, potrs = _cholesky_lapack()
    shifted = laplacian(g)
    shifted += a / g.n
    # both operands are symmetric: their transposes are the Fortran-ordered
    # arrays that LAPACK works in place on, so no n x n copy is made
    factor, info = potrf(shifted.T, lower=False, overwrite_a=True, clean=False)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"shifted Laplacian factorization failed: LAPACK potrf info={info}"
        )
    inv, _ = potrs(factor, np.eye(g.n).T, lower=False, overwrite_b=True)
    return inv.T


def resistance_matrix(g: Graph) -> np.ndarray:
    """All-pairs effective resistances R_ij = Lp_ii + Lp_jj - 2 Lp_ij."""
    pinv = laplacian_pinv(g)
    diag = np.diag(pinv)
    r = diag[:, None] + diag[None, :] - 2.0 * pinv
    np.fill_diagonal(r, 0.0)
    return r


def effective_eccentricities(g: Graph) -> np.ndarray:
    return resistance_matrix(g).max(axis=1)


def effective_center(g: Graph) -> tuple[int, ...]:
    """Nodes of minimum effective eccentricity (resistance analogue of center)."""
    return near_minima(effective_eccentricities(g))


@dataclass(frozen=True)
class GroundedSystem:
    """Graph plus defense set and gain; holds L + kappa * diag(indicator)."""

    base: Graph
    defense_set: tuple[int, ...]
    gain: float
    lbar: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        dset = node_set(self.defense_set, self.base.n, "defense set")
        if not dset:
            raise ConfigError("defense set must be nonempty for a grounded system")
        object.__setattr__(self, "defense_set", dset)
        object.__setattr__(self, "gain", checked_gain(self.gain))
        lbar = laplacian(self.base)
        for i in dset:
            lbar[i, i] += self.gain
        object.__setattr__(self, "lbar", lbar)


def grounded_inverse_diag(gs: GroundedSystem) -> np.ndarray:
    """Diagonal of lbar^{-1}; entry i is the resistance from i to the virtual node.

    Calls LAPACK potrf/potrs directly with cho_factor/cho_solve's flags
    (upper factor, identity right-hand side, lbar not overwritten), so the
    result is bit-identical to theirs without their per-call finite and
    shape checks: a validated GroundedSystem is finite and square.
    """
    potrf, potrs = _cholesky_lapack()
    factor, info = potrf(gs.lbar, lower=False, overwrite_a=False, clean=False)
    if info != 0:  # cannot occur for a valid system
        raise ConvergenceError(
            f"grounded Laplacian factorization failed: LAPACK potrf info={info}"
        )
    inv, _ = potrs(factor, np.eye(gs.base.n), lower=False, overwrite_b=False)
    return np.diag(inv).copy()


def extended_graph(g: Graph, defense_set, gain: float) -> Graph:
    """Graph with an extra virtual node n linked to each defended node."""
    return Graph(g.n + 1, g.edges + tuple((i, g.n, gain) for i in defense_set))
