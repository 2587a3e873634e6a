"""Effective resistance and grounded-Laplacian quantities.

The grounded system L + kappa * diag(y) is the Laplacian of an extended
graph in which a virtual node attaches to every defended node with
conductance kappa, with the virtual node's row and column removed. Its
inverse diagonal therefore reads off effective resistances to that
virtual node.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

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


def _cholesky_inverse(a: np.ndarray, eye: np.ndarray, error: type[Exception], what: str) -> np.ndarray:
    """A⁻¹ for a symmetric C-ordered array A by LAPACK potrf/potrs, over `eye`, the identity; raises `error` if potrf fails.

    With cho_factor/cho_solve's flags, so bit-identical to theirs, without
    their per-call finite and shape checks. A and the identity are
    symmetric: their transposes are the Fortran-ordered arrays that LAPACK
    overwrites in place, so no n x n copy is made.
    """
    potrf, potrs = _cholesky_lapack()
    factor, info = potrf(a.T, lower=False, overwrite_a=True, clean=False)
    if info != 0:
        raise error(f"{what} factorization failed: LAPACK potrf info={info}")
    inv, _ = potrs(factor, eye.T, lower=False, overwrite_b=True)
    return inv.T


def shifted_inverse(g: Graph, a: float) -> np.ndarray:
    """G = (L + a 11ᵀ/n)⁻¹ = L⁺ + 11ᵀ/(a n) for a connected g and a > 0.

    G1 = 1/a, and R_ij = G_ii + G_jj - 2 G_ij, as with the pseudoinverse
    L⁺ (Ghosh, Boyd & Saberi, SIAM Review 2008). With a the largest
    weighted degree, the ones direction's eigenvalue a is within a factor
    n/(n-1) of L's nonzero spectrum (λ₂ ≤ n/(n-1)·d_min and
    λ_n ≥ n/(n-1)·d_max, Fiedler 1973), so G is about as well conditioned
    as L⁺ whatever the scale of the weights.

    Raises np.linalg.LinAlgError where cho_factor would: when
    L + a 11ᵀ/n does not factor (n = 1 with a = 0).
    """
    shifted = laplacian(g)
    shifted += a / g.n
    return _cholesky_inverse(shifted, np.eye(g.n), np.linalg.LinAlgError, "shifted Laplacian")


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
    """Graph plus defense set and gain: the system L + kappa * diag(indicator)."""

    base: Graph
    defense_set: tuple[int, ...]
    gain: float

    def __post_init__(self):
        dset = node_set(self.defense_set, self.base.n, "defense set")
        if not dset:
            raise ConfigError("defense set must be nonempty for a grounded system")
        object.__setattr__(self, "defense_set", dset)
        object.__setattr__(self, "gain", checked_gain(self.gain))

    @classmethod
    def _checked(cls, base: Graph, defense_set: tuple[int, ...], gain: float) -> GroundedSystem:
        """The system of a sorted defense set and a gain that are already checked, as a game's are, built without re-checking them."""
        gs = object.__new__(cls)
        gs.__dict__.update(base=base, defense_set=defense_set, gain=gain)
        return gs


def grounded_inverse_diag(gs: GroundedSystem, work: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """Diagonal of (L + kappa P_D)^{-1}; entry i is the resistance from i to the virtual node.

    Bit-identical to cho_solve(cho_factor(L + kappa P_D), I). A gain so
    small that L + kappa P_D does not factor in floating point is a
    ConvergenceError (path_graph(30) at kappa = 1e-16). `work`, three
    n x n float64 arrays of which the last is the identity, holds
    L + kappa P_D and the identity while they are factored; a caller that
    factors many rows passes the same three to them all.
    """
    lap = gs.base._laplacian
    if work is None:
        lbar, eye = lap.copy(), np.eye(len(lap))
    else:
        lbar, eye, identity = work
        np.copyto(lbar, lap)
        np.copyto(eye, identity)
    for i in gs.defense_set:  # for f of a few nodes, 8x faster than a fancy-indexed add
        lbar[i, i] += gs.gain
    return _cholesky_inverse(lbar, eye, ConvergenceError, "grounded Laplacian").diagonal().copy()


def extended_graph(g: Graph, defense_set, gain: float) -> Graph:
    """Graph with an extra virtual node n linked to each defended node."""
    return Graph(g.n + 1, g.edges + tuple((i, g.n, gain) for i in defense_set))
