"""Attacked second-order network dynamics and their H2 norms.

Two control laws are supported: absolute-velocity damping (law 1) and
relative-velocity coupling with grounded self-feedback (law 2). The
closed-form H2 norms (law 1: one Lyapunov solve; law 2: the
grounded-inverse diagonal) are cross-checked by an independent
finite-horizon energy integration of the impulse response.

SciPy is imported inside the two functions that call it (the law-1
Gramian and the oracle), so law-1 games and centralities never load it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConvergenceError
from .graphcore import Graph, checked_gain, integer, laplacian, node_set
from .resistance import GroundedSystem, grounded_inverse_diag


class ControlLaw(enum.Enum):
    """Which velocity feedback the agents run."""

    ABS_VELOCITY = 1
    REL_VELOCITY = 2

    @classmethod
    def from_int(cls, value: "int | ControlLaw") -> "ControlLaw":
        """The law numbered 1 or 2 (any integer type) or a member, unchanged; else a ConfigError."""
        if isinstance(value, cls):
            return value
        try:
            return cls(integer(value))
        except ValueError:
            raise ConfigError(f"control law must be 1 or 2, got {value!r}")


def _cells(entries: np.ndarray, law: ControlLaw) -> np.ndarray:
    """Payoffs from the per-node costs of the attacked nodes, on the last axis.

    The one summation rule of the H2 closed form and of every game payoff:
    the f entries are added in ascending order of value, then f/2 is added
    for law 2. For f <= 2 the order cannot change the rounded sum, so the
    entries are not sorted, and a cell equals the indicator product
    rows @ y.T plus f/2 bit for bit.
    """
    f = entries.shape[-1]
    if f > 2:
        entries = np.sort(entries, axis=-1)
    total = entries[..., 0]
    for k in range(1, f):
        total = total + entries[..., k]
    if law is ControlLaw.REL_VELOCITY:
        total = total + 0.5 * f
    return total


@dataclass(frozen=True)
class Scenario:
    """One attacked-network instance: graph, law, gain, and node sets."""

    graph: Graph
    law: ControlLaw
    gain: float
    defense_set: tuple[int, ...]
    attack_set: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "law", ControlLaw.from_int(self.law))
        object.__setattr__(self, "gain", checked_gain(self.gain))
        object.__setattr__(self, "defense_set", node_set(self.defense_set, self.graph.n, "defense set"))
        object.__setattr__(self, "attack_set", node_set(self.attack_set, self.graph.n, "attack set"))
        if not self.attack_set:
            raise ConfigError("attack set must be nonempty")
        if self.law is ControlLaw.REL_VELOCITY and not self.defense_set:
            raise ConfigError("law 2 requires a nonempty defense set")

    @property
    def budget(self) -> int:
        return len(self.attack_set)


@dataclass(frozen=True)
class H2Result:
    """Squared H2 norm with its per-attacked-node breakdown.

    value_sq is constant (f/2 for the law-2 closed form, else zero) plus
    per_node summed by `_cells` for the closed form, so a law-2 value is
    the game's payoff cell bit for bit, or summed plainly for the oracle.
    diagnostics is filled by the energy oracle (see h2_energy_oracle) and
    empty for the closed form.
    """

    value_sq: float
    per_node: dict[int, float]
    constant: float
    diagnostics: dict[str, float] = field(default_factory=dict)


def _feedback(s: Scenario) -> np.ndarray:
    """The defender's feedback block: I + gain P_D (law 1) or L + gain P_D (law 2).

    P_D is the 0/1 diagonal of the defended nodes; a fresh writable array.
    """
    block = np.eye(s.graph.n) if s.law is ControlLaw.ABS_VELOCITY else laplacian(s.graph)
    defended = list(s.defense_set)
    block[defended, defended] += s.gain
    return block


def assemble(s: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """The attacked network's 2n-state model (A, B2), state (positions x, velocities v).

    A = [[0, I], [-L, -H]] with H the defender's feedback block (see
    `_feedback`); law 2 replaces L by that block too. B2 = diag(F, F), F
    selecting the attacked nodes in ascending order, so columns k and f + k
    are the k-th attacked node's channels. The output is the velocity block.
    """
    n, f = s.graph.n, s.budget
    h = _feedback(s)
    coupling = laplacian(s.graph) if s.law is ControlLaw.ABS_VELOCITY else h
    a = np.zeros((2 * n, 2 * n))
    np.fill_diagonal(a[:n, n:], 1.0)
    a[n:, :n] = -coupling
    a[n:, n:] = -h
    b2 = np.zeros((2 * n, 2 * f))
    b2[[*s.attack_set, *(n + i for i in s.attack_set)], range(2 * f)] = 1.0
    return a, b2


# Largest Lyapunov residual (see lyapunov_residual) at which the law-1
# closed form is returned. On the defended 3-path the residual is 1e-8 at
# gain 1e8, where H2^2 is right to 2e-9, and 1.7e-6, 1.6e-4, 0.72 and 1.0
# at gains 1e10, 1e12, 1e16 and 1e300, where it is off by 1.8e-7, 2e-5,
# 0.52 and a sign.
_LYAPUNOV_TOL = 1e-6


def _law1_gramian(s: Scenario) -> tuple[np.ndarray, np.ndarray, float]:
    """Law-1 model with the consensus mode deflated: its Gramian and residual.

    The rigid position direction 1 is a marginal mode the velocity output
    cannot see. With U an orthonormal basis of the complement of 1 and
    positions replaced by z = U^T x, the drift becomes the Hurwitz matrix
    A_r = [[0, U^T], [-L U, -H]] with output C_r = [0, I], and Q solves
    A_r^T Q + Q A_r + C_r^T C_r = 0. Returns (U, Q, residual), the
    residual being the max entry of |A_r^T Q + Q A_r + C_r^T C_r|.
    """
    import scipy.linalg

    n = s.graph.n
    u = scipy.linalg.null_space(np.ones((1, n)))
    a_r = np.zeros((2 * n - 1, 2 * n - 1))
    a_r[: n - 1, n - 1 :] = u.T
    a_r[n - 1 :, : n - 1] = -laplacian(s.graph) @ u
    a_r[n - 1 :, n - 1 :] = -_feedback(s)
    ctc = np.diag(np.concatenate([np.zeros(n - 1), np.ones(n)]))
    q = scipy.linalg.solve_continuous_lyapunov(a_r.T, -ctc)
    residual = float(np.abs(a_r.T @ q + q @ a_r + ctc).max())
    return u, q, residual


def h2_closed_form(s: Scenario) -> H2Result:
    """Squared H2 norm from the attack channels to the velocity output.

    Law 1: tr(B_r^T Q B_r) from the observability Gramian of the model with
    the consensus mode deflated (see _law1_gramian); attacked node i costs
    (U^T e_i)^T Q_zz (U^T e_i) + Q_vv[i, i]. Under uniform damping (no node
    or every node defended) this equals the paper's damped-degree formula
    (d_i + 1) / (2 (1 + gain * y_i)), which the law-1 game payoff keeps.
    Raises ConvergenceError when the Lyapunov residual exceeds
    _LYAPUNOV_TOL (1e-6), as it does on the defended 3-path from gain 1e10
    on, where the solve loses the value.
    Law 2: f/2 plus half the grounded-inverse diagonal at attacked nodes.
    Either law sums its per-node costs with `_cells`, the game's rule, and
    raises ConvergenceError for a negative value.
    """
    if s.law is ControlLaw.ABS_VELOCITY:
        u, q, residual = _law1_gramian(s)
        if residual > _LYAPUNOV_TOL:
            raise ConvergenceError(
                f"law-1 Lyapunov solve is inaccurate at gain {s.gain:g}: "
                f"residual {residual:.3g} exceeds {_LYAPUNOV_TOL:g}"
            )
        m = u.shape[1]
        position = ((u @ q[:m, :m]) * u).sum(axis=1)
        velocity = np.diag(q)[m:]
        per_node = {i: float(position[i] + velocity[i]) for i in s.attack_set}
        constant = 0.0
    else:
        gdiag = grounded_inverse_diag(
            GroundedSystem(s.graph, s.defense_set, s.gain)
        )
        per_node = {i: 0.5 * float(gdiag[i]) for i in s.attack_set}
        constant = 0.5 * s.budget
    value_sq = float(_cells(np.array(list(per_node.values())), s.law))
    if value_sq < 0:
        raise ConvergenceError(f"closed-form H2^2 is negative: {value_sq:.3g}")
    return H2Result(value_sq=value_sq, per_node=per_node, constant=constant)


# largest default time step of h2_energy_oracle (the grid has at least 2000)
_MAX_DT = 0.005


def _stable_decay_rate(a: np.ndarray) -> float:
    """Slowest decay among the non-marginal eigenvalues of the drift matrix."""
    eigvals = np.linalg.eigvals(a)
    stable = eigvals[np.abs(eigvals) > 1e-9]
    rate = float((-stable.real).min())
    if rate <= 0:
        raise ConvergenceError("drift matrix has an unstable observable mode")
    return rate


def h2_energy_oracle(
    s: Scenario,
    horizon: float | None = None,
    steps: int | None = None,
    tail_tol: float = 1e-8,
) -> H2Result:
    """Quadrature of the impulse-response output energy over [0, horizon].

    Integrates ||C exp(A t) B2||_F^2 with composite Simpson on a grid fine
    enough for the fastest mode (steps of at most _MAX_DT unless steps is
    given), then adds the analytic tail estimate from the slowest decay
    rate. Independent of the closed-form route.

    With P = exp(A dt), Q = C^T C and M = steps / 2, the Simpson sum
    S = sum_k w_k (P^k)^T Q P^k is 2E + 4 P^T E P - Q + (P^steps)^T Q P^steps
    for E = sum_{j<M} (P^2j)^T Q P^2j, which Smith's doubling builds over
    the bits of M in O(n^3 log steps) time and O(n^2) memory; node i's
    integral is dt/3 times diag(S) at its two input channels. Raises
    ConfigError for a horizon <= 0 or steps < 1, and ConvergenceError when
    the integrand at the horizon has not decayed below tail_tol of its start.

    The result's diagnostics hold the grid and the decay check: the decay
    rate, the horizon, the step count, and the tail fraction (integrand
    at the horizon over the integrand at 0).
    """
    import scipy.linalg

    if horizon is not None and not horizon > 0:
        raise ConfigError(f"oracle horizon must be positive, got {horizon}")
    if steps is not None and steps < 1:
        raise ConfigError(f"oracle steps must be >= 1, got {steps}")
    a, b2 = assemble(s)
    rate = _stable_decay_rate(a)
    horizon = 20.0 / rate if horizon is None else float(horizon)
    if steps is None:
        steps = max(2000, int(np.ceil(horizon / _MAX_DT)))
    if steps % 2:
        steps += 1
    dt = horizon / steps
    propagator = scipy.linalg.expm(a * dt)
    n = s.graph.n

    def output_gram(m):
        # m^T Q m for Q = C^T C, C selecting the velocity block
        return m[n:].T @ m[n:]

    square = propagator @ propagator
    # after the loop: even = sum_{j<M} (P^2j)^T Q P^2j and power = P^steps
    even, power = np.zeros_like(a), np.eye(2 * n)
    for bit in bin(steps // 2)[2:]:
        even += power.T @ even @ power
        power = power @ power
        if bit == "1":
            even += output_gram(power)
            power = power @ square
    q = output_gram(np.eye(2 * n))
    at_end = output_gram(power)
    total = 2 * even + 4 * propagator.T @ even @ propagator - q + at_end
    channels = b2.argmax(axis=0)  # the state each attack channel drives

    def channel_energy(gram):
        # per attacked node: gram's diagonal summed over its two channels
        return gram[channels, channels].reshape(2, -1).sum(axis=0)

    integrals = channel_energy(total)
    end = channel_energy(at_end)
    total_end = end.sum()
    total_start = channel_energy(q).sum()
    if total_end > tail_tol * max(total_start, 1.0):
        raise ConvergenceError(
            f"integrand has not decayed at horizon {horizon:.3g}: "
            f"{total_end:.3g} vs start {total_start:.3g}"
        )
    integrals *= dt / 3.0
    tails = end / (2.0 * rate)
    per_node = {
        node: float(integrals[col] + tails[col])
        for col, node in enumerate(sorted(s.attack_set))
    }
    return H2Result(
        value_sq=sum(per_node.values()),
        per_node=per_node,
        constant=0.0,
        diagnostics={
            "decay_rate": rate,
            "horizon": horizon,
            "steps": steps,
            "tail_fraction": float(total_end / total_start),
        },
    )


def lyapunov_residual(s: Scenario) -> float:
    """Max entry of |A_r^T Q + Q A_r + C_r^T C_r| for law 1.

    A_r and Q are the deflated drift and Gramian that h2_closed_form uses,
    so a small residual certifies the law-1 closed form.
    """
    if s.law is not ControlLaw.ABS_VELOCITY:
        raise ConfigError("lyapunov_residual is defined for law 1 only")
    return _law1_gramian(s)[2]
