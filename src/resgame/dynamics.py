"""Attacked second-order network dynamics and their H2 norms.

Two control laws are supported: absolute-velocity damping (law 1) and
relative-velocity coupling with grounded self-feedback (law 2). The
closed-form H2 norms (law 1: one Lyapunov solve; law 2: the
grounded-inverse diagonal) are cross-checked by an independent
finite-horizon energy integration of the impulse response.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConfigError, ConvergenceError
from .graphcore import Graph, laplacian, positive_finite
from .resistance import GroundedSystem, grounded_inverse_diag


class ControlLaw(enum.Enum):
    """Which velocity feedback the agents run."""

    ABS_VELOCITY = 1
    REL_VELOCITY = 2

    @classmethod
    def from_int(cls, value: int) -> "ControlLaw":
        try:
            return cls(value)
        except ValueError:
            raise ConfigError(f"control law must be 1 or 2, got {value!r}")


@dataclass(frozen=True)
class Scenario:
    """One attacked-network instance: graph, law, gain, and node sets."""

    graph: Graph
    law: ControlLaw
    gain: float
    defense_set: tuple[int, ...]
    attack_set: tuple[int, ...]

    def __post_init__(self):
        dset = tuple(sorted(int(i) for i in self.defense_set))
        aset = tuple(sorted(int(i) for i in self.attack_set))
        object.__setattr__(self, "defense_set", dset)
        object.__setattr__(self, "attack_set", aset)
        problems = []
        if not positive_finite(self.gain):
            problems.append(f"gain must be positive and finite, got {self.gain}")
        if not aset:
            problems.append("attack set must be nonempty")
        if len(set(dset)) != len(dset) or len(set(aset)) != len(aset):
            problems.append("node sets must not contain duplicates")
        n = self.graph.n
        if any(not 0 <= i < n for i in dset + aset):
            problems.append(f"node sets must lie in [0, {n})")
        if self.law is ControlLaw.REL_VELOCITY and not dset:
            problems.append("law 2 requires a nonempty defense set")
        if problems:
            raise ConfigError("; ".join(problems))

    @property
    def budget(self) -> int:
        return len(self.attack_set)


@dataclass(frozen=True)
class StateSpace:
    """Drift and input/output matrices of the attacked dynamics."""

    a: np.ndarray
    b2: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class H2Result:
    """Squared H2 norm with its per-attacked-node breakdown.

    value_sq == constant + sum(per_node.values()); constant carries the
    f/2 term of law 2 for the closed form and is zero otherwise.
    diagnostics is filled by the energy oracle (see h2_energy_oracle) and
    empty for the closed form.
    """

    value_sq: float
    per_node: dict[int, float]
    constant: float
    method: str
    diagnostics: dict[str, float] = field(default_factory=dict)


def _indicator(n: int, nodes) -> np.ndarray:
    y = np.zeros(n)
    for i in nodes:
        y[i] = 1.0
    return y


def attack_input(n: int, attack_set) -> np.ndarray:
    """Column-per-attacked-node selector F (n x f, one 1 per column)."""
    f = np.zeros((n, len(attack_set)))
    for col, i in enumerate(sorted(attack_set)):
        f[i, col] = 1.0
    return f


def assemble(s: Scenario) -> StateSpace:
    """Build the 2n-state model: x-block integrates velocities, v-block couples."""
    n = s.graph.n
    lap = laplacian(s.graph)
    dy = np.diag(_indicator(n, s.defense_set))
    if s.law is ControlLaw.ABS_VELOCITY:
        h = np.eye(n) + s.gain * dy
        lower = (-lap, -h)
    else:
        lbar = lap + s.gain * dy
        lower = (-lbar, -lbar)
    a = np.block([[np.zeros((n, n)), np.eye(n)], [lower[0], lower[1]]])
    fmat = attack_input(n, s.attack_set)
    b2 = np.kron(np.eye(2), fmat)
    c = np.hstack([np.zeros((n, n)), np.eye(n)])
    return StateSpace(a=a, b2=b2, c=c)


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
    n = s.graph.n
    u = scipy.linalg.null_space(np.ones((1, n)))
    h = np.eye(n) + s.gain * np.diag(_indicator(n, s.defense_set))
    a_r = np.block([[np.zeros((n - 1, n - 1)), u.T], [-laplacian(s.graph) @ u, -h]])
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
    Either law raises ConvergenceError for a negative value.
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
    value_sq = constant + sum(per_node.values())
    if value_sq < 0:
        raise ConvergenceError(f"closed-form H2^2 is negative: {value_sq:.3g}")
    return H2Result(
        value_sq=value_sq,
        per_node=per_node,
        constant=constant,
        method="closed_form",
    )


# time steps per propagator product in h2_energy_oracle; block sizes from
# 128 to 4096 timed the same
_BLOCK = 256
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

    The states exp(A k dt) B2 are produced in blocks of _BLOCK time steps:
    the first block is built by doubling from the one-step propagator
    P = exp(A dt), and each later block is one product P^_BLOCK @ block.
    Each block's output energies are folded into the Simpson sum as soon as
    they are computed (weight 0 past the last step), so memory is
    O(_BLOCK n f) whatever the step count. Raises ConfigError for a
    horizon <= 0 or steps < 1, and ConvergenceError when the integrand at
    the horizon has not decayed below tail_tol of its start.

    The result's diagnostics hold the grid and the decay check: the decay
    rate, the horizon, the step count, and the tail fraction (integrand
    at the horizon over the integrand at 0).
    """
    if horizon is not None and not horizon > 0:
        raise ConfigError(f"oracle horizon must be positive, got {horizon}")
    if steps is not None and steps < 1:
        raise ConfigError(f"oracle steps must be >= 1, got {steps}")
    ss = assemble(s)
    rate = _stable_decay_rate(ss.a)
    horizon = 20.0 / rate if horizon is None else float(horizon)
    if steps is None:
        steps = max(2000, int(np.ceil(horizon / _MAX_DT)))
    if steps % 2:
        steps += 1
    dt = horizon / steps
    propagator = scipy.linalg.expm(ss.a * dt)
    n = s.graph.n
    f = s.budget

    def channel_energy(states):
        # row k: per-channel integrand at the block's k-th step; columns
        # (k, f+k) of one step's states belong to attacked node k
        out = states[n:, :]  # C selects the velocity block
        return (out * out).sum(axis=0).reshape(-1, 2, f).sum(axis=1)

    # columns [2f k, 2f (k+1)) of block hold the states of step k; the
    # doubling leaves power = P^_BLOCK
    block, power = ss.b2, propagator
    while block.shape[1] < 2 * f * _BLOCK:
        block = np.hstack([block, power @ block])
        power = power @ power
    offsets = np.arange(_BLOCK)
    integrals = np.zeros(f)
    for base in range(0, steps + 1, _BLOCK):
        if base:
            block = power @ block
        energy = channel_energy(block)
        k = base + offsets
        weights = np.where(k % 2, 4.0, 2.0)
        weights[(k == 0) | (k == steps)] = 1.0
        weights[k > steps] = 0.0
        integrals += weights @ energy
    end = energy[steps - base]
    total_end = end.sum()
    total_start = channel_energy(ss.b2)[0].sum()
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
        method="energy_oracle",
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
