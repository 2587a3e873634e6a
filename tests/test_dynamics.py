import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from resgame import (
    ConfigError,
    ControlLaw,
    ConvergenceError,
    Scenario,
    h2_closed_form,
    h2_energy_oracle,
)
from resgame.dynamics import assemble, lyapunov_residual
from resgame.game import build_matrix, payoff_j1, payoff_j2
from resgame.graphcore import laplacian, path_graph, star_graph

from conftest import random_connected_graph


def scenario(graph, law, gain, defense, attack):
    return Scenario(graph, law, gain, tuple(defense), tuple(attack))


class TestScenarioValidation:
    def test_rejects_empty_attack(self):
        with pytest.raises(ConfigError, match="attack set"):
            scenario(path_graph(3), ControlLaw.ABS_VELOCITY, 1.0, (1,), ())

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(ConfigError, match="gain"):
            scenario(path_graph(3), ControlLaw.ABS_VELOCITY, 0.0, (1,), (1,))

    def test_law2_needs_defense(self):
        with pytest.raises(ConfigError, match="law 2"):
            scenario(path_graph(3), ControlLaw.REL_VELOCITY, 1.0, (), (1,))

    def test_out_of_range_nodes(self):
        with pytest.raises(ConfigError, match="lie in"):
            scenario(path_graph(3), ControlLaw.ABS_VELOCITY, 1.0, (5,), (1,))

    def test_sets_are_sorted(self):
        s = scenario(path_graph(4), ControlLaw.ABS_VELOCITY, 1.0, (3, 1), (2, 0))
        assert s.defense_set == (1, 3) and s.attack_set == (0, 2)

    def test_law_from_int(self):
        assert ControlLaw.from_int(1) is ControlLaw.ABS_VELOCITY
        assert ControlLaw.from_int(2) is ControlLaw.REL_VELOCITY
        assert all(ControlLaw.from_int(law) is law for law in ControlLaw)
        for value in (3, 2.0, 2.7, True, "2"):
            with pytest.raises(ConfigError, match=f"control law must be 1 or 2, got {value!r}"):
                ControlLaw.from_int(value)

    def test_plain_int_law_is_normalised(self):
        s = Scenario(path_graph(3), 1, 1.0, (), (1,))
        assert s.law is ControlLaw.ABS_VELOCITY
        law1 = h2_closed_form(scenario(path_graph(3), ControlLaw.ABS_VELOCITY, 1.0, (), (1,)))
        assert h2_closed_form(s) == law1
        assert law1.constant == 0.0  # law 2 would carry f/2

    @pytest.mark.parametrize("law", [3, True, 1.0])
    def test_rejects_bad_law(self, law):
        with pytest.raises(ConfigError, match="control law must be 1 or 2"):
            Scenario(path_graph(3), law, 1.0, (1,), (1,))

    @pytest.mark.parametrize("gain", [True, "1e0", 1j])
    def test_rejects_non_real_gain(self, gain):
        with pytest.raises(ConfigError, match=r"gain must be a real number, got "):
            Scenario(path_graph(3), 1, gain, (1,), (1,))

    def test_rejects_non_integer_nodes(self):
        with pytest.raises(ConfigError, match=r"defense set must hold integer nodes, got \(0\.7,\)"):
            Scenario(path_graph(3), ControlLaw.REL_VELOCITY, 1.0, (0.7,), (2.9,))
        with pytest.raises(ConfigError, match=r"attack set must hold integer nodes, got \(2\.9,\)"):
            Scenario(path_graph(3), ControlLaw.REL_VELOCITY, 1.0, (0,), (2.9,))


class TestAssembly:
    def test_abs_velocity_blocks(self):
        g = path_graph(3)
        s = scenario(g, ControlLaw.ABS_VELOCITY, 2.0, (1,), (0,))
        a, _ = assemble(s)
        lap = laplacian(g)
        n = 3
        assert np.array_equal(a[:n, :n], np.zeros((n, n)))
        assert np.array_equal(a[:n, n:], np.eye(n))
        assert np.array_equal(a[n:, :n], -lap)
        assert np.array_equal(a[n:, n:], -np.diag([1.0, 3.0, 1.0]))

    def test_rel_velocity_blocks(self):
        g = path_graph(3)
        s = scenario(g, ControlLaw.REL_VELOCITY, 2.0, (1,), (0,))
        a, _ = assemble(s)
        lbar = laplacian(g) + np.diag([0.0, 2.0, 0.0])
        assert np.array_equal(a[3:, :3], -lbar)
        assert np.array_equal(a[3:, 3:], -lbar)

    def test_attack_input_shape(self):
        s = scenario(path_graph(4), ControlLaw.ABS_VELOCITY, 1.0, (), (3, 1))
        _, b2 = assemble(s)
        expected = np.zeros((8, 4))
        expected[[1, 3, 5, 7], [0, 1, 2, 3]] = 1.0
        assert np.array_equal(b2, expected)


class TestClosedForm:
    def test_abs_velocity_defended_node(self):
        # degree-2 middle node of P3 with a unit self-loop gain; the exact
        # Lyapunov solve of this case gives
        # (2k^3 + 9k^2 + 29k + 45) / (2 (k + 3) (k^2 + 5k + 5)) at gain k
        s = scenario(path_graph(3), ControlLaw.ABS_VELOCITY, 1.0, (1,), (1,))
        assert h2_closed_form(s).value_sq == pytest.approx(85 / 88, abs=1e-12)

    def test_abs_velocity_saddle_value_formula(self):
        # the P3 saddle cell; the game value 3/(2k+2) is the degree formula,
        # the exact H2 is the rational function above
        for kappa, exact in ((0.1, 23996 / 17081), (0.25, 1691 / 1313), (0.5, 8 / 7)):
            s = scenario(path_graph(3), ControlLaw.ABS_VELOCITY, kappa, (1,), (1,))
            assert h2_closed_form(s).value_sq == pytest.approx(exact, abs=1e-12)

    def test_rel_velocity_defended_node(self):
        s = scenario(path_graph(3), ControlLaw.REL_VELOCITY, 1.0, (1,), (1,))
        assert h2_closed_form(s).value_sq == pytest.approx(1.0, abs=1e-12)

    def test_rel_velocity_diagonal_formula(self):
        # attacking the defended node: 1/2 + 1/(2 kappa)
        for kappa in (0.5, 1.0, 2.0):
            s = scenario(star_graph(5), ControlLaw.REL_VELOCITY, kappa, (2,), (2,))
            assert h2_closed_form(s).value_sq == pytest.approx(
                0.5 + 0.5 / kappa, abs=1e-12
            )

    def test_per_node_breakdown_sums(self, rng):
        g = random_connected_graph(rng, 6)
        s = scenario(g, ControlLaw.REL_VELOCITY, 1.0, (0,), (1, 2, 4))
        res = h2_closed_form(s)
        assert res.value_sq == pytest.approx(
            res.constant + sum(res.per_node.values()), abs=1e-12
        )
        assert res.constant == 1.5  # f/2

    def test_abs_velocity_ignores_defense_outside_attack(self, rng):
        # a property of the law-1 game payoff (the degree formula); the
        # exact H2 does depend on where the damping sits
        g = random_connected_graph(rng, 6)
        assert payoff_j1(g, 1.3, (2,), ()) == payoff_j1(g, 1.3, (2,), (4,))

    def test_rel_velocity_equals_the_game_cell_bit_for_bit(self, rng):
        # h2 sums its per-node costs by the game's `_cells` rule, so the
        # closed form, payoff_j2 and the matrix cell agree to the last bit;
        # 40 games (n 5-11, |A| = |D| = 1-4), 10 cells each
        law2 = ControlLaw.REL_VELOCITY
        for k in range(40):
            f = 1 + k % 4
            g = random_connected_graph(rng, int(rng.integers(5, 12)), weighted=bool(k // 4 % 2))
            gain = float(10.0 ** rng.uniform(-1.0, 1.0))
            m = build_matrix(g, gain, f, law2)
            for r, c in rng.integers(0, m.index.size, (10, 2)).tolist():
                defense, attack = m.index.subset(r), m.index.subset(c)
                closed = h2_closed_form(scenario(g, law2, gain, defense, attack)).value_sq
                assert closed == payoff_j2(g, gain, attack, defense) == m.values[r, c]


class TestEnergyOracle:
    def test_matches_closed_form_rel_velocity(self, rng):
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(3, 6)))
            n = g.n
            dset = tuple(sorted(int(i) for i in rng.choice(n, 2, replace=False)))
            aset = tuple(sorted(int(i) for i in rng.choice(n, 2, replace=False)))
            s = scenario(g, ControlLaw.REL_VELOCITY, 1.0, dset, aset)
            cf = h2_closed_form(s).value_sq
            assert h2_energy_oracle(s).value_sq == pytest.approx(cf, rel=1e-6)

    def test_matches_closed_form_abs_velocity_undefended(self, rng):
        # without defended nodes the damping is uniform and the simple
        # degree formula is the true squared norm
        for _ in range(5):
            g = random_connected_graph(rng, int(rng.integers(3, 6)))
            aset = tuple(sorted(int(i) for i in rng.choice(g.n, 2, replace=False)))
            s = scenario(g, ControlLaw.ABS_VELOCITY, 1.0, (), aset)
            cf = h2_closed_form(s).value_sq
            assert h2_energy_oracle(s).value_sq == pytest.approx(cf, rel=1e-6)

    def test_abs_velocity_defended_formula_is_approximation(self):
        # with non-uniform damping the degree formula (the law-1 game payoff)
        # deviates from the true integrated output energy, which the closed
        # form and the oracle both report
        s = scenario(path_graph(3), ControlLaw.ABS_VELOCITY, 1.0, (1,), (1,))
        cf = h2_closed_form(s).value_sq
        oracle = h2_energy_oracle(s).value_sq
        assert payoff_j1(path_graph(3), 1.0, (1,), (1,)) == pytest.approx(0.75, abs=1e-12)
        assert cf == pytest.approx(85 / 88, abs=1e-12)
        assert oracle == pytest.approx(85 / 88, rel=1e-6)

    def test_per_node_channels_sum(self, rng):
        g = random_connected_graph(rng, 4)
        s = scenario(g, ControlLaw.REL_VELOCITY, 2.0, (0,), (1, 3))
        res = h2_energy_oracle(s)
        assert set(res.per_node) == {1, 3}
        assert res.value_sq == pytest.approx(sum(res.per_node.values()), abs=1e-12)


def stepwise_oracle(s, horizon=None, steps=None):
    """Reference for h2_energy_oracle: one propagator step per time step.

    Same default grid, Simpson weights and tail term as the oracle, with
    every sample stored and summed at the end, and no decay check.
    Returns per-node values.
    """
    a, b2 = assemble(s)
    eigvals = np.linalg.eigvals(a)
    rate = float((-eigvals[np.abs(eigvals) > 1e-9].real).min())
    if horizon is None:
        horizon = 20.0 / rate
    if steps is None:
        steps = max(2000, int(np.ceil(horizon / 0.005)))
    steps += steps % 2
    dt = horizon / steps
    propagator = scipy.linalg.expm(a * dt)
    n, f = s.graph.n, s.budget
    x = b2.copy()
    samples = np.empty((steps + 1, f))
    for step in range(steps + 1):
        energy = (x[n:] * x[n:]).sum(axis=0)
        samples[step] = energy[:f] + energy[f:]
        x = propagator @ x
    weights = np.ones(steps + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    values = (dt / 3.0) * weights @ samples + samples[-1] / (2.0 * rate)
    return dict(zip(s.attack_set, values.tolist()))


class TestBlockedOracle:
    # The doubling runs over the bits of M = steps / 2: M = 1, 3, 7 and 127
    # set every bit, 128 only its top bit, 129 and 4097 = 2^12 + 1 the top
    # and the lowest with zeros between, and 1000 and the default grid mix
    # both. The short horizon keeps the integrand at its end large enough
    # (0.2% to 3.5% of its start) that a wrong weight or sample there
    # shows; tail_tol lets it pass the decay check.
    @pytest.mark.parametrize(
        "steps", [2, 6, 14, 254, 256, 258, 2000, 2 * (2**12 + 1), None],
        ids=["2", "6", "14", "254", "256", "258", "2000", "8194", "default-grid"],
    )
    @pytest.mark.parametrize("f", [1, 2])
    @pytest.mark.parametrize(
        "law, defense",
        [(ControlLaw.ABS_VELOCITY, ()), (ControlLaw.ABS_VELOCITY, (1,)),
         (ControlLaw.REL_VELOCITY, (1,))],
        ids=["law1-undefended", "law1-defended", "law2"],
    )
    def test_matches_stepwise_loop(self, law, defense, f, steps):
        s = scenario(path_graph(3), law, 2.0, defense, (1,) if f == 1 else (0, 1))
        if steps is None:
            expected = stepwise_oracle(s)
            res = h2_energy_oracle(s)
        else:
            expected = stepwise_oracle(s, 5.0, steps)
            res = h2_energy_oracle(s, horizon=5.0, steps=steps, tail_tol=1.0)
        assert res.per_node.keys() == expected.keys()
        for node, value in expected.items():
            assert res.per_node[node] == pytest.approx(value, rel=1e-12, abs=0)
        assert res.value_sq == pytest.approx(sum(expected.values()), rel=1e-12, abs=0)

    def test_short_horizon_raises(self):
        s = scenario(path_graph(4), ControlLaw.ABS_VELOCITY, 1.0, (), (0,))
        with pytest.raises(ConvergenceError, match="not decayed at horizon 0.5"):
            h2_energy_oracle(s, horizon=0.5)

    @pytest.mark.parametrize(
        "kwargs, match",
        [({"steps": 0}, "steps"), ({"steps": -4}, "steps"),
         ({"horizon": 0.0}, "horizon"), ({"horizon": -1.0}, "horizon"),
         ({"horizon": float("nan")}, "horizon")],
        ids=["steps-0", "steps-negative", "horizon-0", "horizon-negative", "horizon-nan"],
    )
    def test_rejects_bad_grid(self, kwargs, match):
        s = scenario(path_graph(3), ControlLaw.ABS_VELOCITY, 1.0, (), (1,))
        with pytest.raises(ConfigError, match=match):
            h2_energy_oracle(s, **kwargs)

    def test_memory_does_not_grow_with_steps(self):
        # about 115k steps; storing every sample and its Simpson weight
        # alone would take 1.8 MB
        s = scenario(path_graph(8), ControlLaw.REL_VELOCITY, 1.0, (4,), (0,))
        h2_energy_oracle(s)  # first call: library caches and lazy imports
        tracemalloc.start()
        try:
            res = h2_energy_oracle(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.diagnostics["steps"] > 100_000
        assert peak < 1_000_000

    def test_long_grid_law2_path(self):
        # a law-2 60-path grounded at one end decays so slowly that the
        # default grid has 1.19e7 steps; a loop over them takes about 20 s
        n = 60
        s = scenario(path_graph(n), ControlLaw.REL_VELOCITY, 1.0, (0,), (n - 1,))
        res = h2_energy_oracle(s)
        assert res.diagnostics["steps"] == 11_868_216
        assert res.value_sq == pytest.approx(h2_closed_form(s).value_sq, rel=1e-6)

    def test_diagnostics(self):
        s = scenario(path_graph(4), ControlLaw.REL_VELOCITY, 1.0, (1,), (0,))
        diag = h2_energy_oracle(s, horizon=300.0, steps=40001).diagnostics
        assert diag["horizon"] == 300.0 and diag["steps"] == 40002
        assert 0 < diag["tail_fraction"] < 1e-8
        assert h2_closed_form(s).diagnostics == {}


class TestLyapunovResidual:
    def test_small_on_random_scenarios(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 9)))
            nd = int(rng.integers(0, g.n + 1))
            dset = tuple(sorted(int(i) for i in rng.choice(g.n, nd, replace=False)))
            s = scenario(g, ControlLaw.ABS_VELOCITY, 1.7, dset, (0,))
            assert lyapunov_residual(s) < 1e-12

    def test_rejects_rel_velocity(self):
        s = scenario(path_graph(3), ControlLaw.REL_VELOCITY, 1.0, (1,), (1,))
        with pytest.raises(ConfigError):
            lyapunov_residual(s)
