import re
from pathlib import Path

import numpy as np
import pytest

import resgame
from resgame import ControlLaw, Graph, Scenario, build_matrix
from resgame.graphcore import path_graph
from resgame.resistance import GroundedSystem, grounded_inverse_diag

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    "Graph", "ControlLaw", "Scenario", "H2Result", "h2_closed_form",
    "h2_energy_oracle", "build_matrix", "solve", "predict_equilibrium",
    "sweep_gain", "GameMatrix", "EquilibriumReport", "SweepRow", "load_graph",
    "load_scenario", "ConfigError", "ConvergenceError", "EnumerationLimitError",
    "GraphError",
}


def test_all_is_the_public_workflow_and_resolves():
    assert len(resgame.__all__) == len(PUBLIC)
    assert set(resgame.__all__) == PUBLIC
    for name in resgame.__all__:
        assert getattr(resgame, name) is not None


def test_readme_library_block_runs():
    library = README.read_text().split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].kind == "nash"
    assert namespace["report"].defender_set == (0,)
    assert namespace["prediction"].value == namespace["report"].value
    s = namespace["s"]
    closed = namespace["h2_closed_form"](s).value_sq
    assert namespace["h2_energy_oracle"](s).value_sq == pytest.approx(closed, rel=1e-6)
    assert namespace["effective_center"](namespace["g"]) == (0,)


@pytest.mark.parametrize("np_int", [np.int64, np.intp], ids=["int64", "intp"])
def test_numpy_integers_are_accepted_where_python_ints_are(np_int):
    # `verify` and SubsetIndex.subsets hand NumPy integers to these entry points
    g = Graph(np_int(4), tuple((np_int(i), np_int(i + 1)) for i in range(3)))
    assert g == path_graph(4) and type(g.n) is int
    law2 = ControlLaw.from_int(np_int(2))
    assert law2 is ControlLaw.REL_VELOCITY
    s = Scenario(g, law2, 1.0, (np_int(2), np_int(0)), np.array([3, 1], dtype=np_int))
    assert s == Scenario(g, law2, 1.0, (0, 2), (1, 3))
    assert all(type(i) is int for i in s.defense_set + s.attack_set)
    gs = GroundedSystem(g, np.array([1], dtype=np_int), 1.0)
    assert gs.defense_set == (1,) and type(gs.defense_set[0]) is int
    assert np.array_equal(grounded_inverse_diag(gs), grounded_inverse_diag(GroundedSystem(g, (1,), 1.0)))
    m = build_matrix(g, 1.0, np_int(2), law2)
    assert type(m.f) is int and m.index.size == 6
    assert np.array_equal(m.values, build_matrix(g, 1.0, 2, law2).values)
