import re
from pathlib import Path

import pytest

import resgame

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
