"""Attacker-defender resilience games on second-order networked dynamics.

The library computes closed-form squared H2 norms of attacked consensus
dynamics under two velocity-feedback laws, builds the zero-sum payoff
matrix over node subsets, solves for pure Nash / defender-led Stackelberg
equilibria, and exposes the graph- and resistance-centrality formulas
that characterize the optimal strategies.

The names below are the public workflow; everything else is imported
from its module (for example `from resgame.graphcore import path_graph`).
"""

from .dynamics import ControlLaw, H2Result, Scenario, h2_closed_form, h2_energy_oracle
from .errors import ConfigError, ConvergenceError, EnumerationLimitError, GraphError
from .game import (
    EquilibriumReport,
    GameMatrix,
    SweepRow,
    build_matrix,
    predict_equilibrium,
    solve,
    sweep_gain,
)
from .graphcore import Graph
from .scenario_io import load_graph, load_scenario

__all__ = [
    "Graph",
    "ControlLaw",
    "Scenario",
    "H2Result",
    "h2_closed_form",
    "h2_energy_oracle",
    "build_matrix",
    "solve",
    "predict_equilibrium",
    "sweep_gain",
    "GameMatrix",
    "EquilibriumReport",
    "SweepRow",
    "load_graph",
    "load_scenario",
    "ConfigError",
    "ConvergenceError",
    "EnumerationLimitError",
    "GraphError",
]

__version__ = "1.0.0"
