"""Markov-chain substrate: mode enumeration, the environment and CTMC kernels.

Public API
----------

* :func:`num_modes`, :func:`enumerate_modes`, :func:`compositions`,
  :func:`mode_index_map`, :func:`operative_counts` — enumeration of the
  operational modes of the environment (paper Eq. 12 and the Section-3.1
  worked example).
* :class:`ScenarioEnvironment`, :func:`expected_num_scenario_modes` — the
  Markovian environment modulating the queue: ``K`` server groups (product
  mode space, per-group capacity vector) and a repair crew of ``R`` slots
  (completion rates scaled by ``min(broken, R) / broken``).  The paper's
  pool is the ``K = 1, R = N`` case.
* :func:`assemble_level_mode_generator`, :func:`steady_state_csr`,
  :func:`steady_state_from_generator`, :class:`LevelModeStructure`,
  :class:`UniformizedOperator` — the sparse kernels of the truncated chains.
"""

from .kernels import (
    LevelModeStructure,
    UniformizedOperator,
    assemble_level_mode_generator,
    steady_state_csr,
    steady_state_from_generator,
)
from .partitions import (
    compositions,
    enumerate_modes,
    mode_index_map,
    num_modes,
    operative_counts,
)
from .scenario_env import ScenarioEnvironment, expected_num_scenario_modes

__all__ = [
    "compositions",
    "enumerate_modes",
    "mode_index_map",
    "num_modes",
    "operative_counts",
    "LevelModeStructure",
    "ScenarioEnvironment",
    "UniformizedOperator",
    "assemble_level_mode_generator",
    "expected_num_scenario_modes",
    "steady_state_csr",
    "steady_state_from_generator",
]
