"""Scenario library: beyond the paper's homogeneous server pool.

The paper models one homogeneous pool of ``N`` unreliable servers.  This
package opens the model up to the workloads real clusters run:

* :class:`ServerGroup` / :class:`ScenarioModel` — ``K`` heterogeneous server
  groups (each with its own size, service rate and operative/inoperative
  period distributions) and a repair crew of ``R`` concurrent repair slots.
  ``K = 1, R = N`` recovers the paper's model exactly.
* :func:`solve_scenario_ctmc` / :class:`ScenarioCTMCSolution` — the
  truncated-CTMC reference solver over the product mode space with
  level-dependent (fastest-server-first) service capacities.  It also solves
  the paper's :class:`~repro.queueing.UnreliableQueueModel`, the ``K = 1,
  R = N`` scenario.
* :data:`SCENARIO_PRESETS`, :func:`scenario_preset`, :func:`preset_names` —
  named, documented presets (``two-speed-cluster``, ``single-repairman``,
  ``legacy-homogeneous``, ...) shared by the CLI, the examples, the
  benchmarks and the cross-validation tests.

Scenarios participate in the :mod:`repro.solvers` registry: the exact
``spectral`` backend, ``ctmc`` and ``simulate`` accept them directly, while
``geometric`` raises :class:`~repro.exceptions.UnsupportedScenarioError` (so
fallback chains skip past it), and sweeps can grid over group parameters
and the crew size (see :mod:`repro.sweeps`).
"""

from .ctmc import ScenarioCTMCSolution, solve_scenario_ctmc
from .model import ScenarioModel, ServerGroup
from .presets import (
    SCENARIO_PRESETS,
    ScenarioPreset,
    preset_description,
    preset_names,
    scenario_preset,
)

__all__ = [
    "SCENARIO_PRESETS",
    "ScenarioCTMCSolution",
    "ScenarioModel",
    "ScenarioPreset",
    "ServerGroup",
    "preset_description",
    "preset_names",
    "scenario_preset",
    "solve_scenario_ctmc",
]
