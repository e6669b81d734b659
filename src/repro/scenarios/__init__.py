"""Scenario library: the model class, from the paper's pool to real clusters.

The paper models one homogeneous pool of ``N`` unreliable servers.  This
package holds the one model class every solver reads, which opens the model
up to the workloads real clusters run:

* :class:`ServerGroup` / :class:`ScenarioModel` — ``K`` heterogeneous server
  groups (each with its own size, service rate and operative/inoperative
  period distributions) and a repair crew of ``R`` concurrent repair slots.
  The paper's :class:`~repro.queueing.UnreliableQueueModel` is the ``K = 1,
  R = N`` subclass under the paper's five-field constructor.
* :func:`solve_scenario_ctmc` / :class:`ScenarioCTMCSolution` — the
  truncated-CTMC reference solver over the product mode space with
  level-dependent (fastest-server-first) service capacities.
* :data:`SCENARIO_PRESETS`, :func:`scenario_preset`, :func:`preset_names` —
  named, documented presets (``two-speed-cluster``, ``single-repairman``,
  ``legacy-homogeneous``, ...) shared by the CLI, the examples, the
  benchmarks and the cross-validation tests.

Scenarios participate in the :mod:`repro.solvers` registry: the exact
``spectral`` backend, ``ctmc`` and ``simulate`` accept every scenario.
``geometric`` works on one server's phases, so it answers only scenarios
with one group and an unlimited crew
(:attr:`ScenarioModel.is_homogeneous`) and raises
:class:`~repro.exceptions.UnsupportedScenarioError` for the rest (so
fallback chains skip past it).  Sweeps can grid over group parameters and the
crew size (see :mod:`repro.sweeps`).
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
