"""Discrete-event simulation of the unreliable multi-server queue.

Public API
----------

* :class:`ScenarioSimulator` — the event-driven simulator (arbitrary period
  distributions, preemptive-resume breakdowns, per-group service rates with
  fastest-server-first dispatch and migration, repair-slot contention for
  limited repair crews).
* :func:`simulate_scenario`, :func:`simulate_queue`,
  :class:`SimulationEstimate` — one-call estimation of the headline metrics
  with batch-means confidence intervals, for scenarios and for the paper's
  model (its ``K = 1, R = N`` scenario).
* :class:`EventScheduler`, :class:`EventHandle` — the underlying simulation
  engine (reusable for extension studies).
* :class:`TimeWeightedAccumulator`, :func:`batch_means_interval`,
  :class:`ConfidenceInterval` — output-analysis utilities.
"""

from .engine import EventHandle, EventScheduler
from .estimators import (
    ConfidenceInterval,
    SimulationEstimate,
    TimeWeightedAccumulator,
    batch_means_interval,
)
from .scenario_sim import ScenarioSimulator, simulate_queue, simulate_scenario

__all__ = [
    "EventScheduler",
    "EventHandle",
    "TimeWeightedAccumulator",
    "batch_means_interval",
    "ConfidenceInterval",
    "simulate_queue",
    "SimulationEstimate",
    "ScenarioSimulator",
    "simulate_scenario",
]
