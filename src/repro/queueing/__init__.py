"""Queueing-model front end, the common solution interface and baselines.

Public API
----------

* :class:`UnreliableQueueModel`, :func:`sun_fitted_model` — the Palmer–Mitrani
  model (stability condition, environment, solver entry points).
* :class:`QueueSolution`, :class:`PerformanceSummary` — the common solution
  interface shared by the exact, approximate, reference and simulated
  solutions.
* :func:`erlang_c`, :func:`erlang_b`, :func:`mmc_metrics`,
  :func:`mm1_mean_queue_length`, :func:`mm1_queue_length_pmf`,
  :func:`required_servers_erlang_c`, :class:`MMcMetrics` — reliable-server
  baselines.
"""

from .erlang import (
    MMcMetrics,
    erlang_b,
    erlang_c,
    mm1_mean_queue_length,
    mm1_queue_length_pmf,
    mmc_metrics,
    required_servers_erlang_c,
)
from .model import UnreliableQueueModel, sun_fitted_model
from .solution_base import PerformanceSummary, QueueSolution

__all__ = [
    "UnreliableQueueModel",
    "sun_fitted_model",
    "QueueSolution",
    "PerformanceSummary",
    "MMcMetrics",
    "erlang_c",
    "erlang_b",
    "mmc_metrics",
    "mm1_mean_queue_length",
    "mm1_queue_length_pmf",
    "required_servers_erlang_c",
]
