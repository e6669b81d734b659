"""Ensemble-of-replications transient estimation by discrete-event simulation.

Steady-state simulation averages one long run over time; transient estimation
cannot (the process is not stationary), so it averages *across replications*
instead: ``R`` independent runs from the same initial condition, each sampled
at the same grid of absolute times, with Student-t confidence intervals
formed across the replications at every grid point.

The estimator exists to cross-validate the analytical uniformization engine —
the acceptance tests require the analytical mean-queue-length trajectory to
lie inside these intervals — and to extend transient analysis to models whose
period distributions are not phase-type (where uniformization does not
apply but the simulators do).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .._validation import check_positive_int
from ..exceptions import SimulationError
from ..scenarios.model import ScenarioModel
from ..simulation.estimators import ConfidenceInterval, batch_means_interval
from ..simulation.scenario_sim import ScenarioSimulator
from .analysis import normalise_times

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .analysis import TransientModel


@dataclass(frozen=True)
class TransientEnsembleEstimate:
    """Across-replication transient estimates on a time grid.

    Attributes
    ----------
    times:
        The sampling times, strictly increasing.
    mean_queue_length:
        Per-time Student-t intervals for ``E[Q(t)]`` across replications.
    mean_operative_servers:
        Per-time intervals for the expected number of operative servers.
    num_replications:
        Number of independent replications behind every interval.
    num_servers:
        The model's server count ``N`` (denominator of :meth:`availability`).
    queue_length_samples:
        Raw samples, shape ``(num_replications, len(times))`` (for
        goodness-of-fit tests and custom functionals).
    """

    times: tuple[float, ...]
    mean_queue_length: tuple[ConfidenceInterval, ...]
    mean_operative_servers: tuple[ConfidenceInterval, ...]
    num_replications: int
    num_servers: int
    queue_length_samples: np.ndarray

    def availability(self) -> tuple[float, ...]:
        """Estimated point availability ``A(t)`` (operative fraction) per time."""
        return tuple(
            interval.estimate / float(self.num_servers)
            for interval in self.mean_operative_servers
        )


def simulate_transient(
    model: "TransientModel",
    times: float | Sequence[float] | np.ndarray,
    *,
    num_replications: int = 200,
    seed: int = 0,
    confidence: float = 0.95,
) -> TransientEnsembleEstimate:
    """Estimate transient trajectories by an ensemble of replications.

    Parameters
    ----------
    model:
        An :class:`~repro.queueing.model.UnreliableQueueModel` or
        :class:`~repro.scenarios.ScenarioModel` (the former runs as its
        ``K = 1, R = N`` scenario); period distributions may be arbitrary
        (no phase-type restriction).
    times:
        Sampling times (deduplicated, sorted ascending).  Every replication
        starts empty with all servers operative — the simulators' bootstrap
        state, matching the analytical engine's default initial condition.
    num_replications:
        Number of independent replications (at least 2, for intervals).
    seed:
        Master seed; per-replication seeds are drawn from it, so the whole
        ensemble is reproducible.
    confidence:
        Confidence level of the per-time intervals.
    """
    num_replications = check_positive_int(num_replications, "num_replications")
    if num_replications < 2:
        raise SimulationError("at least two replications are required for intervals")
    grid = normalise_times(times)
    if grid[-1] <= 0.0:
        raise SimulationError("the sampling grid needs at least one positive time")

    scenario = model if isinstance(model, ScenarioModel) else ScenarioModel.from_homogeneous(model)
    master = np.random.default_rng(seed)
    seeds = master.integers(0, np.iinfo(np.int64).max, size=num_replications)

    queue_samples = np.zeros((num_replications, len(grid)))
    operative_samples = np.zeros((num_replications, len(grid)))
    for replication in range(num_replications):
        simulator = ScenarioSimulator(scenario, seed=int(seeds[replication]))
        for index, t in enumerate(grid):
            if t > 0.0:
                simulator.run(t)
            queue_samples[replication, index] = simulator.num_jobs_in_system
            operative_samples[replication, index] = simulator.num_operative_servers
        simulator.close()

    queue_intervals = tuple(
        batch_means_interval(queue_samples[:, index], confidence=confidence)
        for index in range(len(grid))
    )
    operative_intervals = tuple(
        batch_means_interval(operative_samples[:, index], confidence=confidence)
        for index in range(len(grid))
    )
    return TransientEnsembleEstimate(
        times=grid,
        mean_queue_length=queue_intervals,
        mean_operative_servers=operative_intervals,
        num_replications=num_replications,
        num_servers=int(model.num_servers),
        queue_length_samples=queue_samples,
    )
