"""Response-time distributions — the paper's stated open problem.

Section 5 of the paper notes that the spectral-expansion solution gives the
distribution of the *queue size* (and hence the mean response time via
Little's law) but not the distribution of the *response time* itself, e.g.
its 90th percentile, and leaves that as future work.  This module provides
two practical answers a downstream user can rely on today:

* :func:`simulated_response_time_distribution` — an empirical response-time
  distribution from the discrete-event simulator, valid for any period
  distributions (this is the ground truth the open problem asks for);
* :func:`fcfs_exponential_capacity_bound` — a closed-form *approximation*
  obtained by treating the cluster as a single fast server of capacity equal
  to the mean number of operative servers (an M/M/1-style bound that is
  asymptotically correct in heavy traffic, where the queue — not the service
  — dominates the response time).

Both are exercised by the test-suite against each other and against the exact
mean response time from the spectral solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_non_negative, check_positive, check_probability
from ..exceptions import SimulationError, SolverError
from ..queueing.model import UnreliableQueueModel
from ..simulation.scenario_sim import ScenarioSimulator
from ..solvers import SolutionCache, SolverPolicy, solve


@dataclass(frozen=True)
class ResponseTimeDistribution:
    """An empirical response-time distribution estimated by simulation.

    Attributes
    ----------
    samples:
        The post-warm-up response-time samples, sorted ascending.
    mean:
        The sample mean response time.
    """

    samples: np.ndarray
    mean: float

    def quantile(self, probability: float) -> float:
        """The empirical quantile of the response time (e.g. 0.9 for the 90th)."""
        probability = check_probability(probability, "probability")
        return float(np.quantile(self.samples, probability))

    def tail_probability(self, threshold: float) -> float:
        """``P(response time > threshold)`` under the empirical distribution.

        ``threshold = 0.0`` is a legitimate query (response times are strictly
        positive, so it returns 1), hence only negative thresholds are rejected.
        """
        threshold = check_non_negative(threshold, "threshold")
        return float(np.mean(self.samples > threshold))

    @property
    def percentile_90(self) -> float:
        """The 90th percentile the paper singles out as the open question."""
        return self.quantile(0.9)

    @property
    def num_samples(self) -> int:
        """The number of completed jobs behind the estimate."""
        return int(self.samples.size)


def mean_response_time(
    model: UnreliableQueueModel,
    policy: SolverPolicy | str | None = None,
    *,
    cache: SolutionCache | bool | None = None,
) -> float:
    """The mean response time ``W`` through the :mod:`repro.solvers` facade.

    This is the analytic companion to the empirical distribution below: it
    dispatches through the solver registry with the usual fallback chain
    (spectral → geometric by default) and the shared solution cache, so the
    exact mean used to sanity-check the simulated distribution is obtained
    the same way every other consumer obtains it.

    Raises
    ------
    SolverError
        When the model is unstable or every solver in the policy fails.
    """
    outcome = solve(model, policy, cache=cache)
    if not outcome.stable:
        raise SolverError("the queue is unstable; the mean response time is infinite")
    if outcome.solver is None:
        raise SolverError(outcome.error or "no solver succeeded")
    return float(outcome.metrics["mean_response_time"])


def simulated_response_time_distribution(
    model: UnreliableQueueModel,
    *,
    horizon: float | None = None,
    warmup_fraction: float | None = None,
    seed: int | None = None,
    policy: SolverPolicy | None = None,
) -> ResponseTimeDistribution:
    """Estimate the response-time distribution of a model by simulation.

    Parameters
    ----------
    model:
        The queueing model (any period distributions are accepted).
    horizon:
        Total simulated time including warm-up.
    warmup_fraction:
        Fraction of the horizon discarded before collecting response times.
    seed:
        Random seed of the simulation run.
    policy:
        Optional :class:`~repro.solvers.SolverPolicy` supplying defaults for
        the three options above from its ``simulate_*`` fields, so a sweep
        and a response-time study can share one simulation configuration.

    Raises
    ------
    SimulationError
        If the horizon is too short to produce a usable number of completed
        jobs after the warm-up period.
    """
    defaults = policy if policy is not None else SolverPolicy()
    horizon = horizon if horizon is not None else defaults.simulate_horizon
    warmup_fraction = (
        warmup_fraction if warmup_fraction is not None else defaults.simulate_warmup_fraction
    )
    seed = seed if seed is not None else defaults.simulate_seed
    horizon = check_positive(horizon, "horizon")
    if not 0.0 <= warmup_fraction < 1.0:
        raise SimulationError("warmup_fraction must lie in [0, 1)")
    simulator = ScenarioSimulator(model, seed=seed)
    simulator.run(horizon)
    simulator.close()
    warmup_time = warmup_fraction * horizon
    samples = np.array(
        sorted(
            response
            for completion_time, response in simulator.completed_jobs()
            if completion_time >= warmup_time
        )
    )
    if samples.size < 100:
        raise SimulationError(
            f"only {samples.size} completed jobs after warm-up; increase the horizon"
        )
    return ResponseTimeDistribution(samples=samples, mean=float(np.mean(samples)))


def fcfs_exponential_capacity_bound(
    model: UnreliableQueueModel, probability: float
) -> float:
    """A closed-form heavy-traffic approximation of a response-time quantile.

    The cluster is replaced by a single exponential server whose rate equals
    the average operative service capacity ``c = mu * N * eta / (xi + eta)``;
    the response time of the resulting M/M/1 queue is exponential with rate
    ``c - lambda``, whose ``p``-quantile is ``-ln(1 - p) / (c - lambda)``.
    The estimate is meaningful only in heavy traffic, where the waiting time
    (which the aggregated server captures) dominates the service time (which
    it distorts); at light load it understates response times and the
    simulation-based estimator should be used instead.
    """
    probability = check_probability(probability, "probability")
    if not 0.0 < probability < 1.0:
        raise SimulationError("probability must lie strictly between 0 and 1")
    model.require_stable()
    capacity = model.service_rate * model.mean_operative_servers
    gap = capacity - model.arrival_rate
    return float(-np.log(1.0 - probability) / gap)
