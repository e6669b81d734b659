"""Tests of the homogeneous-queue simulation, including validation against theory.

The paper's model is simulated as its ``K = 1, R = N`` scenario, so these
tests drive :class:`~repro.simulation.ScenarioSimulator` on one group.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import Deterministic, Exponential, HyperExponential
from repro.exceptions import SimulationError
from repro.queueing import (
    UnreliableQueueModel,
    mm1_mean_queue_length,
    mmc_metrics,
    sun_fitted_model,
)
from repro.scenarios import ScenarioModel
from repro.simulation import ScenarioSimulator, simulate_queue


def _simulator(
    *,
    seed: int = 11,
    operative=Exponential(rate=0.05),
    inoperative=Exponential(rate=1.0),
) -> ScenarioSimulator:
    model = UnreliableQueueModel(
        num_servers=2,
        arrival_rate=1.0,
        service_rate=1.0,
        operative=operative,
        inoperative=inoperative,
    )
    return ScenarioSimulator(ScenarioModel.from_homogeneous(model), seed=seed)


class _BreakdownAudit(ScenarioSimulator):
    """Counts breakdowns after which a job waits beside an idle operative server."""

    breakdowns = 0
    violations = 0

    def _handle_breakdown(self, server) -> None:
        super()._handle_breakdown(server)
        self.breakdowns += 1
        waiting = self.num_jobs_in_system - self.num_busy_servers
        if waiting > 0 and self.idle_operative_rates():
            self.violations += 1


class TestSimulatorMechanics:
    def test_starts_empty_and_operative(self):
        simulator = _simulator()
        assert simulator.num_jobs_in_system == 0
        assert simulator.num_operative_servers == 2
        assert simulator.num_busy_servers == 0

    def test_run_advances_clock(self):
        simulator = _simulator()
        simulator.run(100.0)
        assert simulator.now == pytest.approx(100.0)

    def test_run_can_be_continued(self):
        simulator = _simulator()
        simulator.run(50.0)
        first_jobs = len(simulator.completed_jobs())
        simulator.run(100.0)
        assert simulator.now == pytest.approx(100.0)
        assert len(simulator.completed_jobs()) >= first_jobs

    def test_invalid_horizon_rejected(self):
        with pytest.raises(SimulationError):
            _simulator().run(-5.0)

    def test_jobs_complete(self):
        simulator = _simulator()
        simulator.run(500.0)
        completed = simulator.completed_jobs()
        assert len(completed) > 300
        assert all(response >= 0.0 for _, response in completed)

    def test_busy_servers_never_exceed_operative(self):
        simulator = _simulator(seed=3)
        for horizon in np.linspace(10.0, 500.0, 25):
            simulator.run(float(horizon))
            assert simulator.num_busy_servers <= simulator.num_operative_servers

    def test_reproducible_with_same_seed(self):
        first = _simulator(seed=42)
        second = _simulator(seed=42)
        first.run(200.0)
        second.run(200.0)
        assert len(first.completed_jobs()) == len(second.completed_jobs())
        assert first.num_jobs_in_system == second.num_jobs_in_system

    def test_different_seeds_differ(self):
        first = _simulator(seed=1)
        second = _simulator(seed=2)
        first.run(200.0)
        second.run(200.0)
        assert first.completed_jobs() != second.completed_jobs()

    def test_deterministic_periods_supported(self):
        simulator = _simulator(
            operative=Deterministic(value=20.0),
            inoperative=Deterministic(value=1.0),
        )
        simulator.run(300.0)
        assert len(simulator.completed_jobs()) > 100

    def test_preempted_job_restarts_on_an_idle_server(self):
        """Work conservation holds after every breakdown, not only on arrivals:
        a job preempted by a breakdown moves at once to an idle operative
        server if there is one."""
        model = sun_fitted_model(3, 1.0, repair_rate=0.5)
        simulator = _BreakdownAudit(ScenarioModel.from_homogeneous(model), seed=1)
        simulator.run(200_000.0)
        assert simulator.breakdowns > 10_000
        assert simulator.violations == 0


class TestSimulateQueueEstimates:
    def test_mm1_mean_queue_length(self):
        """With a single never-failing server the simulator must reproduce M/M/1."""
        model = UnreliableQueueModel(
            num_servers=1,
            arrival_rate=0.7,
            service_rate=1.0,
            operative=Exponential(rate=1e-6),
            inoperative=Exponential(rate=1e3),
        )
        estimate = simulate_queue(model, horizon=200_000.0, seed=5, num_batches=20)
        expected = mm1_mean_queue_length(0.7, 1.0)
        assert estimate.mean_queue_length.estimate == pytest.approx(expected, rel=0.08)

    def test_mmc_response_time(self):
        model = UnreliableQueueModel(
            num_servers=3,
            arrival_rate=2.0,
            service_rate=1.0,
            operative=Exponential(rate=1e-6),
            inoperative=Exponential(rate=1e3),
        )
        estimate = simulate_queue(model, horizon=100_000.0, seed=7, num_batches=10)
        expected = mmc_metrics(3, 2.0, 1.0).mean_response_time
        assert estimate.mean_response_time.estimate == pytest.approx(expected, rel=0.08)

    def test_matches_spectral_solution_with_breakdowns(self, small_model):
        estimate = simulate_queue(small_model, horizon=150_000.0, seed=13, num_batches=20)
        exact = small_model.solve_spectral().mean_queue_length
        relative_error = abs(estimate.mean_queue_length.estimate - exact) / exact
        assert relative_error < 0.1

    def test_utilisation_reflects_flow_balance(self, small_model):
        estimate = simulate_queue(small_model, horizon=100_000.0, seed=17)
        # E[busy servers] = lambda / mu = 1; utilisation = 1 / N = 0.5.
        expected = small_model.arrival_rate / (
            small_model.service_rate * small_model.num_servers
        )
        assert estimate.utilisation == pytest.approx(expected, rel=0.08)

    def test_estimate_metadata(self, small_model):
        estimate = simulate_queue(
            small_model, horizon=20_000.0, warmup_fraction=0.2, num_batches=5, seed=1
        )
        assert estimate.horizon == pytest.approx(20_000.0)
        assert estimate.warmup_time == pytest.approx(4_000.0)
        assert estimate.num_completed_jobs > 0
        assert estimate.mean_queue_length.num_batches == 5

    def test_invalid_warmup_rejected(self, small_model):
        with pytest.raises(SimulationError):
            simulate_queue(small_model, horizon=100.0, warmup_fraction=1.0)

    def test_single_batch_rejected(self, small_model):
        with pytest.raises(SimulationError):
            simulate_queue(small_model, horizon=100.0, num_batches=1)

    def test_too_short_horizon_rejected(self, small_model):
        with pytest.raises(SimulationError):
            simulate_queue(small_model, horizon=0.5, num_batches=10)


class TestVariabilityEffect:
    def test_hyperexponential_periods_increase_queue(self):
        """Figure 6's message, checked by simulation: higher operative-period
        variability (same mean) yields a longer queue at high load."""
        base = dict(
            num_servers=3,
            arrival_rate=2.4,
            service_rate=1.0,
            inoperative=Exponential(rate=1.0),
        )
        exponential_model = UnreliableQueueModel(
            operative=Exponential(rate=1.0 / 30.0), **base
        )
        hyper_model = UnreliableQueueModel(
            operative=HyperExponential.from_mean_and_scv(30.0, 10.0), **base
        )
        exp_estimate = simulate_queue(exponential_model, horizon=150_000.0, seed=23)
        hyper_estimate = simulate_queue(hyper_model, horizon=150_000.0, seed=23)
        assert (
            hyper_estimate.mean_queue_length.estimate
            > exp_estimate.mean_queue_length.estimate
        )
