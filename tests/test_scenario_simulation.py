"""Tests of the scenario simulator: dispatch, migration, crew contention.

The structural tests drive the simulator event by event and check the
fastest-server-first invariant and the repair-crew sharing factor directly;
the statistical tests are the scenario library's acceptance gate — for every
named preset the truncated-CTMC mean queue length must lie within the
simulation's confidence interval.
"""

from __future__ import annotations

import gc

import pytest

from repro.distributions import Exponential
from repro.exceptions import SimulationError
from repro.extensions import simulated_response_time_distribution
from repro.queueing import sun_fitted_model
from repro.scenarios import ScenarioModel, ServerGroup, preset_names, scenario_preset
from repro.simulation import ScenarioSimulator, simulate_scenario
from repro.transient import simulate_transient


def _two_speed(repair_capacity=None, arrival_rate=1.2) -> ScenarioModel:
    return ScenarioModel(
        groups=(
            ServerGroup("fast", 2, 2.0, Exponential(rate=0.05), Exponential(rate=4.0)),
            ServerGroup("slow", 2, 0.5, Exponential(rate=0.05), Exponential(rate=4.0)),
        ),
        arrival_rate=arrival_rate,
        repair_capacity=repair_capacity,
    )


class TestSimulatorStructure:
    def test_initial_state(self):
        simulator = ScenarioSimulator(_two_speed())
        assert simulator.num_operative_servers == 4
        assert simulator.num_busy_servers == 0
        assert simulator.num_broken_servers == 0
        assert simulator.repair_share == 1.0

    def test_rejects_bad_horizon(self):
        with pytest.raises(SimulationError):
            ScenarioSimulator(_two_speed()).run(-1.0)

    def test_fastest_server_first_invariant(self):
        """At every event, no idle operative server is faster than a busy one."""
        simulator = ScenarioSimulator(_two_speed(arrival_rate=2.0), seed=11)
        simulator.run(200.0)
        for _ in range(3):
            simulator.run(simulator.now + 200.0)
            busy = simulator.busy_rates()
            idle = simulator.idle_operative_rates()
            if busy and idle:
                assert max(idle) <= min(busy)

    def test_crew_share_tracks_broken_count(self):
        scenario = _two_speed(repair_capacity=1)
        simulator = ScenarioSimulator(scenario, seed=3)
        simulator.run(500.0)
        for _ in range(20):
            simulator.run(simulator.now + 50.0)
            broken = simulator.num_broken_servers
            expected = 1.0 if broken <= 1 else 1.0 / broken
            assert simulator.repair_share == pytest.approx(expected)

    def test_unlimited_crew_share_is_one(self):
        simulator = ScenarioSimulator(_two_speed(), seed=3)
        simulator.run(1_000.0)
        assert simulator.repair_share == 1.0

    def test_jobs_and_busy_counts_consistent(self):
        simulator = ScenarioSimulator(_two_speed(arrival_rate=2.5), seed=5)
        simulator.run(1_000.0)
        assert simulator.num_busy_servers <= simulator.num_jobs_in_system
        assert simulator.num_busy_servers <= simulator.num_operative_servers
        assert simulator.num_jobs_in_system >= 0


class TestSimulateScenario:
    def test_estimate_fields(self):
        estimate = simulate_scenario(_two_speed(), horizon=2_000.0, seed=1, num_batches=5)
        assert estimate.mean_queue_length.estimate > 0.0
        assert estimate.mean_response_time.estimate > 0.0
        assert 0.0 < estimate.utilisation < 1.0
        assert estimate.num_completed_jobs > 0
        assert estimate.horizon == 2_000.0

    def test_parameter_validation(self):
        scenario = _two_speed()
        with pytest.raises(SimulationError):
            simulate_scenario(scenario, horizon=1_000.0, warmup_fraction=1.5)
        with pytest.raises(SimulationError):
            simulate_scenario(scenario, horizon=1_000.0, num_batches=1)

    def test_deterministic_in_seed(self):
        scenario = _two_speed()
        first = simulate_scenario(scenario, horizon=1_000.0, seed=42, num_batches=5)
        second = simulate_scenario(scenario, horizon=1_000.0, seed=42, num_batches=5)
        assert first.mean_queue_length.estimate == second.mean_queue_length.estimate

    def test_limited_crew_increases_queue(self):
        base = simulate_scenario(_two_speed(), horizon=30_000.0, seed=7)
        starved = simulate_scenario(
            _two_speed(repair_capacity=1), horizon=30_000.0, seed=7
        )
        assert starved.mean_queue_length.estimate > base.mean_queue_length.estimate


def _cyclic_garbage_left_by(run) -> int:
    """Objects only the cyclic collector frees after ``run()``, with it off meanwhile."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


class TestSimulatorMemory:
    """A finished run frees its event graph by reference counting alone."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda: simulate_scenario(
                scenario_preset("repair-starved-two-speed"), horizon=2000, seed=0
            ),
            lambda: simulated_response_time_distribution(
                sun_fitted_model(3, 1.5), horizon=5000, seed=0
            ),
            lambda: simulate_transient(
                sun_fitted_model(3, 1.5), [1.0, 5.0, 10.0], num_replications=20, seed=0
            ),
        ],
        ids=["simulate_scenario", "response_time_distribution", "simulate_transient"],
    )
    def test_entry_points_leave_no_reference_cycle(self, run):
        run()  # settle first-use caches and imports
        assert _cyclic_garbage_left_by(run) == 0

    def test_close_keeps_the_statistics_and_ends_the_run(self):
        simulator = ScenarioSimulator(_two_speed(), seed=3)
        simulator.run(500.0)
        completed = simulator.completed_jobs()
        average = simulator.time_average_jobs(100.0, 500.0)
        simulator.close()
        assert simulator.completed_jobs() == completed
        assert simulator.time_average_jobs(100.0, 500.0) == average
        with pytest.raises(SimulationError, match="closed"):
            simulator.run(600.0)


class TestPresetCrossValidation:
    """Acceptance gate: every named preset passes CTMC-vs-simulation validation."""

    @pytest.mark.parametrize("name", preset_names())
    def test_ctmc_within_simulation_confidence_interval(self, name):
        scenario = scenario_preset(name)
        solution = scenario.solve_ctmc()
        estimate = scenario.simulate(horizon=60_000.0, seed=2006)
        interval = estimate.mean_queue_length
        # Batch-means CIs on a single run are approximate; allow three
        # half-widths (~99.7% under the CI's own normality assumption).
        assert abs(solution.mean_queue_length - interval.estimate) <= (
            3.0 * interval.half_width + 1e-6
        ), (
            f"{name}: CTMC L={solution.mean_queue_length:.4f} outside "
            f"simulation {interval.estimate:.4f} +- {interval.half_width:.4f}"
        )
        assert solution.utilisation == pytest.approx(estimate.utilisation, abs=0.02)
