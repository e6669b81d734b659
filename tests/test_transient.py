"""Tests for the transient-analysis subsystem (:mod:`repro.transient`).

Covers the uniformization engine (matrix-exponential parity, checkpointed
multi-time evaluation, stationarity detection, input validation, and the
blocked sweep against the step-by-step loop of
``stepwise_uniformization.py``), the model-level solution and its derived
metrics, the two acceptance criteria of the subsystem — large-``t``
agreement with the steady-state CTMC solver to 1e-6 for the legacy model and
every scenario preset, and the analytical trajectory lying inside the
simulation ensemble's 95% intervals — plus first-passage analysis, the
``transient`` solver registry entry with its grid-aware cache keys, and the
sweep/CLI wiring hooks.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from stepwise_uniformization import transient_distributions_stepwise

from repro.distributions import Deterministic, Exponential
from repro.exceptions import ParameterError, UnstableQueueError
from repro.queueing import UnreliableQueueModel, sun_fitted_model
from repro.scenarios import preset_names, scenario_preset
from repro.solvers import SolutionCache, SolverPolicy, solve
from repro.transient import uniformization
from repro.transient.uniformization import poisson_truncation_point
from repro.transient import (
    first_passage_time,
    initial_distribution,
    simulate_transient,
    solve_transient,
    target_mask,
    transient_distributions,
    uniformization_rate,
    uniformized_matrix,
)

#: Time grid of the trajectory cross-validation tests (no zero: every point
#: is an interior point of the transient regime).
CROSS_VALIDATION_GRID = (1.0, 2.0, 5.0, 10.0, 20.0)


def _random_generator(size: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """A dense irreducible generator and a random initial distribution."""
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.0, 1.0, (size, size))
    np.fill_diagonal(rates, 0.0)
    generator = rates - np.diag(rates.sum(axis=1))
    return generator, rng.dirichlet(np.ones(size))


def _legacy_model() -> UnreliableQueueModel:
    """The paper's homogeneous model at a comfortable load."""
    return sun_fitted_model(num_servers=4, arrival_rate=2.2)


class TestUniformizationEngine:
    def test_matches_matrix_exponential(self):
        generator, initial = _random_generator(10)
        times = (0.0, 0.25, 1.0, 4.0, 16.0)
        result = transient_distributions(generator, initial, times)
        for index, t in enumerate(times):
            exact = initial @ scipy.linalg.expm(generator * t)
            assert result.distributions[index] == pytest.approx(exact, abs=1e-10)

    def test_one_pass_grid_equals_separate_evaluations(self):
        """Checkpointed multi-t evaluation returns what single passes return."""
        generator, initial = _random_generator(8, seed=3)
        times = (0.5, 2.0, 7.0)
        grid = transient_distributions(generator, initial, times)
        for index, t in enumerate(times):
            single = transient_distributions(generator, initial, (t,))
            assert grid.distributions[index] == pytest.approx(
                single.distributions[0], abs=1e-12
            )

    def test_subnormal_poisson_seed_window(self):
        """Regression: Lambda*t in ~(708, 745) makes exp(-Lambda*t) subnormal.

        A subnormal seed carries only a few significant bits; seeding the
        linear weight recurrence from it used to corrupt pi(t) by ~1e-2.
        Such times must stay in log space until the weights re-enter the
        normal range.
        """
        generator = np.array([[-14.88, 14.88], [7.0, -7.0]])
        initial = np.array([1.0, 0.0])
        times = (47.6, 50.0, 50.06)  # Lambda*t ~ 708.2, 744, 744.9
        result = transient_distributions(generator, initial, times)
        assert result.distributions.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-10)
        for index, t in enumerate(times):
            exact = initial @ scipy.linalg.expm(generator * t)
            assert result.distributions[index] == pytest.approx(exact, abs=1e-10)

    def test_rows_are_distributions(self):
        generator, initial = _random_generator(15, seed=5)
        result = transient_distributions(generator, initial, (0.1, 3.0, 50.0))
        assert result.distributions.min() >= 0.0
        assert result.distributions.sum(axis=1) == pytest.approx(
            np.ones(3), abs=1e-10
        )

    def test_stationarity_detection_reaches_steady_state(self):
        from repro.markov import steady_state_from_generator

        generator, initial = _random_generator(10, seed=7)
        stationary = steady_state_from_generator(generator)
        result = transient_distributions(generator, initial, (10_000.0,))
        assert result.stationary_step is not None
        assert result.steps < 10_000.0 * result.rate / 2
        assert result.distributions[0] == pytest.approx(stationary, abs=1e-9)

    def test_zero_generator_is_identity(self):
        initial = np.array([0.3, 0.7])
        result = transient_distributions(np.zeros((2, 2)), initial, (0.0, 5.0))
        assert result.rate == 0.0 and result.steps == 0
        assert result.distributions == pytest.approx(np.vstack([initial, initial]))

    @pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6, 1e-3])
    def test_truncation_point_equals_scipy_stats_poisson(self, tol):
        import scipy.stats

        for mean in np.geomspace(1e-6, 1e6, 97):
            point = poisson_truncation_point(float(mean), tol)
            expected = int(scipy.stats.poisson.isf(tol, mean))
            while scipy.stats.poisson.sf(expected, mean) > tol:
                expected += 1
            assert point == expected
            assert scipy.stats.poisson.sf(point, mean) <= tol
            assert point == 0 or scipy.stats.poisson.sf(point - 1, mean) > tol

    def test_uniformized_matrix_rejects_small_rate(self):
        generator, _ = _random_generator(4)
        with pytest.raises(ParameterError, match="below the largest exit rate"):
            uniformized_matrix(generator, rate=0.5 * uniformization_rate(generator))

    @pytest.mark.parametrize(
        ("times", "message"),
        [((), "at least one"), ((-1.0,), "non-negative"), ((math.inf,), "finite")],
    )
    def test_bad_times_rejected(self, times, message):
        generator, initial = _random_generator(4)
        with pytest.raises(ParameterError, match=message):
            transient_distributions(generator, initial, times)

    def test_bad_initial_rejected(self):
        generator, _ = _random_generator(4)
        with pytest.raises(ParameterError, match="shape"):
            transient_distributions(generator, np.ones(3) / 3, (1.0,))
        with pytest.raises(ParameterError, match="sum to one"):
            transient_distributions(generator, np.full(4, 0.5), (1.0,))


def _assert_same_sweep(generator, initial, times, **kwargs):
    """The blocked sweep takes the stepwise loop's steps and stops where it stops."""
    blocked = transient_distributions(generator, initial, times, **kwargs)
    stepwise = transient_distributions_stepwise(generator, initial, times, **kwargs)
    assert blocked.steps == stepwise.steps
    assert blocked.stationary_step == stepwise.stationary_step
    np.testing.assert_allclose(blocked.distributions, stepwise.distributions, rtol=0.0, atol=1e-13)
    return blocked


def _sparse_generator(size: int, seed: int, absorbing: int = 0):
    """A sparse random generator with rates over three decades; the last
    ``absorbing`` states have zero rows."""
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.0, 1.0, (size, size)) * (rng.random((size, size)) < 0.4)
    rates *= rng.choice([0.1, 1.0, 10.0], size=(size, 1))
    np.fill_diagonal(rates, 0.0)
    if absorbing:
        rates[-absorbing:] = 0.0
    generator = rates - np.diag(rates.sum(axis=1))
    initial = rng.dirichlet(np.ones(size))
    if absorbing:
        initial[-absorbing:] = 0.0
        initial /= initial.sum()
    return generator, initial


def _passage_chain(target: str, **kwargs):
    """The absorbing chain ``first_passage_time`` sweeps for a Sun-fitted N = 3 pool."""
    from repro.scenarios.ctmc import build_truncated_generator, default_truncation_level

    model = sun_fitted_model(num_servers=3, arrival_rate=1.6)
    level = default_truncation_level(model)
    generator = scipy.sparse.csr_matrix(build_truncated_generator(model, level))
    mask = target_mask(model, level + 1, target, **kwargs)
    absorbing = (scipy.sparse.diags((~mask).astype(float)) @ generator).tocsr()
    return absorbing, initial_distribution(model, level + 1, "empty-operative")


class TestBlockedSweepMatchesStepwiseOracle:
    """Blocking the sweep keeps every stopping step and the distributions."""

    @pytest.fixture(
        params=[1, 3, 256, 10**9], ids=["one-step", "three-steps", "default", "whole-horizon"]
    )
    def block_steps(self, request, monkeypatch):
        monkeypatch.setattr(uniformization, "_BLOCK_STEPS", request.param)
        return request.param

    @pytest.mark.parametrize("stationary_tol", [1e-13, 0.0, 1e-6])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_generators_and_grids(self, block_steps, seed, stationary_tol):
        rng = np.random.default_rng(100 + seed)
        generator, initial = _sparse_generator(int(rng.integers(3, 25)), seed, seed % 2)
        rate = uniformization_rate(generator)
        pool = np.array([0.0, 1e-3, 0.5, 2.0, 10.0, 60.0, 700 / rate, 2000 / rate])
        times = tuple(float(t) for t in rng.choice(pool, size=4, replace=False))
        _assert_same_sweep(generator, initial, times, stationary_tol=stationary_tol)

    def test_zero_time(self, block_steps):
        generator, initial = _sparse_generator(6, seed=1)
        result = _assert_same_sweep(generator, initial, (0.0,))
        assert result.steps == 0
        np.testing.assert_array_equal(result.distributions[0], initial)
        _assert_same_sweep(generator, initial, (0.0, 1e-3, 3.0))

    @pytest.mark.parametrize("stationary_tol", [1e-13, 0.0])
    def test_subnormal_seed_window(self, block_steps, stationary_tol):
        # Lambda*t ~ 708.2, 744, 744.9: the seeds are subnormal, so these
        # times start in log space and switch to the linear recurrence.
        generator = np.array([[-14.88, 14.88], [7.0, -7.0]])
        result = _assert_same_sweep(
            generator, np.array([1.0, 0.0]), (47.6, 50.0, 50.06), stationary_tol=stationary_tol
        )
        if stationary_tol == 0.0:
            assert result.steps > 745

    def test_times_finish_in_different_blocks(self, block_steps):
        generator, initial = _sparse_generator(12, seed=5)
        rate = uniformization_rate(generator)
        times = (1.0 / rate, 37.0 / rate, 300.0 / rate, 1200.0 / rate)
        result = _assert_same_sweep(generator, initial, times, stationary_tol=0.0)
        assert result.stationary_step is None
        assert result.steps > 1200

    def test_stationarity_found_inside_a_block(self, block_steps):
        generator, initial = _random_generator(10, seed=7)
        result = _assert_same_sweep(generator, initial, (10_000.0,))
        assert result.stationary_step is not None
        if block_steps in (3, 256):
            assert result.stationary_step % block_steps != 0

    def test_absorbing_chain(self, block_steps):
        generator, initial = _sparse_generator(15, seed=23, absorbing=2)
        result = _assert_same_sweep(generator, initial, (0.5, 5.0, 500.0))
        assert result.stationary_step is not None

    @pytest.mark.parametrize(
        ("target", "kwargs", "times"),
        [
            ("all-servers-down", {}, (10.0, 100.0)),
            ("queue-exceeds", {"queue_threshold": 8}, (1.0, 10.0, 100.0)),
        ],
        ids=["all-servers-down", "queue-exceeds"],
    )
    def test_first_passage_chains(self, target, kwargs, times):
        generator, initial = _passage_chain(target, **kwargs)
        _assert_same_sweep(generator, initial, times)


class TestTransientSolution:
    def test_initial_conditions_fix_the_start(self):
        model = _legacy_model()
        fresh = solve_transient(model, (0.0, 1.0))
        assert fresh.availability[0] == pytest.approx(1.0)
        assert fresh.probability_empty[0] == pytest.approx(1.0)
        assert fresh.mean_queue_length[0] == pytest.approx(0.0)
        down = solve_transient(model, (0.0, 1.0), initial="empty-inoperative")
        assert down.availability[0] == pytest.approx(0.0)
        assert down.probability_all_inoperative[0] == pytest.approx(1.0)
        # Repairs are fast (eta = 25): availability mostly recovers within t=1.
        assert down.availability[1] > 0.95

    def test_equilibrium_start_keeps_environment_stationary(self):
        model = _legacy_model()
        solution = solve_transient(model, (0.0, 3.0), initial="empty-equilibrium")
        expected = model.environment.availability
        assert solution.availability[0] == pytest.approx(expected, abs=1e-9)
        assert solution.availability[1] == pytest.approx(expected, abs=1e-9)

    def test_trajectories_are_consistent_distributions(self):
        model = _legacy_model()
        solution = solve_transient(model, CROSS_VALIDATION_GRID)
        assert solution.queue_tail_probability(0) == pytest.approx(
            np.ones(len(CROSS_VALIDATION_GRID))
        )
        complement = solution.probability_empty + solution.queue_tail_probability(1)
        assert complement == pytest.approx(np.ones(len(CROSS_VALIDATION_GRID)))
        # Tail probabilities decrease in the level, truncation mass is tiny.
        assert np.all(
            solution.queue_tail_probability(2) <= solution.queue_tail_probability(1)
        )
        assert solution.truncation_mass.max() < 1e-9
        beyond = solution.queue_tail_probability(solution.truncation_level + 1)
        assert beyond == pytest.approx(np.zeros(len(CROSS_VALIDATION_GRID)))

    def test_mean_queue_length_grows_from_empty_start(self):
        solution = solve_transient(_legacy_model(), CROSS_VALIDATION_GRID)
        lengths = solution.mean_queue_length
        assert np.all(np.diff(lengths) > 0.0) or lengths[-1] == pytest.approx(
            lengths[-2], rel=1e-3
        )

    def test_grid_is_sorted_and_deduplicated(self):
        solution = solve_transient(_legacy_model(), (5.0, 1.0, 5.0))
        assert solution.times == (1.0, 5.0)
        assert solution.index_of(5.0) == 1
        with pytest.raises(ParameterError, match="not on the evaluation grid"):
            solution.index_of(2.0)

    def test_export_rows_csv_json(self, tmp_path):
        import csv
        import json

        solution = solve_transient(_legacy_model(), (1.0, 5.0))
        rows = solution.to_rows()
        assert [row["time"] for row in rows] == [1.0, 5.0]
        assert rows[0]["availability"] == pytest.approx(solution.availability[0])
        path = solution.to_csv(tmp_path / "transient.csv")
        with path.open() as handle:
            read = list(csv.DictReader(handle))
        assert len(read) == 2 and float(read[1]["time"]) == 5.0
        payload = json.loads(solution.to_json(tmp_path / "transient.json"))
        assert payload["truncation_level"] == solution.truncation_level
        assert len(payload["rows"]) == 2

    def test_solution_reports_its_state_space(self, tmp_path):
        import json

        solution = solve_transient(_legacy_model(), (1.0,))
        expected = (solution.truncation_level + 1) * solution.num_modes
        assert solution.num_solved_states == expected
        payload = json.loads(solution.to_json(tmp_path / "transient.json"))
        assert payload["num_solved_states"] == expected
        assert "representation" not in payload

    def test_homogeneous_model_sweeps_its_single_group_scenario_chain(self):
        from repro.scenarios import ScenarioModel

        model = _legacy_model()
        scenario = ScenarioModel.from_homogeneous(model)
        direct = solve_transient(model, (1.0, 5.0))
        as_scenario = solve_transient(scenario, (1.0, 5.0))
        assert direct.truncation_level == as_scenario.truncation_level
        np.testing.assert_array_equal(direct.distribution_at(5.0), as_scenario.distribution_at(5.0))

    def test_unstable_model_rejected(self):
        with pytest.raises(UnstableQueueError):
            solve_transient(sun_fitted_model(num_servers=2, arrival_rate=50.0), (1.0,))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_times_rejected(self, bad):
        with pytest.raises(ParameterError, match="finite and non-negative"):
            solve_transient(sun_fitted_model(4, 2.0), [1.0, bad])

    def test_initial_distribution_accepts_vectors(self):
        model = _legacy_model()
        modes = model.environment.num_modes
        vector = np.zeros(modes)
        vector[0] = 1.0
        flat = initial_distribution(model, 5, vector)
        assert flat.shape == (5 * modes,) and flat[0] == 1.0 and flat.sum() == 1.0
        assert initial_distribution(model, 5, flat) == pytest.approx(flat)
        with pytest.raises(ParameterError, match="unknown initial condition"):
            initial_distribution(model, 5, "warm")
        with pytest.raises(ParameterError, match="shape"):
            initial_distribution(model, 5, np.ones(7))


class TestSteadyStateAgreement:
    """Acceptance: pi(t) at large t matches the steady-state CTMC solver."""

    def test_legacy_model_converges_to_ctmc_steady_state(self):
        model = _legacy_model()
        reference = model.solve_ctmc()
        solution = solve_transient(
            model, (400.0,), max_queue_length=reference.truncation_level
        )
        assert solution.mean_queue_length[-1] == pytest.approx(
            reference.mean_queue_length, abs=1e-6
        )
        pmf = solution.queue_length_pmf(400.0)
        stationary = np.array(
            [reference.queue_length_pmf(level) for level in range(pmf.size)]
        )
        assert np.abs(pmf - stationary).max() < 1e-6

    @pytest.mark.parametrize("name", preset_names())
    def test_every_preset_converges_to_ctmc_steady_state(self, name):
        scenario = scenario_preset(name)
        reference = scenario.solve_ctmc()
        solution = solve_transient(
            scenario, (400.0,), max_queue_length=reference.truncation_level
        )
        assert solution.mean_queue_length[-1] == pytest.approx(
            reference.mean_queue_length, abs=1e-6
        )
        pmf = solution.queue_length_pmf(400.0)
        stationary = np.array(
            [reference.queue_length_pmf(level) for level in range(pmf.size)]
        )
        assert np.abs(pmf - stationary).max() < 1e-6


class TestEnsembleCrossValidation:
    """Acceptance: the analytical trajectory lies inside the simulator's CIs."""

    @pytest.mark.parametrize("name", preset_names())
    def test_analytical_trajectory_inside_ensemble_intervals(self, name):
        scenario = scenario_preset(name)
        solution = solve_transient(scenario, CROSS_VALIDATION_GRID)
        ensemble = simulate_transient(
            scenario, CROSS_VALIDATION_GRID, num_replications=200, seed=2006
        )
        contained = [
            interval.contains(float(value))
            for interval, value in zip(
                ensemble.mean_queue_length, solution.mean_queue_length
            )
        ]
        # 95% intervals: an occasional miss is expected, three interior hits
        # are required (the acceptance criterion of the subsystem).
        assert sum(contained) >= 3, (name, contained)

    def test_ensemble_availability_tracks_analytical(self):
        scenario = scenario_preset("single-repairman")
        solution = solve_transient(scenario, CROSS_VALIDATION_GRID)
        ensemble = simulate_transient(
            scenario, CROSS_VALIDATION_GRID, num_replications=200, seed=11
        )
        estimated = np.array(ensemble.availability())
        assert estimated == pytest.approx(solution.availability, abs=0.05)
        assert ensemble.num_servers == scenario.num_servers
        assert ensemble.queue_length_samples.shape == (200, len(CROSS_VALIDATION_GRID))

    def test_ensemble_handles_non_phase_type_periods(self):
        model = UnreliableQueueModel(
            num_servers=2,
            arrival_rate=0.8,
            service_rate=1.0,
            operative=Deterministic(value=30.0),
            inoperative=Exponential(rate=5.0),
        )
        ensemble = simulate_transient(model, (1.0, 5.0), num_replications=20, seed=3)
        assert len(ensemble.mean_queue_length) == 2
        assert ensemble.mean_queue_length[1].estimate >= 0.0

    def test_replication_floor(self):
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError, match="two replications"):
            simulate_transient(_legacy_model(), (1.0,), num_replications=1)


class TestFirstPassage:
    def test_single_machine_breakdown_is_exponential(self):
        """N=1, exponential periods: T(all down) ~ Exp(xi) exactly."""
        rate = 0.5
        model = UnreliableQueueModel(
            num_servers=1,
            arrival_rate=0.1,
            service_rate=1.0,
            operative=Exponential(rate=rate),
            inoperative=Exponential(rate=2.0),
        )
        times = (0.5, 1.0, 2.0, 4.0)
        passage = first_passage_time(model, times, target="all-servers-down")
        expected = [1.0 - np.exp(-rate * t) for t in times]
        assert list(passage.cdf) == pytest.approx(expected, abs=1e-9)
        assert passage.mean == pytest.approx(1.0 / rate, rel=1e-9)

    def test_single_repairman_all_down_matches_birth_death_formula(self):
        """The environment is queue-independent: hand-computed hitting time.

        3 servers, xi = 0.2, eta = 1, R = 1: breakdown rates (3, 2, 1) * xi,
        repair rate 1 from every broken count.  The standard birth-death
        ladder gives E[T(0 -> 3)] = h0 + h1 + h2 = 5/3 + 20/3 + 115/3 = 140/3.
        """
        passage = first_passage_time(
            scenario_preset("single-repairman"),
            (50.0,),
            target="all-servers-down",
        )
        assert passage.mean == pytest.approx(140.0 / 3.0, rel=1e-9)

    def test_queue_exceeds_cdf_monotone_and_threshold_ordered(self):
        model = sun_fitted_model(num_servers=3, arrival_rate=2.0)
        times = (2.0, 5.0, 10.0, 25.0)
        lower = first_passage_time(
            model, times, target="queue-exceeds", queue_threshold=4
        )
        higher = first_passage_time(
            model, times, target="queue-exceeds", queue_threshold=8
        )
        assert list(lower.cdf) == sorted(lower.cdf)
        assert all(0.0 <= value <= 1.0 for value in lower.cdf)
        # A higher backlog threshold is hit later, stochastically and in mean.
        assert all(h <= low for h, low in zip(higher.cdf, lower.cdf))
        assert higher.mean > lower.mean > 0.0
        assert lower.survival() == pytest.approx(
            tuple(1.0 - value for value in lower.cdf)
        )

    def test_target_validation(self):
        model = _legacy_model()
        with pytest.raises(ParameterError, match="unknown first-passage target"):
            first_passage_time(model, (1.0,), target="meltdown")
        with pytest.raises(ParameterError, match="queue_threshold"):
            first_passage_time(model, (1.0,), target="queue-exceeds")
        with pytest.raises(ParameterError, match="truncation"):
            first_passage_time(
                model, (1.0,), target="queue-exceeds", queue_threshold=10**6
            )
        num_levels = 8
        with pytest.raises(ParameterError, match="shape"):
            target_mask(model, num_levels, np.zeros(3, dtype=bool))
        size = num_levels * model.environment.num_modes
        with pytest.raises(ParameterError, match="empty"):
            target_mask(model, num_levels, np.zeros(size, dtype=bool))
        with pytest.raises(ParameterError, match="every state"):
            target_mask(model, num_levels, np.ones(size, dtype=bool))

    def test_explicit_mask_equals_named_target(self):
        model = _legacy_model()
        level = model.num_servers + 40
        num_levels = level + 1
        named = first_passage_time(
            model,
            (5.0, 20.0),
            target="all-servers-down",
            max_queue_length=level,
        )
        counts = np.asarray(model.environment.operative_counts)
        mask = np.tile(counts == 0.0, num_levels)
        explicit = first_passage_time(
            model, (5.0, 20.0), target=mask, max_queue_length=level
        )
        assert list(explicit.cdf) == pytest.approx(list(named.cdf), abs=1e-12)
        assert explicit.mean == pytest.approx(named.mean)
        assert explicit.target == "custom" and named.num_target_states == mask.sum()


class TestTransientSolverBackend:
    def test_policy_grid_drives_the_backend(self):
        model = _legacy_model()
        policy = SolverPolicy(order=("transient",), transient_times=(2.0, 10.0))
        outcome = solve(model, policy, cache=False)
        assert outcome.solver == "transient"
        assert outcome.metrics["evaluation_time"] == 10.0
        reference = solve_transient(model, (2.0, 10.0))
        assert outcome.metrics["mean_queue_length"] == pytest.approx(
            float(reference.mean_queue_length[-1])
        )
        assert outcome.metrics["availability"] == pytest.approx(
            float(reference.availability[-1])
        )
        assert "mean_response_time" not in outcome.metrics

    def test_cache_keys_fold_in_the_time_grid(self):
        model = _legacy_model()
        cache = SolutionCache()
        short = SolverPolicy(order=("transient",), transient_times=(2.0,))
        long = SolverPolicy(order=("transient",), transient_times=(40.0,))
        first = solve(model, short, cache=cache)
        again = solve(model, short, cache=cache)
        other = solve(model, long, cache=cache)
        stats = cache.stats()
        assert stats["solves"] == 2 and stats["hits"] == 1 and stats["size"] == 2
        assert first == again
        assert other.metrics["evaluation_time"] == 40.0
        assert other.metrics["mean_queue_length"] > first.metrics["mean_queue_length"]

    def test_non_markovian_model_falls_through(self):
        model = UnreliableQueueModel(
            num_servers=2,
            arrival_rate=0.5,
            service_rate=1.0,
            operative=Deterministic(value=30.0),
            inoperative=Exponential(rate=5.0),
        )
        policy = SolverPolicy(
            order=("transient", "simulate"), simulate_horizon=2_000.0
        )
        outcome = solve(model, policy, cache=False)
        assert outcome.solver == "simulate"

    def test_policy_rejects_negative_times(self):
        with pytest.raises(ParameterError, match="non-negative"):
            SolverPolicy(order=("transient",), transient_times=(-1.0,))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_policy_rejects_non_finite_times(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            SolverPolicy(order=("transient",), transient_times=(bad,))

    def test_with_transient_times_helper(self):
        policy = SolverPolicy().with_transient_times(1.0, 5.0)
        assert policy.transient_times == (1.0, 5.0)
