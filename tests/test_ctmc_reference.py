"""Unit tests for the truncated-CTMC reference solver on the paper's model.

The homogeneous pool is solved as its ``K = 1, R = N`` scenario chain; these
tests pin the homogeneous cases of :mod:`repro.scenarios.ctmc`, including the
single truncation-level rule and its growth counter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import Exponential, HyperExponential
from repro.exceptions import SolverError, UnstableQueueError
from repro.obs import numerics_registry
from repro.queueing import UnreliableQueueModel, mm1_queue_length_pmf, sun_fitted_model
from repro.scenarios import ScenarioModel, ServerGroup, solve_scenario_ctmc
from repro.scenarios.ctmc import build_truncated_generator, default_truncation_level



class TestGeneratorConstruction:
    def test_generator_rows_sum_to_zero(self, small_model):
        generator = build_truncated_generator(small_model, max_queue_length=20)
        row_sums = np.asarray(generator.sum(axis=1)).ravel()
        np.testing.assert_allclose(row_sums, 0.0, atol=1e-10)

    def test_generator_shape(self, small_model):
        generator = build_truncated_generator(small_model, max_queue_length=20)
        expected = 21 * small_model.num_modes
        assert generator.shape == (expected, expected)

    def test_off_diagonal_nonnegative(self, small_model):
        generator = build_truncated_generator(small_model, max_queue_length=10).toarray()
        off_diagonal = generator - np.diag(np.diag(generator))
        assert np.all(off_diagonal >= 0.0)

    def test_invalid_truncation_rejected(self, small_model):
        with pytest.raises(Exception):
            build_truncated_generator(small_model, max_queue_length=0)


class TestSolution:
    def test_distribution_normalised(self, small_model):
        solution = solve_scenario_ctmc(small_model)
        total = sum(
            solution.queue_length_pmf(level)
            for level in range(solution.truncation_level + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_truncation_mass_is_small(self, small_model):
        solution = solve_scenario_ctmc(small_model)
        assert solution.truncation_mass() < 1e-8

    def test_mm1_special_case(self):
        model = UnreliableQueueModel(
            num_servers=1,
            arrival_rate=0.5,
            service_rate=1.0,
            operative=Exponential(rate=1e-9),
            inoperative=Exponential(rate=1e3),
        )
        solution = solve_scenario_ctmc(model, max_queue_length=200)
        for level in range(8):
            assert solution.queue_length_pmf(level) == pytest.approx(
                mm1_queue_length_pmf(0.5, 1.0, level), abs=1e-6
            )

    def test_throughput_flow_balance(self, medium_model):
        solution = solve_scenario_ctmc(medium_model)
        busy = solution.mean_jobs_in_service
        assert busy * medium_model.service_rate == pytest.approx(
            medium_model.arrival_rate, rel=1e-6
        )

    def test_mode_marginals_match_environment(self, small_model):
        solution = solve_scenario_ctmc(small_model)
        np.testing.assert_allclose(
            solution.mode_marginals(), small_model.environment.steady_state, atol=1e-8
        )

    def test_unstable_model_rejected(self, small_model):
        with pytest.raises(UnstableQueueError):
            solve_scenario_ctmc(small_model.with_arrival_rate(100.0))

    def test_truncation_below_servers_rejected(self, small_model):
        with pytest.raises(SolverError):
            solve_scenario_ctmc(small_model, max_queue_length=1)

    def test_levels_beyond_truncation_have_zero_probability(self, small_model):
        solution = solve_scenario_ctmc(small_model, max_queue_length=30)
        assert solution.queue_length_pmf(31) == 0.0
        assert solution.queue_length_pmf(-1) == 0.0

    def test_default_truncation_level_scales_with_load(self):
        lightly_loaded = UnreliableQueueModel(
            num_servers=4,
            arrival_rate=1.0,
            service_rate=1.0,
            operative=HyperExponential(weights=[0.7, 0.3], rates=[0.2, 0.02]),
            inoperative=Exponential(rate=5.0),
        )
        heavily_loaded = lightly_loaded.with_arrival_rate(3.7)
        assert default_truncation_level(heavily_loaded) > default_truncation_level(
            lightly_loaded
        )

    def test_level_vector_shape(self, small_model):
        solution = solve_scenario_ctmc(small_model, max_queue_length=25)
        assert solution.level_vector(3).size == small_model.num_modes
        assert solution.level_vector(1000).sum() == 0.0


def _growths() -> float:
    """The current value of the truncation-growth counter."""
    for line in numerics_registry().render().splitlines():
        if line.startswith("repro_ctmc_truncation_growths_total "):
            return float(line.split()[-1])
    return 0.0


class TestTruncationLoop:
    """One seed rule and one adaptive loop serve every chain."""

    def test_homogeneous_pool_is_seeded_from_the_decay_rate(self):
        # z_s puts the level at 357 at once; the effective load (0.80) would
        # seed 10 + 104 = 114 and grow twice, to 426.
        model = sun_fitted_model(10, 7.0, repair_rate=0.2)
        before = _growths()
        solution = model.solve_ctmc()
        assert default_truncation_level(model) == 357
        assert solution.truncation_level == 357
        assert _growths() == before
        assert solution.truncation_mass() < 1e-10

    def test_single_group_unlimited_crew_scenario_uses_the_same_seed(self):
        model = sun_fitted_model(10, 7.0, repair_rate=0.2)
        scenario = ScenarioModel.from_homogeneous(model)
        assert default_truncation_level(scenario) == default_truncation_level(model)

    def test_scenario_growths_are_counted(self):
        # A limited crew has no spectral decay rate: the load seed (104)
        # is too small and the level doubles twice, to 404.
        scenario = ScenarioModel.from_homogeneous(
            sun_fitted_model(4, 2.0, repair_rate=0.1), repair_capacity=3
        )
        seed = default_truncation_level(scenario)
        before = _growths()
        solution = scenario.solve_ctmc()
        extra = solution.truncation_level - scenario.num_servers
        resolves = int(np.log2(extra / (seed - scenario.num_servers)))
        assert (seed, solution.truncation_level, resolves) == (104, 404, 2)
        assert _growths() - before == resolves

    def test_homogeneous_solution_reports_the_scenario_metrics(self, small_model):
        solution = solve_scenario_ctmc(small_model)
        assert solution.model is small_model
        assert solution.utilisation == pytest.approx(
            small_model.arrival_rate / small_model.service_rate / small_model.num_servers,
            rel=1e-6,
        )
        assert solution.throughput == pytest.approx(small_model.arrival_rate, rel=1e-6)
        assert solution.num_solved_states == (solution.truncation_level + 1) * small_model.num_modes

    def test_service_rate_enters_the_departures(self):
        group = ServerGroup(
            "servers",
            3,
            1.3,
            HyperExponential(weights=[0.6, 0.4], rates=[0.2, 0.02]),
            Exponential(rate=2.0),
        )
        scenario = ScenarioModel(groups=(group,), arrival_rate=1.5)
        model = scenario.as_homogeneous()
        np.testing.assert_array_equal(
            build_truncated_generator(model, 12).toarray(),
            build_truncated_generator(scenario, 12).toarray(),
        )
