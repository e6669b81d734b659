"""Unit and consistency tests for the exact spectral-expansion solution."""

from __future__ import annotations

import numpy as np
import pytest
from eigen_expansion import normalisation_error

from repro.distributions import Exponential, HyperExponential
from repro.exceptions import UnstableQueueError
from repro.queueing import UnreliableQueueModel, mm1_queue_length_pmf, mmc_metrics
from repro.spectral import solve_spectral


class TestBasicProperties:
    def test_distribution_normalised(self, small_model):
        solution = solve_spectral(small_model)
        assert normalisation_error(solution) < 1e-9

    def test_pmf_values_nonnegative(self, small_model):
        solution = solve_spectral(small_model)
        for level in range(60):
            assert solution.queue_length_pmf(level) >= 0.0

    def test_pmf_sums_to_one(self, small_model):
        solution = solve_spectral(small_model)
        total = sum(solution.queue_length_pmf(level) for level in range(400))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_pmf_negative_level_is_zero(self, small_model):
        assert solve_spectral(small_model).queue_length_pmf(-1) == 0.0

    def test_number_of_eigenvalues(self, small_model):
        solution = solve_spectral(small_model)
        assert solution.eigenvalues.size == small_model.num_modes

    def test_decay_rate_in_unit_interval(self, small_model):
        solution = solve_spectral(small_model)
        assert 0.0 < solution.decay_rate < 1.0

    def test_boundary_vectors_shape(self, small_model):
        solution = solve_spectral(small_model)
        assert solution.boundary_vectors.shape == (
            small_model.num_servers,
            small_model.num_modes,
        )

    def test_level_vector_sums_to_pmf(self, small_model):
        solution = solve_spectral(small_model)
        for level in (0, 1, 2, 5, 11):
            assert solution.level_vector(level).sum() == pytest.approx(
                solution.queue_length_pmf(level), abs=1e-12
            )

    def test_unstable_model_rejected(self, small_model):
        overloaded = small_model.with_arrival_rate(50.0)
        with pytest.raises(UnstableQueueError):
            solve_spectral(overloaded)

    def test_repr_contains_queue_length(self, small_model):
        text = repr(solve_spectral(small_model))
        assert "SpectralSolution" in text


class TestFlowBalanceAndMarginals:
    def test_throughput_equals_arrival_rate(self, small_model):
        """Flow balance: mu * E[busy servers] = lambda for a stable queue."""
        solution = solve_spectral(small_model)
        assert solution.throughput == pytest.approx(small_model.arrival_rate, rel=1e-8)

    def test_throughput_medium_model(self, medium_model):
        solution = solve_spectral(medium_model)
        assert solution.throughput == pytest.approx(medium_model.arrival_rate, rel=1e-8)

    def test_mode_marginals_match_environment_steady_state(self, small_model):
        """Summing v_j over j gives the marginal law of the environment, which is
        independent of the queue (the environment evolves autonomously)."""
        solution = solve_spectral(small_model)
        np.testing.assert_allclose(
            solution.mode_marginals(),
            small_model.environment.steady_state,
            atol=1e-8,
        )

    def test_mean_jobs_decomposition(self, small_model):
        solution = solve_spectral(small_model)
        assert solution.mean_queue_length == pytest.approx(
            solution.mean_jobs_in_service + solution.mean_jobs_waiting, rel=1e-10
        )

    def test_littles_law(self, small_model):
        solution = solve_spectral(small_model)
        assert solution.mean_response_time == pytest.approx(
            solution.mean_queue_length / small_model.arrival_rate
        )

    def test_mean_queue_length_matches_pmf_summation(self, small_model):
        solution = solve_spectral(small_model)
        direct = sum(level * solution.queue_length_pmf(level) for level in range(500))
        assert solution.mean_queue_length == pytest.approx(direct, rel=1e-9)

    def test_tail_matches_pmf_summation(self, small_model):
        solution = solve_spectral(small_model)
        for threshold in (0, 1, 3, 7):
            direct = sum(
                solution.queue_length_pmf(level) for level in range(threshold + 1, 500)
            )
            assert solution.queue_length_tail(threshold) == pytest.approx(direct, abs=1e-9)

    def test_probability_delay_bounds(self, small_model):
        solution = solve_spectral(small_model)
        assert 0.0 <= solution.probability_delay <= 1.0
        # Delay probability is at least the probability that >= N jobs are present.
        assert solution.probability_delay >= solution.queue_length_tail(
            small_model.num_servers - 1
        ) - 1e-12

    def test_summary_consistent(self, small_model):
        solution = solve_spectral(small_model)
        summary = solution.summary()
        assert summary.mean_jobs == pytest.approx(solution.mean_queue_length)
        assert summary.probability_empty == pytest.approx(solution.queue_length_pmf(0))

    def test_total_cost_formula(self, small_model):
        solution = solve_spectral(small_model)
        assert solution.total_cost(4.0, 1.0) == pytest.approx(
            4.0 * solution.mean_queue_length + 1.0 * small_model.num_servers
        )


class TestReductionToClassicalQueues:
    def test_reduces_to_mm1_with_reliable_server(self):
        """With breakdowns vanishingly rare the model collapses to M/M/1."""
        model = UnreliableQueueModel(
            num_servers=1,
            arrival_rate=0.6,
            service_rate=1.0,
            operative=Exponential(rate=1e-8),   # essentially never breaks
            inoperative=Exponential(rate=1e3),  # and repairs instantly if it does
        )
        solution = solve_spectral(model)
        for level in range(10):
            assert solution.queue_length_pmf(level) == pytest.approx(
                mm1_queue_length_pmf(0.6, 1.0, level), abs=1e-5
            )

    def test_reduces_to_mmc_with_reliable_servers(self):
        model = UnreliableQueueModel(
            num_servers=3,
            arrival_rate=2.0,
            service_rate=1.0,
            operative=Exponential(rate=1e-8),
            inoperative=Exponential(rate=1e3),
        )
        solution = solve_spectral(model)
        reference = mmc_metrics(3, 2.0, 1.0)
        assert solution.mean_queue_length == pytest.approx(
            reference.mean_queue_length, rel=1e-4
        )
        assert solution.mean_response_time == pytest.approx(
            reference.mean_response_time, rel=1e-4
        )

    def test_single_unreliable_server_exponential_periods(self):
        """Cross-check the smallest non-trivial breakdown model (N=1, n=m=1)
        against the truncated-CTMC reference solver."""
        model = UnreliableQueueModel(
            num_servers=1,
            arrival_rate=0.4,
            service_rate=1.0,
            operative=Exponential(rate=0.1),
            inoperative=Exponential(rate=1.0),
        )
        spectral = solve_spectral(model)
        reference = model.solve_ctmc(2000)
        assert spectral.mean_queue_length == pytest.approx(
            reference.mean_queue_length, rel=1e-6
        )


class TestAgainstTruncatedCTMC:
    @pytest.mark.parametrize(
        "num_servers, arrival_rate",
        [(2, 1.0), (3, 2.0), (4, 2.5)],
    )
    def test_queue_length_distribution_matches(self, num_servers, arrival_rate):
        model = UnreliableQueueModel(
            num_servers=num_servers,
            arrival_rate=arrival_rate,
            service_rate=1.0,
            operative=HyperExponential(weights=[0.7, 0.3], rates=[0.25, 0.02]),
            inoperative=Exponential(rate=4.0),
        )
        spectral = solve_spectral(model)
        reference = model.solve_ctmc()
        assert reference.truncation_mass() < 1e-8
        assert spectral.mean_queue_length == pytest.approx(
            reference.mean_queue_length, rel=1e-6
        )
        for level in range(0, 20, 3):
            assert spectral.queue_length_pmf(level) == pytest.approx(
                reference.queue_length_pmf(level), abs=1e-8
            )

    def test_hyperexponential_repairs_match(self):
        """Both periods hyperexponential (n = m = 2)."""
        model = UnreliableQueueModel(
            num_servers=2,
            arrival_rate=0.8,
            service_rate=1.0,
            operative=HyperExponential(weights=[0.7, 0.3], rates=[0.3, 0.03]),
            inoperative=HyperExponential(weights=[0.9, 0.1], rates=[5.0, 0.5]),
        )
        spectral = solve_spectral(model)
        reference = model.solve_ctmc()
        assert spectral.mean_queue_length == pytest.approx(
            reference.mean_queue_length, rel=1e-6
        )
        np.testing.assert_allclose(
            spectral.mode_marginals(), reference.mode_marginals(), atol=1e-7
        )
