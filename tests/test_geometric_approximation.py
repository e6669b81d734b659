"""Unit tests for the geometric (heavy-load) approximation of Section 3.2."""

from __future__ import annotations

import numpy as np
import pytest
from eigen_expansion import (
    decay_rate_bisection,
    decay_rate_from_eigensystem,
    geometric_mode_vector,
    polynomial_matrices,
)

from repro.distributions import Exponential, HyperExponential
from repro.exceptions import SolverError, UnstableQueueError
from repro.queueing import UnreliableQueueModel
from repro.spectral import decay_rate, solve_geometric, solve_spectral


def _model(arrival_rate: float, num_servers: int = 3) -> UnreliableQueueModel:
    return UnreliableQueueModel(
        num_servers=num_servers,
        arrival_rate=arrival_rate,
        service_rate=1.0,
        operative=HyperExponential(weights=[0.7, 0.3], rates=[0.25, 0.02]),
        inoperative=Exponential(rate=4.0),
    )


class TestDecayRate:
    """``decay_rate`` finds ``z_s`` on one server; the oracle's two searches use all ``s`` modes."""

    def test_bisection_matches_full_eigensystem(self):
        model = _model(2.0)
        matrices = polynomial_matrices(model)
        bisected = decay_rate_bisection(matrices)
        assert decay_rate(model) == pytest.approx(bisected, abs=1e-9)
        assert bisected == pytest.approx(decay_rate_from_eigensystem(matrices), abs=1e-8)

    def test_decay_rate_matches_exact_solution(self):
        model = _model(2.2)
        exact = solve_spectral(model)
        approx = solve_geometric(model)
        assert approx.decay_rate == pytest.approx(exact.decay_rate, abs=1e-8)

    def test_decay_rate_increases_with_load(self):
        low = solve_geometric(_model(1.0)).decay_rate
        high = solve_geometric(_model(2.5)).decay_rate
        assert high > low

    def test_unstable_model_rejected(self):
        with pytest.raises((UnstableQueueError, SolverError)):
            solve_geometric(_model(10.0))

    def test_eigensystem_method_agrees(self):
        model = _model(2.0)
        matrices = polynomial_matrices(model)
        solution = solve_geometric(model)
        decay = decay_rate_from_eigensystem(matrices)
        assert solution.decay_rate == pytest.approx(decay, abs=1e-8)
        np.testing.assert_allclose(
            solution.mode_marginals(), geometric_mode_vector(matrices, decay), atol=1e-8
        )


class TestGeometricLaw:
    def test_pmf_is_geometric(self):
        solution = solve_geometric(_model(2.0))
        z = solution.decay_rate
        for level in range(6):
            assert solution.queue_length_pmf(level) == pytest.approx(
                (1 - z) * z**level
            )

    def test_pmf_sums_to_one(self):
        solution = solve_geometric(_model(2.0))
        total = sum(solution.queue_length_pmf(level) for level in range(2000))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_mean_queue_length_closed_form(self):
        solution = solve_geometric(_model(2.0))
        z = solution.decay_rate
        assert solution.mean_queue_length == pytest.approx(z / (1 - z))

    def test_tail_closed_form(self):
        solution = solve_geometric(_model(2.0))
        z = solution.decay_rate
        assert solution.queue_length_tail(4) == pytest.approx(z**5)

    def test_mode_marginals_normalised_and_nonnegative(self):
        solution = solve_geometric(_model(2.0))
        marginals = solution.mode_marginals()
        assert marginals.sum() == pytest.approx(1.0)
        assert np.all(marginals >= 0.0)

    def test_level_vector_consistent_with_pmf(self):
        solution = solve_geometric(_model(2.0))
        assert solution.level_vector(3).sum() == pytest.approx(
            solution.queue_length_pmf(3)
        )

    def test_mean_jobs_waiting_formula(self):
        solution = solve_geometric(_model(2.0, num_servers=3))
        z = solution.decay_rate
        assert solution.mean_jobs_waiting == pytest.approx(z**4 / (1 - z))

    def test_littles_law(self):
        model = _model(2.0)
        solution = solve_geometric(model)
        assert solution.mean_response_time == pytest.approx(
            solution.mean_queue_length / model.arrival_rate
        )


class TestAccuracyUnderLoad:
    def test_relative_error_shrinks_as_load_grows(self):
        """Paper Figure 8: the approximation becomes exact in heavy traffic."""
        errors = []
        for arrival_rate in (1.5, 2.5, 2.9):
            model = _model(arrival_rate)
            exact = solve_spectral(model).mean_queue_length
            approx = solve_geometric(model).mean_queue_length
            errors.append(abs(approx - exact) / exact)
        assert errors[-1] < errors[0]
        assert errors[-1] < 0.1

    def test_heavy_load_mode_marginals_close_to_exact(self):
        model = _model(2.58)  # capacity is ~2.62 operative servers
        exact = solve_spectral(model)
        approx = solve_geometric(model)
        np.testing.assert_allclose(
            approx.mode_marginals(), exact.mode_marginals(), atol=0.05
        )
