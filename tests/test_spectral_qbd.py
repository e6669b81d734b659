"""Unit tests for the QBD matrices and the characteristic polynomial (Section 3.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import Exponential, HyperExponential
from repro.queueing import UnreliableQueueModel
from repro.spectral import ModulatedQueueMatrices


@pytest.fixture
def example_matrices() -> ModulatedQueueMatrices:
    operative = HyperExponential(weights=[0.6, 0.4], rates=[0.5, 0.05])
    model = UnreliableQueueModel(2, 1.2, 1.0, operative, Exponential(rate=2.0))
    return ModulatedQueueMatrices(model)


class TestMatrices:
    def test_arrival_matrix_is_lambda_identity(self, example_matrices):
        """Paper Section 3.1 (b): B = lambda I because arrivals keep the mode."""
        np.testing.assert_allclose(
            example_matrices.arrival_matrix, 1.2 * np.eye(6)
        )

    def test_service_matrix_level_zero_is_zero(self, example_matrices):
        """C_0 = 0 by definition."""
        np.testing.assert_allclose(example_matrices.service_matrix(0), np.zeros((6, 6)))

    def test_service_matrix_structure_at_level_one(self, example_matrices):
        """mu_{i,1} = min(x_i, 1) mu: one busy server in every mode with x_i >= 1."""
        expected = np.diag([0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(example_matrices.service_matrix(1), expected)

    def test_service_matrix_saturates_at_num_servers(self, example_matrices):
        """C_j = C for j >= N (paper: the index j may be dropped)."""
        reference = example_matrices.service_matrix(2)
        np.testing.assert_allclose(example_matrices.service_matrix(5), reference)
        np.testing.assert_allclose(example_matrices.repeating_service_matrix, reference)

    def test_repeating_service_matrix_counts_operative_servers(self, example_matrices):
        expected = np.diag([0.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        np.testing.assert_allclose(example_matrices.repeating_service_matrix, expected)

    def test_level_generator_row_sums_vanish(self, example_matrices):
        """At every level the full generator restricted to that level has zero row sums
        once arrivals and departures are added back — i.e. rates are conserved."""
        for level in range(5):
            np.testing.assert_allclose(
                example_matrices.level_generator_row_sums(level), 0.0, atol=1e-12
            )

    def test_local_balance_matrix_diagonal_negative(self, example_matrices):
        local = example_matrices.local_balance_matrix(3)
        assert np.all(np.diag(local) < 0.0)


class TestCharacteristicPolynomial:
    def test_q0_is_arrival_matrix(self, example_matrices):
        np.testing.assert_allclose(example_matrices.q0, example_matrices.arrival_matrix)

    def test_q2_is_repeating_service_matrix(self, example_matrices):
        np.testing.assert_allclose(
            example_matrices.q2, example_matrices.repeating_service_matrix
        )

    def test_q1_definition(self, example_matrices):
        expected = (
            example_matrices.mode_transition_matrix
            - example_matrices.mode_row_sums
            - example_matrices.arrival_matrix
            - example_matrices.repeating_service_matrix
        )
        np.testing.assert_allclose(example_matrices.q1, expected)

    def test_polynomial_at_one_is_environment_generator(self, example_matrices):
        """Q(1) = Q0 + Q1 + Q2 = A - D^A, the generator of the environment."""
        environment_generator = (
            example_matrices.mode_transition_matrix - example_matrices.mode_row_sums
        )
        np.testing.assert_allclose(
            example_matrices.characteristic_polynomial(1.0), environment_generator, atol=1e-12
        )

    def test_polynomial_at_zero_is_q0(self, example_matrices):
        np.testing.assert_allclose(
            example_matrices.characteristic_polynomial(0.0), example_matrices.q0
        )

    def test_polynomial_is_quadratic(self, example_matrices):
        z = 0.37
        expected = (
            example_matrices.q0 + z * example_matrices.q1 + z * z * example_matrices.q2
        )
        np.testing.assert_allclose(
            example_matrices.characteristic_polynomial(z), expected
        )

    def test_off_diagonal_entries_nonnegative_inside_unit_interval(self, example_matrices):
        """Q(z) is an ML-matrix for z in (0, 1]: non-negative off-diagonal entries.

        This is the structural property the decay-rate bisection relies on.
        """
        for z in (0.1, 0.5, 0.9, 1.0):
            matrix = example_matrices.characteristic_polynomial(z)
            off_diagonal = matrix - np.diag(np.diag(matrix))
            assert np.all(off_diagonal >= -1e-12)
