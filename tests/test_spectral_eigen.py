"""Unit tests for the quadratic eigenvalue machinery (paper Eq. 15–18).

The eigen path is the test oracle in ``eigen_expansion.py``: the solver
computes the rate matrix ``R`` instead, and ``test_spectral_boundary.py``
pins it against this path.
"""

from __future__ import annotations

import numpy as np
import pytest
from eigen_expansion import (
    characteristic_polynomial,
    eigenvalues_inside_unit_disk,
    perron_left_null_vector,
    refine_eigenpair,
    solve_quadratic_eigenproblem,
    spectral_abscissa,
)

from repro.distributions import Exponential, HyperExponential
from repro.exceptions import SolverError
from repro.queueing import UnreliableQueueModel
from repro.spectral import ModulatedQueueMatrices


def _matrices(num_servers=2, arrival_rate=1.0) -> ModulatedQueueMatrices:
    operative = HyperExponential(weights=[0.6, 0.4], rates=[0.2, 0.02])
    return ModulatedQueueMatrices(
        UnreliableQueueModel(num_servers, arrival_rate, 1.0, operative, Exponential(rate=2.0))
    )


class TestQuadraticEigenproblem:
    def test_eigenpairs_satisfy_definition(self):
        matrices = _matrices()
        values, vectors = solve_quadratic_eigenproblem(
            matrices.q0, matrices.q1, matrices.q2
        )
        for value, vector in zip(values[:10], vectors[:10]):
            residual = vector @ characteristic_polynomial(matrices, value)
            scale = max(1.0, float(np.max(np.abs(matrices.q2)))) * max(1.0, abs(value)) ** 2
            assert np.max(np.abs(residual)) < 1e-6 * scale * max(np.max(np.abs(vector)), 1.0)

    def test_z_equal_one_is_always_an_eigenvalue(self):
        """Q(1) = A - D^A is a generator, hence singular, so z = 1 is a root."""
        matrices = _matrices()
        values, _ = solve_quadratic_eigenproblem(matrices.q0, matrices.q1, matrices.q2)
        assert np.min(np.abs(values - 1.0)) < 1e-8

    def test_shape_mismatch_rejected(self):
        matrices = _matrices()
        with pytest.raises(SolverError):
            solve_quadratic_eigenproblem(matrices.q0, matrices.q1, np.eye(3))


class TestUnitDiskFiltering:
    def test_count_equals_num_modes_for_stable_queue(self):
        """Paper: when the queue is ergodic, d = s eigenvalues lie inside the disk."""
        matrices = _matrices()
        eigensystem = eigenvalues_inside_unit_disk(
            matrices.q0, matrices.q1, matrices.q2, expected_count=matrices.num_modes
        )
        assert eigensystem.count == matrices.num_modes

    def test_eigenvalues_sorted_by_modulus(self):
        matrices = _matrices()
        eigensystem = eigenvalues_inside_unit_disk(
            matrices.q0, matrices.q1, matrices.q2, expected_count=matrices.num_modes
        )
        moduli = np.abs(eigensystem.eigenvalues)
        assert np.all(np.diff(moduli) >= -1e-12)

    def test_dominant_eigenvalue_is_real_positive(self):
        matrices = _matrices()
        eigensystem = eigenvalues_inside_unit_disk(
            matrices.q0, matrices.q1, matrices.q2, expected_count=matrices.num_modes
        )
        dominant = eigensystem.dominant_eigenvalue
        assert 0.0 < dominant < 1.0

    def test_left_eigenvectors_are_accurate(self):
        matrices = _matrices()
        eigensystem = eigenvalues_inside_unit_disk(
            matrices.q0, matrices.q1, matrices.q2, expected_count=matrices.num_modes
        )
        assert eigensystem.max_residual() < 1e-7

    def test_eigenvectors_unit_norm(self):
        matrices = _matrices()
        eigensystem = eigenvalues_inside_unit_disk(
            matrices.q0, matrices.q1, matrices.q2, expected_count=matrices.num_modes
        )
        norms = np.linalg.norm(eigensystem.left_eigenvectors, axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-9)

    def test_unstable_queue_has_too_few_interior_eigenvalues(self):
        """When the stability condition fails an eigenvalue crosses onto/through
        the unit circle, so requesting s interior eigenvalues must fail."""
        matrices = _matrices(num_servers=2, arrival_rate=5.0)  # load far above capacity
        with pytest.raises(SolverError):
            eigenvalues_inside_unit_disk(
                matrices.q0, matrices.q1, matrices.q2, expected_count=matrices.num_modes
            )

    def test_heavier_load_pushes_dominant_eigenvalue_up(self):
        light = _matrices(arrival_rate=0.5)
        heavy = _matrices(arrival_rate=1.5)
        z_light = eigenvalues_inside_unit_disk(
            light.q0, light.q1, light.q2, expected_count=light.num_modes
        ).dominant_eigenvalue
        z_heavy = eigenvalues_inside_unit_disk(
            heavy.q0, heavy.q1, heavy.q2, expected_count=heavy.num_modes
        ).dominant_eigenvalue
        assert z_heavy > z_light


class TestHelpers:
    def test_spectral_abscissa_of_generator_is_zero(self):
        generator = np.array([[-1.0, 1.0], [2.0, -2.0]])
        assert spectral_abscissa(generator) == pytest.approx(0.0, abs=1e-10)

    def test_spectral_abscissa_positive_matrix(self):
        assert spectral_abscissa(np.array([[1.0, 0.0], [0.0, -3.0]])) == pytest.approx(1.0)

    def test_perron_left_null_vector_of_generator(self):
        generator = np.array([[-1.0, 1.0], [2.0, -2.0]])
        vector = perron_left_null_vector(generator)
        np.testing.assert_allclose(vector, [2.0 / 3.0, 1.0 / 3.0], atol=1e-10)
        np.testing.assert_allclose(vector @ generator, 0.0, atol=1e-10)

    def test_perron_left_null_vector_requires_singularity(self):
        with pytest.raises(SolverError):
            perron_left_null_vector(np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_refine_eigenpair_improves_perturbed_eigenvalue(self):
        matrices = _matrices()
        eigensystem = eigenvalues_inside_unit_disk(
            matrices.q0, matrices.q1, matrices.q2, expected_count=matrices.num_modes
        )
        true_value = eigensystem.dominant_eigenvalue
        perturbed = true_value * (1.0 + 1e-4)
        refined, vector = refine_eigenpair(
            matrices.q0, matrices.q1, matrices.q2, perturbed
        )
        assert abs(refined - true_value) < abs(perturbed - true_value)
        residual = np.max(np.abs(vector @ characteristic_polynomial(matrices, refined)))
        assert residual < 1e-6
