"""Unit tests of the shared sparse-kernel layer (:mod:`repro.markov.kernels`).

The integration suites exercise the kernels through the solvers; these tests
pin the kernel contracts directly: the one-pass level x mode assembly against
a hand-built dense generator, the direct and aggregation-disaggregation
steady-state paths against each other, the aggregation-disaggregation sweep
against the COLAMD-factored sweep it replaced (``colamd_iad.py``), and the
uniformized step operator against an explicit ``v @ P`` product.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse
from colamd_iad import steady_state_iad_colamd

from repro.distributions import Exponential
from repro.exceptions import ParameterError, SolverError
from repro.scenarios import ScenarioModel, ServerGroup, preset_names, scenario_preset
from repro.scenarios.ctmc import build_truncated_generator, chain_structure
from repro.markov.kernels import (
    steady_state_from_generator,
    LevelModeStructure,
    UniformizedOperator,
    _steady_state_iad,
    assemble_level_mode_generator,
    steady_state_csr,
)

#: A small but irregular mode-rate matrix (2 modes) used throughout.
MODE_RATES = np.array([[0.0, 0.3], [0.7, 0.0]])


def _dense_reference(mode_rates, arrival_rate, departures):
    """Hand-built dense generator of the truncated level x mode chain."""
    num_levels, num_modes = departures.shape
    size = num_levels * num_modes
    matrix = np.zeros((size, size))
    for level in range(num_levels):
        base = level * num_modes
        for i in range(num_modes):
            for j in range(num_modes):
                if i != j:
                    matrix[base + i, base + j] += mode_rates[i, j]
            if level + 1 < num_levels:
                matrix[base + i, base + num_modes + i] += arrival_rate
            if level > 0:
                matrix[base + i, base - num_modes + i] += departures[level, i]
    np.fill_diagonal(matrix, matrix.diagonal() - matrix.sum(axis=1))
    return matrix


class TestAssembleLevelModeGenerator:
    def test_matches_dense_reference(self):
        departures = np.array([[0.0, 0.0], [1.0, 2.0], [1.5, 2.5], [2.0, 3.0]])
        generator = assemble_level_mode_generator(MODE_RATES, 0.9, departures)
        assert scipy.sparse.issparse(generator)
        np.testing.assert_allclose(
            generator.toarray(), _dense_reference(MODE_RATES, 0.9, departures), atol=1e-14
        )

    def test_row_sums_are_zero(self):
        departures = np.array([[0.0, 0.0], [1.0, 2.0], [1.5, 2.5]])
        generator = assemble_level_mode_generator(MODE_RATES, 1.3, departures)
        np.testing.assert_allclose(np.asarray(generator.sum(axis=1)).ravel(), 0.0, atol=1e-14)

    def test_sparse_mode_rates_accepted(self):
        departures = np.array([[0.0, 0.0], [1.0, 1.0]])
        dense = assemble_level_mode_generator(MODE_RATES, 0.5, departures)
        sparse = assemble_level_mode_generator(
            scipy.sparse.csr_matrix(MODE_RATES), 0.5, departures
        )
        np.testing.assert_allclose(dense.toarray(), sparse.toarray())

    def test_mode_rate_diagonal_is_ignored(self):
        with_diagonal = MODE_RATES + np.diag([5.0, 7.0])
        departures = np.array([[0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_allclose(
            assemble_level_mode_generator(with_diagonal, 0.5, departures).toarray(),
            assemble_level_mode_generator(MODE_RATES, 0.5, departures).toarray(),
        )

    def test_single_level_chain_is_the_mode_generator(self):
        departures = np.zeros((1, 2))
        generator = assemble_level_mode_generator(MODE_RATES, 4.2, departures)
        expected = MODE_RATES - np.diag(MODE_RATES.sum(axis=1))
        np.testing.assert_allclose(generator.toarray(), expected)

    def test_rejects_one_dimensional_departures(self):
        with pytest.raises(ParameterError, match="2-D"):
            assemble_level_mode_generator(MODE_RATES, 1.0, np.array([1.0, 2.0]))

    def test_rejects_mode_shape_mismatch(self):
        with pytest.raises(ParameterError, match="shape"):
            assemble_level_mode_generator(MODE_RATES, 1.0, np.zeros((3, 5)))


def _example_chain(num_levels=40, num_modes=2, arrival_rate=0.8):
    departures = np.tile(np.array([1.0, 2.0]), (num_levels, 1))
    departures[0] = 0.0
    generator = assemble_level_mode_generator(MODE_RATES, arrival_rate, departures)
    structure = LevelModeStructure(
        num_levels=num_levels,
        num_modes=num_modes,
        mode_generator=scipy.sparse.csr_matrix(MODE_RATES - np.diag(MODE_RATES.sum(axis=1))),
    )
    return generator, structure


class TestSteadyStateCsr:
    def test_direct_matches_dense_solver(self):
        generator, _ = _example_chain()
        pi = steady_state_csr(generator)
        reference = steady_state_from_generator(generator.toarray())
        np.testing.assert_allclose(pi, reference, atol=1e-10)

    def test_iad_matches_direct(self):
        generator, structure = _example_chain()
        direct = steady_state_csr(generator)
        iterative = _steady_state_iad(generator.tocsr(), structure, tol=1e-13, max_sweeps=500)
        np.testing.assert_allclose(iterative, direct, atol=1e-10)

    def test_residual_is_tiny(self):
        generator, _ = _example_chain()
        pi = steady_state_csr(generator)
        assert float(np.max(np.abs(pi @ generator.toarray()))) < 1e-10
        assert pi.sum() == pytest.approx(1.0)
        assert np.all(pi >= 0.0)

    def test_stiff_chain_with_no_mass_at_state_zero(self):
        # Long operative periods and fast repairs push essentially all
        # stationary mass away from state 0; pinning pi_0 = 1 makes the
        # reduced system numerically singular, so the solver must reject
        # that pivot and pick another (regression: the service's default
        # model raised "sums to zero").
        from repro.distributions import Exponential, HyperExponential
        from repro.queueing.model import UnreliableQueueModel
        from repro.scenarios.ctmc import build_truncated_generator, default_truncation_level

        model = UnreliableQueueModel(
            num_servers=6,
            arrival_rate=4.0,
            service_rate=1.0,
            operative=HyperExponential(
                weights=[0.9, 0.1], rates=[0.0520446, 0.00572548]
            ),
            inoperative=Exponential(rate=25.0),
        )
        generator = scipy.sparse.csr_matrix(
            build_truncated_generator(model, default_truncation_level(model))
        )
        pi = steady_state_csr(generator)
        assert pi.sum() == pytest.approx(1.0)
        assert float(np.max(np.abs(generator.T @ pi))) < 1e-6
        np.testing.assert_allclose(
            pi, steady_state_from_generator(generator.toarray()), atol=1e-9
        )

    def test_singleton_chain(self):
        np.testing.assert_array_equal(steady_state_csr(np.zeros((1, 1))), [1.0])

    def test_rejects_non_square_generator(self):
        with pytest.raises(SolverError, match="square"):
            steady_state_csr(np.zeros((2, 3)))


def _lumped_chain(level: int = 30):
    """A K = 3 lumped chain (groups of 4, 125 modes) truncated at ``level``."""
    groups = tuple(
        ServerGroup(
            name=name,
            size=4,
            service_rate=service,
            operative=Exponential(rate=failure),
            inoperative=Exponential(rate=repair),
        )
        for name, service, failure, repair in (
            ("fast", 2.0, 0.05, 1.0),
            ("mid", 1.0, 0.04, 0.8),
            ("slow", 0.5, 0.03, 0.6),
        )
    )
    model = ScenarioModel(groups=groups, arrival_rate=8.0, repair_capacity=2, name="lumped-4")
    generator = scipy.sparse.csr_matrix(build_truncated_generator(model, level))
    return generator, chain_structure(model, level)


def _preset_chain(name: str, level: int = 60):
    model = scenario_preset(name)
    generator = scipy.sparse.csr_matrix(build_truncated_generator(model, level))
    return generator, chain_structure(model, level)


class TestIadMatchesColamdOracle:
    """The minimum-degree mode factor, the reshaped level solve and the reused
    residual run the same iteration as the sweep they replaced: the same
    number of sweeps and the same vector to rounding."""

    TOL = 1e-12

    def _assert_same_iterates(self, generator, structure):
        reference, sweeps = steady_state_iad_colamd(generator, structure, self.TOL, 2000)
        solved = _steady_state_iad(generator, structure, self.TOL, sweeps)
        np.testing.assert_allclose(solved, reference, rtol=0.0, atol=1e-13)
        with pytest.raises(SolverError, match="did not reach"):
            _steady_state_iad(generator, structure, self.TOL, sweeps - 1)

    def test_example_chain(self):
        generator, structure = _example_chain()
        self._assert_same_iterates(generator.tocsr(), structure)

    def test_lumped_chain(self):
        self._assert_same_iterates(*_lumped_chain())

    @pytest.mark.parametrize("preset", preset_names())
    def test_preset_chain(self, preset):
        self._assert_same_iterates(*_preset_chain(preset))


class TestLevelModeStructure:
    def test_size_and_marginals(self):
        _, structure = _example_chain(num_levels=7)
        assert structure.size == 14
        marginals = structure.mode_marginals
        # The environment's stationary distribution: pi_0 * 0.3 = pi_1 * 0.7.
        np.testing.assert_allclose(marginals, [0.7, 0.3])


class TestUniformizedOperator:
    def test_step_matches_explicit_product(self):
        generator, _ = _example_chain(num_levels=5)
        operator = UniformizedOperator.from_generator(generator)
        dense_p = np.eye(operator.size) + generator.toarray() / operator.rate
        rng = np.random.default_rng(7)
        vector = rng.random(operator.size)
        vector /= vector.sum()
        np.testing.assert_allclose(operator.step(vector), vector @ dense_p, atol=1e-14)

    def test_default_rate_is_the_largest_exit_rate(self):
        generator, _ = _example_chain(num_levels=5)
        operator = UniformizedOperator.from_generator(generator)
        assert operator.rate == pytest.approx(float(np.max(-generator.diagonal())))
        # P is a proper stochastic matrix at the tightest rate.
        row_sums = np.asarray(operator.matrix.sum(axis=1)).ravel()
        np.testing.assert_allclose(row_sums, 1.0, atol=1e-14)
        assert operator.matrix.min() >= 0.0

    def test_stationary_vector_is_invariant(self):
        generator, _ = _example_chain()
        pi = steady_state_csr(generator)
        operator = UniformizedOperator.from_generator(generator)
        np.testing.assert_allclose(operator.step(pi), pi, atol=1e-12)

    def test_rejects_a_rate_below_the_exit_rate(self):
        generator, _ = _example_chain(num_levels=5)
        tightest = float(np.max(-generator.diagonal()))
        with pytest.raises(ParameterError, match="below the largest exit rate"):
            UniformizedOperator.from_generator(generator, rate=0.5 * tightest)

    def test_all_absorbing_generator_gives_the_identity(self):
        operator = UniformizedOperator.from_generator(np.zeros((3, 3)))
        assert operator.rate == 0.0
        vector = np.array([0.2, 0.3, 0.5])
        np.testing.assert_array_equal(operator.step(vector), vector)

    def test_rejects_non_square_generator(self):
        with pytest.raises(SolverError, match="square"):
            UniformizedOperator.from_generator(np.zeros((2, 3)))
