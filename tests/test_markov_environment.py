"""Unit tests for the Markovian environment and the dense CTMC fallback.

The paper's homogeneous pool is the ``K = 1, R = N`` scenario environment;
the first three classes pin that case (worked example, Eq. 10-11), the last
pins the index-arithmetic assembly of multi-group environments against a
brute-force construction over the global modes.
"""

from __future__ import annotations

import hashlib
from math import comb

import numpy as np
import pytest
import scipy.sparse

from repro.distributions import SUN_OPERATIVE_FIT, Deterministic, Exponential, HyperExponential
from repro.exceptions import ParameterError, SolverError
from repro.markov import (
    ScenarioEnvironment,
    expected_num_scenario_modes,
    scenario_env,
    steady_state_csr,
    steady_state_from_generator,
)
from repro.queueing import sun_fitted_model


@pytest.fixture
def paper_environment() -> ScenarioEnvironment:
    """The N=2, n=2, m=1 environment of the paper's worked example."""
    operative = HyperExponential(weights=[0.6, 0.4], rates=[0.5, 0.05])
    return ScenarioEnvironment([(2, operative, Exponential(rate=2.0))])


class TestEnvironmentStructure:
    def test_mode_count(self, paper_environment):
        assert paper_environment.num_modes == 6

    def test_operative_counts_per_mode(self, paper_environment):
        np.testing.assert_allclose(paper_environment.operative_counts, [0, 1, 1, 2, 2, 2])

    def test_mode_lookup(self, paper_environment):
        assert paper_environment.mode_of((((0, 0), (2,)),)) == 0
        assert paper_environment.mode_of((((1, 1), (0,)),)) == 4

    def test_mode_lookup_invalid(self, paper_environment):
        with pytest.raises(ParameterError):
            paper_environment.mode_of((((3, 0), (0,)),))

    def test_expected_num_modes_helper(self):
        operative = HyperExponential(weights=[0.5, 0.5], rates=[1.0, 0.1])
        assert expected_num_scenario_modes([(10, operative, Exponential(rate=25.0))]) == 66

    def test_unsupported_distribution_rejected(self):
        with pytest.raises(ParameterError, match="Exponential or HyperExponential"):
            ScenarioEnvironment([(2, Deterministic(value=5.0), Exponential(rate=1.0))])

    def test_group_shapes_share_one_read_only_local_space(self):
        operative = HyperExponential(weights=[0.5, 0.5], rates=[1.0, 0.1])
        first = ScenarioEnvironment([(7, operative, Exponential(rate=2.0))])
        hits = scenario_env._local_space.cache_info().hits
        # Other rates, same shape: 7 servers, 2 operative and 1 inoperative phase.
        other = HyperExponential(weights=[0.3, 0.7], rates=[2.0, 0.5])
        second = ScenarioEnvironment([(7, other, Exponential(rate=9.0))])
        assert scenario_env._local_space.cache_info().hits == hits + 1
        (local,) = second._local
        assert local is first._local[0]
        for array in (
            local.operative,
            local.breakdowns.source,
            local.breakdowns.count,
            local.repairs.target,
        ):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert not np.array_equal(first.transition_matrix, second.transition_matrix)

    def test_homogeneous_model_uses_the_one_group_environment(self):
        model = sun_fitted_model(5, 3.0)
        environment = model.environment
        assert isinstance(environment, ScenarioEnvironment)
        assert environment.group_sizes == (5,)
        assert environment.repair_capacity == 5
        assert model.num_modes == environment.num_modes == 21


class TestTransitionMatrix:
    def test_paper_matrix_a_structure(self):
        """The matrix A of the worked example in Section 3.1.

        With N=2 servers, operative phases (alpha_j, xi_j) and a single
        exponential repair phase with rate eta, the example's matrix A is

            [ 0        2 eta a1  2 eta a2  0      0        0     ]
            [ xi1      0         0         eta a1 eta a2   0     ]
            [ xi2      0         0         0      eta a1   eta a2]
            [ 0        2 xi1     0         0      0        0     ]
            [ 0        xi2       xi1       0      0        0     ]
            [ 0        0         2 xi2     0      0        0     ]
        """
        alpha = np.array([0.6, 0.4])
        xi = np.array([0.5, 0.05])
        eta = 2.0
        environment = ScenarioEnvironment(
            [(2, HyperExponential(weights=alpha, rates=xi), Exponential(rate=eta))]
        )
        expected = np.array(
            [
                [0.0, 2 * eta * alpha[0], 2 * eta * alpha[1], 0.0, 0.0, 0.0],
                [xi[0], 0.0, 0.0, eta * alpha[0], eta * alpha[1], 0.0],
                [xi[1], 0.0, 0.0, 0.0, eta * alpha[0], eta * alpha[1]],
                [0.0, 2 * xi[0], 0.0, 0.0, 0.0, 0.0],
                [0.0, xi[1], xi[0], 0.0, 0.0, 0.0],
                [0.0, 0.0, 2 * xi[1], 0.0, 0.0, 0.0],
            ]
        )
        np.testing.assert_allclose(environment.transition_matrix, expected)

    def test_diagonal_of_a_is_zero(self, paper_environment):
        assert np.all(np.diag(paper_environment.transition_matrix) == 0.0)

    def test_generator_rows_sum_to_zero(self, paper_environment):
        generator = paper_environment.generator
        np.testing.assert_allclose(generator.sum(axis=1), 0.0, atol=1e-12)

    def test_transitions_move_one_server(self, paper_environment):
        counts = paper_environment.operative_counts
        sources, targets = np.nonzero(paper_environment.transition_matrix)
        assert sources.size == 12
        assert np.all(np.abs(counts[targets] - counts[sources]) == 1.0)
        assert np.all(paper_environment.transition_matrix[sources, targets] > 0.0)

    #: SHA-256 prefixes of the dense ``A`` of the Sun-fitted pool (eta = 25),
    #: N = 3..15: the spectral and geometric solvers read exactly these bytes.
    DIGESTS = {
        3: "b405cee326c34a1a",
        4: "1946d29568f6fb27",
        5: "d48ff6030c6e8319",
        6: "fda358e7338a36b2",
        7: "647cc2af3c8c089d",
        8: "05e7da3dd5fe4e8a",
        9: "88bf88bbd4e80b66",
        10: "5f6e4d6fae6a06b0",
        11: "1129c01ede13da9f",
        12: "609673796dad08ea",
        13: "a52b267d2e30509d",
        14: "bc5d098254ae72d2",
        15: "0834fb4af8d4b8d9",
    }

    @pytest.mark.parametrize("num_servers", sorted(DIGESTS))
    def test_sun_fitted_rate_matrix_is_bit_stable(self, num_servers):
        environment = ScenarioEnvironment(
            [(num_servers, SUN_OPERATIVE_FIT, Exponential(rate=25.0))]
        )
        digest = hashlib.sha256(environment.transition_matrix.tobytes()).hexdigest()[:16]
        assert digest == self.DIGESTS[num_servers]


class TestEnvironmentSteadyState:
    def test_availability_formula(self, paper_environment):
        operative = HyperExponential(weights=[0.6, 0.4], rates=[0.5, 0.05])
        expected = operative.mean / (operative.mean + 0.5)
        assert paper_environment.availability == pytest.approx(expected, rel=1e-9)

    def test_model_availability_matches_environment(self):
        """N * eta/(xi+eta) equals the environment-chain expectation (Eq. 11 input)."""
        model = sun_fitted_model(3, 1.0)
        assert model.operative.mean == pytest.approx(34.62, abs=0.05)
        assert model.mean_operative_servers == pytest.approx(
            model.environment.mean_operative_servers, rel=1e-9
        )

    def test_steady_state_sums_to_one(self, paper_environment):
        assert paper_environment.steady_state.sum() == pytest.approx(1.0)

    def test_exponential_periods_give_binomial_occupancy(self):
        """With exponential periods, each server is independently up with
        probability eta/(xi+eta), so the number of operative servers is
        binomial."""
        xi, eta = 0.5, 2.0
        environment = ScenarioEnvironment([(3, Exponential(rate=xi), Exponential(rate=eta))])
        availability = eta / (xi + eta)
        steady = environment.steady_state
        counts = environment.operative_counts
        for up in range(4):
            probability = steady[counts == up].sum()
            expected = comb(3, up) * availability**up * (1 - availability) ** (3 - up)
            assert probability == pytest.approx(expected, rel=1e-8)


def _brute_force_rates(groups, repair_capacity) -> np.ndarray:
    """``A`` built mode by mode from the per-group phase moves (reference)."""
    environment = ScenarioEnvironment(groups, repair_capacity=repair_capacity)
    phases = []
    for _, operative, inoperative in groups:
        alpha, xi = (
            (operative.weights, operative.rates)
            if isinstance(operative, HyperExponential)
            else (np.array([1.0]), np.array([operative.rate]))
        )
        phases.append((alpha, xi, np.array([1.0]), np.array([inoperative.rate])))
    size = environment.num_modes
    matrix = np.zeros((size, size))
    for source, mode in enumerate(environment.modes):
        broken = environment.num_servers - sum(sum(operative) for operative, _ in mode)
        share = min(broken, environment.repair_capacity) / broken if broken else 1.0
        for position, (operative, inoperative) in enumerate(mode):
            alpha, xi, beta, eta = phases[position]
            for j in range(alpha.size):
                for k in range(beta.size):
                    moved = list(mode)
                    up, down = list(operative), list(inoperative)
                    if operative[j]:
                        up[j] -= 1
                        down[k] += 1
                        moved[position] = (tuple(up), tuple(down))
                        target = environment.mode_of(tuple(moved))
                        matrix[source, target] += operative[j] * xi[j] * beta[k]
                    up, down = list(operative), list(inoperative)
                    if inoperative[k]:
                        up[j] += 1
                        down[k] -= 1
                        moved[position] = (tuple(up), tuple(down))
                        target = environment.mode_of(tuple(moved))
                        matrix[source, target] += inoperative[k] * eta[k] * alpha[j] * share
    return matrix


class TestMultiGroupAssembly:
    @pytest.mark.parametrize("repair_capacity", [None, 1, 2])
    def test_index_arithmetic_matches_brute_force(self, repair_capacity):
        groups = [
            (2, HyperExponential(weights=[0.7, 0.3], rates=[0.1, 0.02]), Exponential(rate=10.0)),
            (2, Exponential(rate=0.08), Exponential(rate=4.0)),
            (1, Exponential(rate=0.2), Exponential(rate=1.5)),
        ]
        environment = ScenarioEnvironment(groups, repair_capacity=repair_capacity)
        np.testing.assert_allclose(
            environment.transition_matrix,
            _brute_force_rates(groups, repair_capacity),
            rtol=1e-15,
            atol=0.0,
        )


class TestDenseSteadyState:
    def test_steady_state_two_state_chain(self):
        generator = np.array([[-1.0, 1.0], [2.0, -2.0]])
        pi = steady_state_from_generator(generator)
        np.testing.assert_allclose(pi, [2.0 / 3.0, 1.0 / 3.0])

    def test_sparse_kernel_matches_dense(self):
        generator = np.array([[-2.0, 1.0, 1.0], [0.5, -1.0, 0.5], [1.0, 1.0, -2.0]])
        dense = steady_state_from_generator(generator)
        sparse = steady_state_csr(scipy.sparse.csr_matrix(generator))
        np.testing.assert_allclose(dense, sparse, atol=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(SolverError):
            steady_state_from_generator(np.ones((2, 3)))

    def test_single_state_chain(self):
        np.testing.assert_allclose(steady_state_from_generator(np.array([[0.0]])), [1.0])
