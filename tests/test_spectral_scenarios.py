"""The exact spectral solver on scenario chains, against its oracles.

A scenario (server groups, a limited repair crew) is the paper's QBD with
level- and mode-dependent service capacities, so ``solve_spectral`` solves it
with the same rate matrix and top-down level reduction as the pool.  These
tests pin its answers against the truncated CTMC over every preset, from the
lightest load a float carries up, its boundary vectors against the dense
boundary system of ``dense_boundary.py`` and its decay rate against the
quadratic eigenproblem of ``eigen_expansion.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from dense_boundary import dense_residual, rate_tail, solve_dense_boundary
from eigen_expansion import decay_rate_from_eigensystem

from repro import spectral
from repro.blas import single_threaded_blas
from repro.scenarios import preset_names, scenario_preset
from repro.spectral import ModulatedQueueMatrices, solve_spectral

#: Repair crews: the preset's own (``None``), one and two repairers.
CREWS = (None, 1, 2)

#: Every preset at each crew size: 12 chains of 4 to 18 modes.
PRESET_CHAINS = {
    f"{name}-crew{crew or 'preset'}": scenario_preset(name, repair_capacity=crew)
    for name in preset_names()
    for crew in CREWS
}

#: The preset chains at their own arrival rate and at two light loads.
PRESET_CASES = {
    f"{label}-{rate or 'preset'}": chain.with_arrival_rate(rate or chain.arrival_rate)
    for label, chain in PRESET_CHAINS.items()
    for rate in (None, 1e-12, 1e-300)
}


@pytest.mark.parametrize("name", sorted(PRESET_CASES))
def test_preset_matches_the_truncated_chain(name):
    scenario = PRESET_CASES[name]
    solution = solve_spectral(scenario)
    reference = scenario.solve_ctmc()
    assert solution.mean_queue_length == pytest.approx(reference.mean_queue_length, rel=1e-10)
    assert solution.probability_empty == pytest.approx(reference.probability_empty, rel=1e-10)
    assert solution.throughput == pytest.approx(scenario.arrival_rate, rel=1e-12)


@pytest.mark.parametrize("name", sorted(PRESET_CHAINS))
def test_preset_boundary_solves_the_dense_system(name):
    scenario = PRESET_CHAINS[name]
    solution = solve_spectral(scenario)
    top = solution.level_vector(scenario.num_servers)
    with single_threaded_blas():
        matrices = ModulatedQueueMatrices(scenario)
        tail = rate_tail(solution.rate_matrix)
        boundary, unknowns, _ = solve_dense_boundary(matrices, tail)
        residual = dense_residual(matrices, tail, solution.boundary_vectors, top)
    scale = np.max(np.abs(boundary))
    assert np.max(np.abs(solution.boundary_vectors - boundary)) <= 1e-10 * scale
    assert np.max(np.abs(top - unknowns)) <= 1e-10 * scale
    assert abs(residual - solution.boundary_residual) <= 1e-13
    assert solution.boundary_residual <= 1e-12


@pytest.mark.parametrize("name", sorted(PRESET_CHAINS))
def test_preset_decay_rate_is_the_dominant_root(name):
    scenario = PRESET_CHAINS[name]
    oracle = decay_rate_from_eigensystem(ModulatedQueueMatrices(scenario))
    assert solve_spectral(scenario).decay_rate == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("rate", [1e-12, 1e-150, 1e-300])
def test_light_load_decay_rate_is_the_pools(rate):
    """``R``'s spectral radius matches one server's ``z_s`` on the one-group preset.

    Below ``1e-138`` the eigenvalues of ``R`` need it scaled first.
    """
    scenario = scenario_preset("legacy-homogeneous", arrival_rate=rate)
    pool = spectral.decay_rate(scenario.as_homogeneous())
    solution = solve_spectral(scenario)
    assert abs(solution.eigenvalues[-1]) == pytest.approx(pool, rel=1e-10)
    assert solution.decay_rate == pool
