"""Property-based cross-check of the real spectral path against the eigen oracle.

Hypothesis draws stable homogeneous pools — up to ten servers, loads up to
0.97, hyperexponential operative periods with squared coefficients of
variation up to 12 — and asserts that ``solve_spectral`` (the rate matrix
``R`` by logarithmic reduction plus level reduction) and the geometric
approximation (``z_s`` on one server) agree with the complex eigen path of
``eigen_expansion.py``, which shares none of their numerics.

``derandomize=True`` pins the drawn examples, so the test is deterministic
across runs and machines.
"""

from __future__ import annotations

import numpy as np
import pytest
from eigen_expansion import (
    decay_rate_bisection,
    geometric_mode_vector,
    polynomial_matrices,
    solve_expansion,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributions import Exponential, HyperExponential
from repro.queueing import UnreliableQueueModel
from repro.spectral import decay_rate, solve_geometric, solve_spectral


@st.composite
def stable_pools(draw) -> UnreliableQueueModel:
    """A random stable pool at a drawn effective load."""
    mean_operative = draw(st.floats(min_value=5.0, max_value=80.0))
    operative_scv = draw(st.floats(min_value=1.0, max_value=12.0))
    if operative_scv <= 1.0:
        operative = Exponential(rate=1.0 / mean_operative)
    else:
        operative = HyperExponential.from_mean_and_scv(mean_operative, operative_scv)
    model = UnreliableQueueModel(
        num_servers=draw(st.integers(min_value=1, max_value=10)),
        arrival_rate=1.0,
        service_rate=draw(st.floats(min_value=0.5, max_value=2.0)),
        operative=operative,
        inoperative=Exponential(rate=1.0 / draw(st.floats(min_value=0.05, max_value=4.0))),
    )
    load = draw(st.floats(min_value=0.1, max_value=0.97))
    return model.with_arrival_rate(load * model.mean_operative_servers * model.service_rate)


def _relative_gap(actual: np.ndarray, expected: np.ndarray) -> float:
    return float(np.max(np.abs(actual - expected)) / np.max(np.abs(expected)))


@given(model=stable_pools())
@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_real_path_matches_the_eigen_oracle(model: UnreliableQueueModel):
    solution = solve_spectral(model)
    oracle = solve_expansion(model)
    assert solution.mean_queue_length == pytest.approx(oracle.mean_queue_length, rel=1e-9)
    assert _relative_gap(solution.boundary_vectors, oracle.boundary_vectors) <= 1e-9

    decay = decay_rate(model)
    assert np.max(np.abs(solution.eigenvalues)) == pytest.approx(decay, abs=1e-10)

    matrices = polynomial_matrices(model)
    searched = decay_rate_bisection(matrices)
    geometric = solve_geometric(model)
    assert geometric.decay_rate == pytest.approx(searched, abs=1e-9)
    np.testing.assert_allclose(
        geometric.mode_marginals(), geometric_mode_vector(matrices, searched), atol=1e-8
    )
