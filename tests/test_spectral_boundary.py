"""The boundary stage of the spectral solver: level reduction against the dense oracle.

``solve_spectral`` finds the boundary vectors and expansion coefficients by
eliminating the levels one ``s x s`` block at a time.  These tests pin that
solution against the dense ``(N + 1) s`` system of ``dense_boundary.py`` over
the paper's models, gate the solve's memory so the dense system cannot come
back unnoticed, and exercise the residual check end to end: the error, the
facade's fallback and the metrics it leaves behind.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from dense_boundary import dense_residual, solve_dense_boundary

from repro.blas import single_threaded_blas
from repro.exceptions import SolverError
from repro.experiments import figure5, figure8, parameters
from repro.obs import numerics_registry
from repro.obs.metrics import RESIDUAL_BUCKETS, Histogram
from repro.queueing import UnreliableQueueModel, sun_fitted_model
from repro.solvers import solve
from repro.spectral import solve_spectral
from repro.spectral import solution as spectral_solution
from repro.spectral.eigen import SpectralEigensystem, eigenvalues_inside_unit_disk
from repro.spectral.qbd import ModulatedQueueMatrices


def _fitted_repairs(num_servers: int, load: float) -> UnreliableQueueModel:
    """Both periods fitted hyperexponentials (``n = m = 2``) at an effective load."""
    model = UnreliableQueueModel(
        num_servers=num_servers,
        arrival_rate=1.0,
        service_rate=parameters.SERVICE_RATE,
        operative=parameters.FITTED_OPERATIVE,
        inoperative=parameters.FITTED_INOPERATIVE,
    )
    return model.with_arrival_rate(load * model.mean_operative_servers)


MODELS = {
    **{
        f"sun-N{servers}-load{load}": figure8.model_for_load(load, servers)
        for servers in range(1, 9)
        for load in (0.3, 0.85)
    },
    **{
        f"figure5-N{servers}-rate{rate}": figure5.base_model(rate, servers)
        for servers in (9, 12, 15)
        for rate in parameters.FIGURE5_ARRIVAL_RATES
    },
    **{f"figure8-load{load}": figure8.model_for_load(load) for load in (0.89, 0.99)},
    "fitted-repairs-N6": _fitted_repairs(6, 0.7),
}


def _relative_gap(actual: np.ndarray, expected: np.ndarray) -> float:
    return float(np.max(np.abs(actual - expected)) / np.max(np.abs(expected)))


def _tail_mode_vector(eigensystem: SpectralEigensystem, gammas: np.ndarray) -> np.ndarray:
    """``sum_{j >= N} v_j`` over modes, from the scaled expansion coefficients."""
    return (gammas / (1.0 - eigensystem.eigenvalues)) @ eigensystem.left_eigenvectors


@pytest.mark.parametrize("name", sorted(MODELS))
def test_level_reduction_matches_the_dense_system(name):
    model = MODELS[name]
    solution = solve_spectral(model)
    matrices = ModulatedQueueMatrices(model.environment, model.arrival_rate, model.service_rate)
    with single_threaded_blas():
        eigensystem = eigenvalues_inside_unit_disk(
            matrices.q0, matrices.q1, matrices.q2, expected_count=matrices.num_modes
        )
        boundary, coefficients, residual = solve_dense_boundary(matrices, eigensystem)
        structured_residual = dense_residual(
            matrices, eigensystem, solution.boundary_vectors, solution.expansion_coefficients
        )
    dense = spectral_solution.SpectralSolution(
        model=model,
        matrices=matrices,
        eigensystem=eigensystem,
        boundary_vectors=np.clip(boundary.real, 0.0, None),
        expansion_coefficients=coefficients,
        boundary_residual=residual,
    )

    assert _relative_gap(solution.boundary_vectors, dense.boundary_vectors) <= 1e-10
    # The raw coefficients of tiny eigenvalues may differ without moving any
    # probability, so they are compared only through the tail they weigh.
    tail = _tail_mode_vector(eigensystem, solution.expansion_coefficients)
    assert _relative_gap(tail, _tail_mode_vector(eigensystem, coefficients)) <= 1e-10
    assert solution.mean_queue_length == pytest.approx(dense.mean_queue_length, rel=1e-10)
    assert abs(structured_residual - solution.boundary_residual) <= 1e-13
    assert solution.boundary_residual <= 1e-10


def test_singular_square_system_falls_back_to_least_squares(monkeypatch):
    model = sun_fitted_model(5, 3.5)
    expected = solve_spectral(model)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    solution = solve_spectral(model)
    assert solution.boundary_residual <= 1e-10
    assert _relative_gap(solution.boundary_vectors, expected.boundary_vectors) <= 1e-10
    assert solution.mean_queue_length == pytest.approx(expected.mean_queue_length, rel=1e-10)


def test_boundary_stage_memory_stays_linear_in_the_levels():
    """The dense N = 15 system alone is a 76 MB complex matrix."""
    solve_spectral(sun_fitted_model(3, 1.0))  # imports and lazy caches outside the trace
    model = figure5.base_model(8.5, 15)
    tracemalloc.start()
    try:
        solve_spectral(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _attempts(outcome: str) -> float:
    return numerics_registry().counter(
        "repro_solver_attempts_total",
        labels={"solver": "spectral", "outcome": outcome},
    ).value


def _residual_histogram() -> Histogram:
    registry = numerics_registry()
    histogram = registry.histogram("repro_spectral_boundary_residual", buckets=RESIDUAL_BUCKETS)
    return histogram.snapshot()


def test_residual_over_tolerance_fails_over_to_the_next_solver(monkeypatch):
    model = sun_fitted_model(5, 3.5)
    monkeypatch.setattr(spectral_solution, "_BOUNDARY_RESIDUAL_TOLERANCE", 0.0)
    with pytest.raises(SolverError, match="boundary system residual .* exceeds tolerance"):
        solve_spectral(model)

    failed = _attempts("failed")
    outcome = solve(model, ("spectral", "geometric"), cache=False)
    assert outcome.solver == "geometric"
    assert "mean_queue_length" in outcome.metrics
    assert _attempts("failed") == failed + 1


def test_every_solve_records_its_boundary_residual():
    before = _residual_histogram()
    solution = solve_spectral(sun_fitted_model(5, 3.5))
    after = _residual_histogram()
    assert after.count == before.count + 1
    assert after.total - before.total == pytest.approx(solution.boundary_residual, abs=1e-18)
