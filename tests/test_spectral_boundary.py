"""The structured spectral solver against its oracles: ``R`` and level reduction.

``solve_spectral`` computes the rate matrix ``R`` by logarithmic reduction
and finds the boundary vectors by eliminating the levels one ``s x s`` block
at a time.  These tests pin that solution against the eigen path of
``eigen_expansion.py`` — the expansion ``sum_k c_k u_k z_k^t`` with the dense
``(N + 1) s`` system of ``dense_boundary.py`` — over the paper's models, gate
the solve's memory so the dense system cannot come back unnoticed, and
exercise the residual checks end to end: the error, the facade's fallback
and the metrics they leave behind.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from dense_boundary import dense_residual, rate_tail
from eigen_expansion import decay_rate_bisection, polynomial_matrices, solve_expansion

from repro.blas import single_threaded_blas
from repro.exceptions import ParameterError, SolverError
from repro.experiments import figure5, figure8, parameters
from repro.obs import numerics_registry
from repro.obs.metrics import RESIDUAL_BUCKETS, SWEEP_COUNT_BUCKETS, Histogram
from repro.query import parse_request
from repro.queueing import UnreliableQueueModel, sun_fitted_model
from repro.solvers import solve
from repro.spectral import ModulatedQueueMatrices, rate_matrix, solve_geometric, solve_spectral
from repro.spectral import solution as spectral_solution
from repro.spectral.eigen import invert


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


@pytest.mark.parametrize("name", sorted(MODELS))
def test_level_reduction_matches_the_dense_system(name):
    model = MODELS[name]
    solution = solve_spectral(model)
    rate = solution.rate_matrix
    top = solution.level_vector(model.num_servers)
    with single_threaded_blas():
        oracle = solve_expansion(model)
        matrices = polynomial_matrices(model)
        structured_residual = dense_residual(
            matrices, rate_tail(rate), solution.boundary_vectors, top
        )
        bisected = decay_rate_bisection(matrices)
    tail = top @ np.linalg.inv(np.eye(matrices.num_modes) - rate)

    assert _relative_gap(solution.boundary_vectors, oracle.boundary_vectors) <= 1e-10
    assert _relative_gap(tail, oracle.tail_mode_vector) <= 1e-10
    assert solution.mean_queue_length == pytest.approx(oracle.mean_queue_length, rel=1e-10)
    assert abs(structured_residual - solution.boundary_residual) <= 1e-13
    assert solution.boundary_residual <= 1e-10
    # The eigenvalues of R are the z_k; the largest is z_s, found on one server.
    assert solution.decay_rate == pytest.approx(bisected, abs=1e-9)
    assert np.max(np.abs(solution.eigenvalues)) == pytest.approx(solution.decay_rate, abs=1e-10)


def test_per_level_accessors_match_the_expansion():
    """Figure 8 at load 0.99: a mean of about 105 jobs, so the walks go deep."""
    model = figure8.model_for_load(0.99)
    solution = solve_spectral(model)
    oracle = solve_expansion(model)
    assert solution.queue_length_quantile(0.99) == oracle.queue_length_quantile(0.99)
    for level in (model.num_servers - 1, model.num_servers, 200):
        assert solution.queue_length_tail(level) == pytest.approx(
            oracle.queue_length_tail(level), rel=1e-9
        )
        assert _relative_gap(solution.level_vector(level), oracle.level_vector(level)) <= 1e-9


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


def test_threads_walking_one_solution_see_the_same_levels():
    """Threads walking one solution grow its cache of ``v_N R^t``; every level stays exact."""
    model = figure8.model_for_load(0.99)
    expected = solve_spectral(model)
    reference = [expected.level_vector(level) for level in range(300)]
    shared = solve_spectral(model)
    errors: list[BaseException] = []
    barrier = threading.Barrier(8)

    def walk(start: int) -> None:
        try:
            barrier.wait(timeout=30)
            for level in range(start, 300, 7):
                np.testing.assert_array_equal(shared.level_vector(level), reference[level])
        except BaseException as error:  # reported by the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(start,)) for start in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for level in range(300):
        np.testing.assert_array_equal(shared.level_vector(level), reference[level])


def _attempts(outcome: str) -> float:
    return numerics_registry().counter(
        "repro_solver_attempts_total",
        labels={"solver": "spectral", "outcome": outcome},
    ).value


def _histogram(name: str, buckets: tuple[float, ...] = RESIDUAL_BUCKETS) -> Histogram:
    return numerics_registry().histogram(name, buckets=buckets).snapshot()


def _residual_histogram() -> Histogram:
    return _histogram("repro_spectral_boundary_residual")


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


def test_reduction_stalls_on_an_unstable_chain():
    """On an unstable queue ``G`` is substochastic, so ``1 - G 1`` stops falling short of 0."""
    model = sun_fitted_model(2, 1.0)
    matrices = polynomial_matrices(model.with_arrival_rate(2.0 * model.mean_operative_servers))
    with pytest.raises(SolverError, match="logarithmic reduction stalled"):
        rate_matrix(matrices.q0, matrices.q1, matrices.q2)


def test_rate_residual_over_tolerance_fails_over_to_the_next_solver(monkeypatch):
    model = sun_fitted_model(5, 3.5)
    monkeypatch.setattr(spectral_solution, "_RATE_RESIDUAL_TOLERANCE", 0.0)
    with pytest.raises(SolverError, match="rate matrix residual .* exceeds tolerance"):
        solve_spectral(model)

    failed = _attempts("failed")
    outcome = solve(model, ("spectral", "geometric"), cache=False)
    assert outcome.solver == "geometric"
    assert "mean_queue_length" in outcome.metrics
    assert _attempts("failed") == failed + 1


def test_every_solve_records_its_rate_residual_and_reduction_steps():
    model = sun_fitted_model(5, 3.5)
    residual_before = _histogram("repro_spectral_rate_residual")
    steps_before = _histogram("repro_spectral_reduction_steps", SWEEP_COUNT_BUCKETS)
    solution = solve_spectral(model)
    residual_after = _histogram("repro_spectral_rate_residual")
    steps_after = _histogram("repro_spectral_reduction_steps", SWEEP_COUNT_BUCKETS)
    matrices = polynomial_matrices(model)
    _, steps = rate_matrix(matrices.q0, matrices.q1, matrices.q2)

    assert residual_after.count == residual_before.count + 1
    assert residual_after.total - residual_before.total == pytest.approx(
        solution.rate_residual, abs=1e-18
    )
    assert steps_after.count == steps_before.count + 1
    assert steps_after.total - steps_before.total == steps


def test_inverse_matches_numpy_on_the_solve_matrices(monkeypatch):
    model = figure5.base_model(8.5, 15)
    matrices = ModulatedQueueMatrices(model)
    schurs: list[np.ndarray] = []

    def capture(matrix):
        schurs.append(matrix.copy())
        return invert(matrix)

    monkeypatch.setattr(spectral_solution, "invert", capture)
    solve_spectral(model)
    assert len(schurs) == model.num_servers
    for matrix in (-matrices.q1, schurs[len(schurs) // 2]):
        assert _relative_gap(invert(matrix), np.linalg.inv(matrix)) <= 1e-12


def test_inverse_of_a_singular_matrix_raises_solver_error():
    singular = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SolverError, match="singular 3x3 matrix"):
        invert(singular)


def test_solves_need_no_numpy_inverse(monkeypatch):
    model = figure5.base_model(8.5, 15)
    exact = solve_spectral(model).mean_queue_length
    approximate = solve_geometric(model).mean_queue_length

    def forbidden(matrix):
        raise AssertionError("np.linalg.inv was called")

    monkeypatch.setattr(np.linalg, "inv", forbidden)
    assert solve_spectral(model).mean_queue_length == exact
    assert solve_geometric(model).mean_queue_length == approximate


def test_singular_pivot_fails_over_to_the_next_solver(monkeypatch):
    """A singular pivot in the level reduction falls through to the next solver.

    No model reaches one since the reduction runs top-down, so every
    inversion of the reduction is handed a zero matrix instead.
    """
    model = sun_fitted_model(5, 3.5)
    monkeypatch.setattr(spectral_solution, "invert", lambda matrix: invert(np.zeros_like(matrix)))
    with pytest.raises(SolverError, match="singular"):
        solve_spectral(model)

    failed = _attempts("failed")
    outcome = solve(model, ("spectral", "geometric"), cache=False)
    assert outcome.solver == "geometric"
    assert _attempts("failed") == failed + 1


def test_an_oversize_chain_is_refused_before_its_modes_are_enumerated():
    """At N = 300 the Sun fit has 45,451 modes: ``B = lambda I`` alone would take 15.4 GiB."""
    model = sun_fitted_model(300, 150.0)
    with pytest.raises(ParameterError, match="45451 modes"):
        solve_spectral(model)
    assert "environment" not in model.__dict__


def test_an_oversize_chain_is_answered_by_the_next_solver():
    failed = _attempts("failed")
    outcome = solve(sun_fitted_model(300, 150.0), cache=False)
    assert outcome.solver == "geometric"
    assert _attempts("failed") == failed + 1


#: Arrival rates from the lightest load a float can carry up to 1e-9.
LIGHT_ARRIVAL_RATES = (1e-300, 1e-20, 1e-16, 1e-15, 1e-12, 1e-9)

#: Effective loads from light to close to saturation.
LOADS = (0.01, 0.1, 0.5, 0.9, 0.99, 0.999)


@pytest.mark.parametrize("servers", range(1, 16))
def test_flow_balance_holds_from_light_load_to_saturation(servers):
    """Departures balance arrivals, ``sum_j v_j C_j 1 = mu E[busy] = lambda``, at any load."""
    base = sun_fitted_model(servers, 1.0)
    rates = LIGHT_ARRIVAL_RATES + tuple(load * base.mean_operative_servers for load in LOADS)
    for rate in rates:
        model = base.with_arrival_rate(rate)
        solution = solve_spectral(model)
        busy = model.service_rate * solution.mean_jobs_in_service
        assert abs(solution.throughput - rate) <= 1e-12 * rate, rate
        assert abs(busy - rate) <= 1e-12 * rate, rate


def _service_model(**fields: float) -> UnreliableQueueModel:
    """The model ``POST /solve`` builds from a ``model`` object."""
    return parse_request({"model": fields}).model


#: The light-load answers that lost flow balance with the bottom-up reduction:
#: W = 0.0397 for the service's default model, relative errors of 8.9e-8 to
#: 0.19 on the Sun fit at N = 4 and then a singular pivot, and W = 0 at
#: N = 3, lambda = 1e-300 (the exponential model answered by another solver).
LIGHT_LOAD_CASES = {
    "service-default-N4-1e-20": _service_model(servers=4, arrival_rate=1e-20),
    **{
        f"sun-N4-{rate:g}": sun_fitted_model(4, rate)
        for rate in (1e-9, 1e-12, 1e-15, 1e-16, 1e-20)
    },
    "sun-N3-1e-300": sun_fitted_model(3, 1e-300),
    "exponential-N3-1e-300": _service_model(
        servers=3, arrival_rate=1e-300, operative_mean=10, operative_scv=1, repair_mean=1
    ),
}


@pytest.mark.parametrize("name", sorted(LIGHT_LOAD_CASES))
def test_light_load_is_answered_exactly(name):
    """A lone job is served at rate ``mu`` or waits for a repair: ``W >= 1 / mu``."""
    model = LIGHT_LOAD_CASES[name]
    outcome = solve(model, cache=False)
    assert outcome.solver == "spectral"
    response_time = outcome.metrics["mean_response_time"]
    assert response_time >= model.mean_service_time
    assert response_time == pytest.approx(model.mean_service_time, rel=1e-2)
