"""Tests of the BLAS thread scope (:mod:`repro.blas`).

Every spectral solve must run on one BLAS thread and leave the caller's
threading as it found it, however the scope is entered: from the decorated
solver entry points, nested, from many threads at once, or in a child forked
while another thread held the scope's lock.  The ambient count is set to
:data:`AMBIENT` for each test so the checks mean the same on any CPU count.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
import warnings

import pytest
import scipy.linalg

from repro import blas
from repro.blas import blas_runtime, controlled_libraries, single_threaded_blas
from repro.queueing import sun_fitted_model
from repro.spectral import approximation, solve_geometric, solve_spectral
from repro.spectral import eigen as spectral_eigen
from repro.spectral import solution as spectral_solution

#: The ambient thread count the tests install: neither 1 nor a common CPU count.
AMBIENT = 3


def _threads(libraries: tuple[blas.BlasLibrary, ...]) -> list[int]:
    return [library.get_num_threads() for library in libraries]


@pytest.fixture
def libraries():
    """The controlled libraries, set to :data:`AMBIENT` threads for the test."""
    found = controlled_libraries()
    if not found:
        pytest.skip("no OpenBLAS thread controls are loaded in this process")
    saved = _threads(found)
    for library in found:
        library.set_num_threads(AMBIENT)
    try:
        yield found
    finally:
        for library, threads in zip(found, saved):
            library.set_num_threads(threads)


def test_solve_spectral_runs_on_one_thread_and_restores_the_ambient_count(
    libraries, monkeypatch
):
    seen: list[list[int]] = []
    boundary_solve = spectral_solution._solve_boundary_system

    def spy(system, rhs):
        seen.append(_threads(libraries))
        return boundary_solve(system, rhs)

    monkeypatch.setattr(spectral_solution, "_solve_boundary_system", spy)
    solve_spectral(sun_fitted_model(5, 3.5))
    assert seen == [[1] * len(libraries)]
    assert _threads(libraries) == [AMBIENT] * len(libraries)


def test_every_inversion_of_a_large_solve_runs_on_one_thread(libraries, monkeypatch):
    # The inversions call scipy's LAPACK, so its OpenBLAS must be in scope too,
    # not only the numpy copy np.linalg.inv used.
    seen: list[list[int]] = []
    invert = spectral_eigen.invert

    def spy(matrix):
        seen.append(_threads(libraries))
        return invert(matrix)

    monkeypatch.setattr(spectral_eigen, "invert", spy)
    monkeypatch.setattr(spectral_solution, "invert", spy)
    solve_spectral(sun_fitted_model(17, 11.0))
    assert len(seen) > 17
    assert all(threads == [1] * len(libraries) for threads in seen)
    assert _threads(libraries) == [AMBIENT] * len(libraries)


def test_tail_metrics_of_a_fresh_solution_factor_on_one_thread(libraries, monkeypatch):
    # From s = 150 modes up, an LU of I - R run outside the scope wakes
    # OpenBLAS's other threads, which then spin.
    seen: list[list[int]] = []
    lu_factor = scipy.linalg.lu_factor

    def spy(matrix, *args, **kwargs):
        seen.append(_threads(libraries))
        return lu_factor(matrix, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", spy)
    solution = solve_spectral(sun_fitted_model(5, 3.5))
    solution.mean_queue_length
    solution.mode_marginals()
    solution.queue_length_tail(12)
    assert seen and all(threads == [1] * len(libraries) for threads in seen)
    assert _threads(libraries) == [AMBIENT] * len(libraries)


def test_nested_entry_keeps_one_thread_and_restores_once(libraries, monkeypatch):
    seen: list[list[int]] = []
    restores: list[None] = []
    perron_pair = approximation._server_perron_pair
    restore = blas._restore

    def spy_perron_pair(model):
        seen.append(_threads(libraries))
        return perron_pair(model)

    def counting_restore():
        restores.append(None)
        restore()

    monkeypatch.setattr(approximation, "_server_perron_pair", spy_perron_pair)
    monkeypatch.setattr(blas, "_restore", counting_restore)
    # solve_geometric enters the scope, then finds the server's Perron root
    # through rate_matrix, which enters it again.
    solve_geometric(sun_fitted_model(5, 3.5))
    assert seen and all(threads == [1] * len(libraries) for threads in seen)
    assert len(restores) == 1
    assert _threads(libraries) == [AMBIENT] * len(libraries)


def test_runtime_reports_the_ambient_count_while_a_solve_holds_the_scope(libraries):
    with single_threaded_blas():
        assert _threads(libraries) == [1] * len(libraries)
        runtime = blas_runtime()
    assert runtime["controlled"] is True
    assert runtime["solve_threads"] == 1
    assert runtime["cpus"] >= 1
    assert [entry["threads"] for entry in runtime["libraries"]] == [AMBIENT] * len(libraries)
    assert [entry["library"] for entry in runtime["libraries"]] == [
        library.name for library in libraries
    ]


def test_concurrent_holders_never_see_more_than_one_thread(libraries):
    workers, rounds = 8, 200
    seen: list[int] = []
    errors: list[BaseException] = []
    lock = threading.Lock()
    barrier = threading.Barrier(workers)

    def worker() -> None:
        try:
            barrier.wait(timeout=30)
            local = []
            for _ in range(rounds):
                with single_threaded_blas():
                    local.append(max(_threads(libraries)))
            with lock:
                seen.extend(local)
        except BaseException as error:  # reported by the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(seen) == workers * rounds
    assert max(seen) == 1
    assert blas._holders == 0
    assert _threads(libraries) == [AMBIENT] * len(libraries)


def test_without_controllable_libraries_the_scope_is_a_no_op(monkeypatch):
    real = controlled_libraries()
    before = _threads(real)
    monkeypatch.setattr(blas, "controlled_libraries", lambda: ())
    with single_threaded_blas():
        assert _threads(real) == before
    runtime = blas_runtime()
    assert runtime["controlled"] is False
    assert runtime["solve_threads"] is None
    assert runtime["libraries"] == []
    assert _threads(real) == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_child_forked_while_another_thread_holds_the_lock_can_enter_the_scope(libraries):
    held = threading.Event()
    release = threading.Event()

    def holder() -> None:
        with blas._lock:
            held.set()
            release.wait(timeout=60)

    thread = threading.Thread(target=holder)
    thread.start()
    try:
        assert held.wait(timeout=10)
        with warnings.catch_warnings():
            # Python 3.12+ warns about forking a multi-threaded process;
            # that hazard is exactly what this test exercises.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                with single_threaded_blas():
                    inside = _threads(libraries)
                outside = _threads(libraries)
                ok = inside == [1] * len(libraries) and outside == [AMBIENT] * len(libraries)
                code = 0 if ok else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child deadlocked entering the scope")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
