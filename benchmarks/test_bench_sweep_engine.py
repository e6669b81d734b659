"""Benchmark: the parallel sweep engine against serial evaluation.

The grid is twelve exact spectral solves around the paper's Figure-5 region
(``N = 10..13`` at three arrival rates), about 9.7e7 units of ``N·s³`` work.
That is under the break-even from which ``parallel=True`` fans a batch out
over worker processes (:data:`repro.solvers.facade.POOL_BREAK_EVEN_WORK`),
so both sides solve the grid serially in-process.
``test_parallel_speedup`` times both paths, prints the speedup and asserts
that they agree; the two timed benchmarks document the engine's overhead.

Run with ``pytest benchmarks/test_bench_sweep_engine.py --benchmark-only -s``.
"""

from __future__ import annotations

import time

from repro.queueing import sun_fitted_model
from repro.sweeps import SolverPolicy, SweepRunner, SweepSpec, default_max_workers


def sweep_spec() -> SweepSpec:
    """Twelve spectral solves over the Figure-5 neighbourhood."""
    return SweepSpec(
        base_model=sun_fitted_model(num_servers=10, arrival_rate=7.0),
        axes=[("arrival_rate", (7.0, 8.0, 8.5)), ("num_servers", (10, 11, 12, 13))],
        policy=SolverPolicy(order=("spectral",)),
        name="bench-sweep",
    )


def test_bench_sweep_serial(run_once):
    results = run_once(SweepRunner(parallel=False, cache=False).run, sweep_spec())
    assert len(results) == 12
    assert all(row.solver == "spectral" for row in results)


def test_bench_sweep_parallel(run_once):
    runner = SweepRunner(parallel=True, cache=False)
    results = run_once(runner.run, sweep_spec())
    assert len(results) == 12
    assert all(row.solver == "spectral" for row in results)


def test_parallel_speedup():
    """Parallel and serial evaluation give identical results.

    The timings are printed for information only: a wall-clock race between
    the two paths is not deterministic on a shared host, so speed belongs to
    the baseline-relative bench gates, not to tier-1.
    """
    workers = default_max_workers()
    spec = sweep_spec()

    start = time.perf_counter()
    serial = SweepRunner(parallel=False, cache=False).run(spec)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = SweepRunner(parallel=True, cache=False).run(spec)
    parallel_seconds = time.perf_counter() - start

    speedup = serial_seconds / parallel_seconds if parallel_seconds > 0 else float("inf")
    print(
        f"\nsweep of {len(serial)} points: serial {serial_seconds:.2f}s, "
        f"parallel {parallel_seconds:.2f}s on {workers} worker(s) "
        f"-> speedup {speedup:.2f}x"
    )

    # The engine guarantees identical results on both paths.
    assert [row.metrics for row in parallel] == [row.metrics for row in serial]
