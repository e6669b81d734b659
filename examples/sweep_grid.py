"""Evaluate a user-defined parameter grid with the sweep engine.

The paper's Section-4 experiments are all parameter sweeps; this example
shows how to run your own with :mod:`repro.sweeps`: a grid over the number of
servers and the arrival rate, solved exactly with automatic fallback to the
geometric approximation, and exported to CSV for plotting.

``SweepRunner(parallel=True)`` lets a grid fan out over worker processes
when its estimated work pays for the pool.  This 16-point grid is about
7.4e7 units of ``N·s³`` work, under the break-even
(:data:`repro.solvers.facade.POOL_BREAK_EVEN_WORK`, 2.5e8, about two
``N = 20`` solves), so it runs serially in-process with the same numbers.
Larger grids, and every CTMC or simulation grid, fan out.

Run with::

    PYTHONPATH=src python examples/sweep_grid.py

The same sweep is available from the command line::

    PYTHONPATH=src python -m repro sweep \
        --servers 9,10,11,12 --arrival-rates 6.5,7.0,7.5,8.0 \
        --parallel --csv sweep.csv
"""

from __future__ import annotations

from repro.queueing import sun_fitted_model
from repro.sweeps import SolverPolicy, SweepRunner, SweepSpec


def main() -> None:
    spec = SweepSpec(
        base_model=sun_fitted_model(num_servers=10, arrival_rate=7.0),
        axes=[
            ("num_servers", (9, 10, 11, 12)),
            ("arrival_rate", (6.5, 7.0, 7.5, 8.0)),
        ],
        policy=SolverPolicy(order=("spectral", "geometric")),
        name="example-grid",
    )
    runner = SweepRunner(parallel=True)
    results = runner.run(spec)

    print(f"{'N':>3}  {'lambda':>6}  {'solver':>9}  {'L':>8}  {'W':>7}")
    for row in results:
        print(
            f"{row.parameters['num_servers']:>3}  "
            f"{row.parameters['arrival_rate']:>6.2f}  "
            f"{(row.solver or '-'):>9}  "
            f"{row.metric('mean_queue_length'):>8.4f}  "
            f"{row.metric('mean_response_time'):>7.4f}"
        )

    path = results.to_csv("sweep_grid.csv")
    print(f"\nwrote {path} ({len(results)} rows); cache: {runner.cache_info()}")


if __name__ == "__main__":
    main()
