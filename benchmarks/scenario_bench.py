"""Benchmark-tracking runner for the CI ``bench`` job (scenario workloads).

Times a fixed set of representative workloads (scenario CTMC solves,
scenario simulation, the sweep engine, the homogeneous spectral solver) and
tracks them against a committed baseline via the shared harness in
:mod:`_harness`.

Usage::

    # write BENCH_scenarios.json and fail on >2x regression vs the baseline
    python benchmarks/scenario_bench.py --quick \
        --output BENCH_scenarios.json --check benchmarks/BENCH_baseline.json

    # refresh the committed baseline after an intentional perf change
    python benchmarks/scenario_bench.py --quick \
        --update-baseline benchmarks/BENCH_baseline.json
"""

from __future__ import annotations

import sys
from collections.abc import Callable

from _harness import (  # noqa: F401 - re-exported for the bench unit tests
    BASELINE_PADDING,
    bench_main,
    check_against_baseline,
    run_benchmarks,
    write_results,
)


def _bench_scenario_ctmc_gallery(quick: bool) -> dict[str, object]:
    from repro.scenarios import preset_names, scenario_preset

    states = 0
    for name in preset_names():
        states += scenario_preset(name).solve_ctmc().num_solved_states
    return {"num_states": states}


def _bench_lumped_scenario(quick: bool) -> dict[str, object]:
    """A K=3, N=30 lumped solve whose product space would be astronomically large.

    Three groups of ten exponential servers give ``11^3 = 1331`` lumped modes
    against ``2^30 ~ 1.1e9`` per-server-labelled modes — the chain only exists
    because of the count-based lumping.  At the explicit truncation level the
    chain has ~81k states, which exercises the IAD steady-state path of the
    kernel layer (direct factorisation is far too fill-heavy here).
    """
    from repro.distributions import Exponential
    from repro.scenarios import ScenarioModel, ServerGroup

    model = ScenarioModel(
        groups=(
            ServerGroup(
                name="fast",
                size=10,
                service_rate=2.0,
                operative=Exponential(rate=0.05),
                inoperative=Exponential(rate=1.0),
            ),
            ServerGroup(
                name="mid",
                size=10,
                service_rate=1.0,
                operative=Exponential(rate=0.04),
                inoperative=Exponential(rate=0.8),
            ),
            ServerGroup(
                name="slow",
                size=10,
                service_rate=0.5,
                operative=Exponential(rate=0.03),
                inoperative=Exponential(rate=0.6),
            ),
        ),
        arrival_rate=20.0,
        repair_capacity=4,
        name="bench-lumped-30",
    )
    level = 60 if quick else 120
    solution = model.solve_ctmc(max_queue_length=level)
    environment = model.environment
    return {
        "num_modes": environment.num_modes,
        "num_levels": level + 1,
        "num_states": solution.num_solved_states,
        "num_product_modes": environment.num_product_modes,
    }


def _bench_scenario_simulation(quick: bool) -> None:
    from repro.scenarios import scenario_preset

    horizon = 10_000.0 if quick else 50_000.0
    scenario_preset("repair-starved-two-speed").simulate(horizon=horizon, seed=2006)


def _bench_scenario_sweep(quick: bool) -> None:
    from repro.scenarios import scenario_preset
    from repro.sweeps import SolverPolicy, SweepRunner, SweepSpec

    rates = (1.2, 1.5) if quick else (1.0, 1.2, 1.5, 1.8)
    spec = SweepSpec(
        base_model=scenario_preset("two-speed-cluster"),
        axes=[("repair_capacity", (1, 2, 4)), ("arrival_rate", rates)],
        policy=SolverPolicy(order=("ctmc",)),
        name="bench-scenario-sweep",
    )
    SweepRunner(cache=False).run(spec)


def _bench_homogeneous_spectral(quick: bool) -> None:
    from repro.queueing import sun_fitted_model
    from repro.solvers import SolutionCache, solve

    cache = SolutionCache()  # private cache: measure solves, not memoisation
    servers = 10 if quick else 14
    for arrival_rate in (6.0, 6.5, 7.0, 7.5, 8.0):
        solve(sun_fitted_model(servers, arrival_rate), "spectral", cache=cache)


#: The tracked benchmarks, in report order.
BENCHMARKS: dict[str, Callable[[bool], object]] = {
    "scenario_ctmc_gallery": _bench_scenario_ctmc_gallery,
    "lumped_scenario": _bench_lumped_scenario,
    "scenario_simulation": _bench_scenario_simulation,
    "scenario_sweep": _bench_scenario_sweep,
    "homogeneous_spectral": _bench_homogeneous_spectral,
}


def main(argv: list[str] | None = None) -> int:
    return bench_main(
        BENCHMARKS,
        description="scenario benchmark runner",
        default_output="BENCH_scenarios.json",
        argv=argv,
    )


if __name__ == "__main__":
    sys.exit(main())
