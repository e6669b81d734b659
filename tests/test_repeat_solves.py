"""A repeated solve gives the bit-identical answer, whatever was solved in between.

The sparse-chain kernels build their factors, weights and buffers inside each
call: the aggregation-disaggregation steady state of a lumped chain, the
transient uniformization sweep and the absorbing sweeps of first passages.
These tests solve each of them, then other models, then the first ones
again, and require the same bits, so any state that outlives a call (a
module-level cache, a buffer reused across calls, a factor keyed by object
identity) shows up as a changed answer.
"""

from __future__ import annotations

import numpy as np

from repro.distributions import Exponential
from repro.obs.metrics import numerics_registry
from repro.queueing import sun_fitted_model
from repro.scenarios import ScenarioModel, ServerGroup, scenario_preset, solve_scenario_ctmc
from repro.transient import first_passage_time, solve_transient

#: The level of the lumped chains: 729 modes x 61 levels is above the direct
#: path's fill budget, so these chains take the aggregation-disaggregation path.
LUMPED_LEVEL = 60


def _lumped_model(arrival_rate: float) -> ScenarioModel:
    """A K = 3 lumped chain with groups of 8 (729 modes)."""
    groups = tuple(
        ServerGroup(
            name=name,
            size=8,
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
    return ScenarioModel(
        groups=groups, arrival_rate=arrival_rate, repair_capacity=3, name="lumped-8"
    )


def _iad_solves() -> float:
    return numerics_registry().counter(
        "repro_steady_state_solves_total", labels={"path": "iad"}
    ).value


def _answers() -> dict[str, np.ndarray]:
    pool = sun_fitted_model(num_servers=3, arrival_rate=1.6)
    down = first_passage_time(pool, (10.0, 100.0), target="all-servers-down")
    queue = first_passage_time(
        pool, (1.0, 10.0, 100.0), target="queue-exceeds", queue_threshold=8
    )
    transient = solve_transient(sun_fitted_model(num_servers=4, arrival_rate=2.4), (1.0, 5.0, 20.0))
    return {
        "lumped": solve_scenario_ctmc(_lumped_model(14.0), LUMPED_LEVEL).probabilities_by_level,
        "transient": np.array(
            [transient.distribution_at(t) for t in transient.times]
        ),
        "first_passage_down": np.array([down.mean, *down.cdf]),
        "first_passage_queue": np.array([queue.mean, *queue.cdf]),
    }


def _other_solves() -> None:
    solve_scenario_ctmc(_lumped_model(12.0), LUMPED_LEVEL)
    solve_transient(scenario_preset("two-speed-cluster"), (0.0, 2.0, 50.0))
    solve_transient(sun_fitted_model(num_servers=2, arrival_rate=0.9), (3.0,))
    first_passage_time(
        sun_fitted_model(num_servers=4, arrival_rate=2.0), (5.0,), target="all-servers-down"
    )
    first_passage_time(
        scenario_preset("single-repairman"), (1.0, 30.0), target="queue-exceeds",
        queue_threshold=3,
    )


def test_repeated_solves_are_bit_identical():
    before = _iad_solves()
    first = _answers()
    assert _iad_solves() - before == 1
    _other_solves()
    again = _answers()
    for name, answer in first.items():
        assert np.array_equal(again[name], answer), name
