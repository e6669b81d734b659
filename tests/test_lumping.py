"""Lumped-vs-product equivalence of the scenario chain.

The scenario solvers work in the lumped, count-based mode space; the
per-server-labelled product chain (the oracle in ``product_chain.py``) is
the ground truth the lumping must reproduce.  Exchangeability makes the
product chain strongly lumpable, so after aggregating through the lumping
map the two solves must agree to solver precision — not statistically,
*numerically*.  These tests pin that
equivalence at ``1e-10`` for every named preset (steady state and transient
trajectories alike) and, via hypothesis, over a family of random stable
scenarios whose product spaces are still small enough to build.

Both chains are solved at the *same* truncation level so the truncation
bias cancels exactly and the comparison isolates the lumping.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from product_chain import (
    product_environment,
    solve_product_ctmc,
    solve_product_transient,
)

from repro.distributions import Exponential, HyperExponential
from repro.scenarios import (
    ScenarioModel,
    ServerGroup,
    preset_names,
    scenario_preset,
    solve_scenario_ctmc,
)
from repro.transient import solve_transient

#: The pinned agreement tolerance: lumping is exact, so the two solves may
#: differ only by linear-solver noise.
TOLERANCE = 1e-10

#: Transient comparison grid (three points: early ramp, mid, near-stationary).
TRANSIENT_TIMES = (1.0, 5.0, 20.0)


def _marginals(probabilities: np.ndarray) -> np.ndarray:
    totals = probabilities.sum(axis=0)
    return totals / totals.sum()


class TestPresetSteadyStateEquivalence:
    @pytest.mark.parametrize("name", preset_names())
    def test_lumped_matches_product(self, name: str):
        scenario = scenario_preset(name)
        level = scenario.num_servers + 25
        lumped = solve_scenario_ctmc(scenario, level)
        product = solve_product_ctmc(scenario, level)

        product_states = (level + 1) * scenario.environment.num_product_modes
        assert product_states > lumped.num_solved_states

        assert np.max(np.abs(lumped.probabilities_by_level - product)) <= TOLERANCE
        levels = np.arange(level + 1)
        assert abs(lumped.mean_queue_length - levels @ product.sum(axis=1)) <= TOLERANCE
        busy = np.minimum(scenario.environment.operative_counts, levels[:, None])
        product_utilisation = float(np.sum(product * busy)) / scenario.num_servers
        assert abs(lumped.utilisation - product_utilisation) <= TOLERANCE
        assert np.max(np.abs(lumped.mode_marginals() - _marginals(product))) <= TOLERANCE

    @pytest.mark.parametrize("name", preset_names())
    def test_product_mode_count_formula(self, name: str):
        scenario = scenario_preset(name)
        environment = scenario.environment
        expected_product = 1
        expected_lumped = 1
        for group in scenario.groups:
            phases = (
                _num_phases(group.operative) + _num_phases(group.inoperative)
            )
            expected_product *= phases**group.size
            expected_lumped *= math.comb(group.size + phases - 1, phases - 1)
        assert environment.num_product_modes == expected_product
        assert environment.num_modes == expected_lumped
        assert expected_product >= expected_lumped


def _num_phases(distribution) -> int:
    if isinstance(distribution, HyperExponential):
        return int(distribution.rates.size)
    return 1


class TestPresetTransientEquivalence:
    @pytest.mark.parametrize("name", preset_names())
    def test_trajectories_match(self, name: str):
        scenario = scenario_preset(name)
        level = scenario.num_servers + 20
        lumped = solve_transient(scenario, TRANSIENT_TIMES, max_queue_length=level)
        product = solve_product_transient(scenario, TRANSIENT_TIMES, level)

        for index, t in enumerate(TRANSIENT_TIMES):
            assert np.max(np.abs(lumped.distribution_at(t) - product[index])) <= TOLERANCE
        levels = np.arange(level + 1)
        product_mean = product.sum(axis=2) @ levels
        assert np.max(np.abs(lumped.mean_queue_length - product_mean)) <= TOLERANCE
        counts = scenario.environment.operative_counts
        product_availability = product.sum(axis=1) @ counts / scenario.num_servers
        assert np.max(np.abs(lumped.availability - product_availability)) <= TOLERANCE


@st.composite
def small_stable_scenarios(draw) -> ScenarioModel:
    """A random stable scenario whose product space is still buildable.

    Sizes are kept small (the product space grows as ``(n + m)^N``) and one
    group may get a two-phase operative period so the lumping is exercised
    beyond the exponential special case.
    """
    num_groups = draw(st.integers(min_value=1, max_value=2))
    groups = []
    for index in range(num_groups):
        if draw(st.booleans()):
            operative = HyperExponential(
                weights=[0.4, 0.6],
                rates=[
                    draw(st.floats(min_value=0.05, max_value=0.2)),
                    draw(st.floats(min_value=0.3, max_value=0.8)),
                ],
            )
        else:
            operative = Exponential(rate=draw(st.floats(min_value=0.05, max_value=0.3)))
        groups.append(
            ServerGroup(
                name=f"group{index}",
                size=draw(st.integers(min_value=1, max_value=3)),
                service_rate=draw(st.floats(min_value=0.5, max_value=2.0, allow_nan=False)),
                operative=operative,
                inoperative=Exponential(rate=draw(st.floats(min_value=1.0, max_value=5.0))),
            )
        )
    num_servers = sum(group.size for group in groups)
    repair_capacity = draw(st.integers(min_value=1, max_value=num_servers))
    scenario = ScenarioModel(
        groups=tuple(groups),
        arrival_rate=1.0,  # placeholder; replaced via the utilisation draw
        repair_capacity=repair_capacity,
    )
    utilisation = draw(st.floats(min_value=0.3, max_value=0.7))
    return scenario.with_arrival_rate(utilisation * scenario.mean_service_capacity)


@given(scenario=small_stable_scenarios())
@settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_scenarios_lump_exactly(scenario: ScenarioModel):
    assert scenario.is_stable
    level = scenario.num_servers + 15
    lumped = solve_scenario_ctmc(scenario, level)
    product = solve_product_ctmc(scenario, level)

    assert np.max(np.abs(lumped.mode_marginals() - _marginals(product))) <= TOLERANCE, (
        f"steady-state marginals diverge for {scenario!r}"
    )
    product_mean = float(np.arange(level + 1) @ product.sum(axis=1))
    assert abs(lumped.mean_queue_length - product_mean) <= TOLERANCE

    counts = scenario.environment.operative_counts
    availability_lumped = float(lumped.mode_marginals() @ counts) / scenario.num_servers
    availability_product = float(_marginals(product) @ counts) / scenario.num_servers
    assert abs(availability_lumped - availability_product) <= TOLERANCE

    lumped_t = solve_transient(scenario, TRANSIENT_TIMES, max_queue_length=level)
    product_t = solve_product_transient(scenario, TRANSIENT_TIMES, level)
    for index, t in enumerate(TRANSIENT_TIMES):
        assert np.max(np.abs(lumped_t.distribution_at(t) - product_t[index])) <= TOLERANCE, (
            f"transient law diverges at t={t} for {scenario!r}"
        )


def test_product_environment_steady_state_lumps_to_scenario_steady_state():
    scenario = scenario_preset("two-speed-cluster")
    environment = product_environment(scenario)
    lumped_from_product = environment.lump_distribution(
        environment.steady_state[np.newaxis, :]
    )[0]
    assert np.max(
        np.abs(lumped_from_product - scenario.environment.steady_state)
    ) <= TOLERANCE
