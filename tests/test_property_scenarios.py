"""Property-based cross-validation of the scenario solver stack.

Hypothesis draws random *stable* scenario configurations — one or two server
groups with their own sizes, speeds and failure/repair rates, and a random
repair-crew limit — and asserts that the truncated-CTMC solution and the
discrete-event simulation agree on utilisation and mean queue length.  The
two implementations share no code beyond the model definition, so agreement
over a random family of configurations is strong evidence that both the
product-mode generator and the event engine implement the same process.

The same draws pin the exact spectral solution of each chain against its
truncated CTMC.  ``derandomize=True`` pins the drawn examples, so the tests
are deterministic across runs and CI machines (the simulator is seeded
explicitly).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributions import Exponential
from repro.scenarios import ScenarioModel, ServerGroup


@st.composite
def stable_scenarios(draw) -> ScenarioModel:
    """A random stable scenario with 1-2 groups and a random crew limit."""
    num_groups = draw(st.integers(min_value=1, max_value=2))
    groups = []
    for index in range(num_groups):
        groups.append(
            ServerGroup(
                name=f"group{index}",
                size=draw(st.integers(min_value=1, max_value=2)),
                service_rate=draw(
                    st.floats(min_value=0.5, max_value=2.0, allow_nan=False)
                ),
                operative=Exponential(
                    rate=draw(st.floats(min_value=0.05, max_value=0.3))
                ),
                inoperative=Exponential(
                    rate=draw(st.floats(min_value=1.0, max_value=5.0))
                ),
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


@given(scenario=stable_scenarios())
@settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_ctmc_agrees_with_simulation(scenario: ScenarioModel):
    assert scenario.is_stable
    solution = scenario.solve_ctmc()
    estimate = scenario.simulate(horizon=30_000.0, seed=2006)
    interval = estimate.mean_queue_length

    # Mean queue length: within the simulation confidence interval (with a
    # guard band for the batch-means CI's own estimation error).
    tolerance = 4.0 * interval.half_width + 0.05
    assert abs(solution.mean_queue_length - interval.estimate) <= tolerance, (
        f"CTMC L={solution.mean_queue_length:.4f} vs simulation "
        f"{interval.estimate:.4f} +- {interval.half_width:.4f} for {scenario!r}"
    )

    # Utilisation: both sides measure mean busy servers / N.
    assert abs(solution.utilisation - estimate.utilisation) <= 0.025, (
        f"CTMC util={solution.utilisation:.4f} vs simulation "
        f"{estimate.utilisation:.4f} for {scenario!r}"
    )


@given(scenario=stable_scenarios())
@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_spectral_agrees_with_ctmc(scenario: ScenarioModel):
    """The exact solve of the same chain matches its truncation."""
    solution = scenario.solve_spectral()
    reference = scenario.solve_ctmc()
    assert reference.truncation_mass() < 1e-9
    assert solution.mean_queue_length == pytest.approx(reference.mean_queue_length, rel=1e-7)
    assert solution.throughput == pytest.approx(scenario.arrival_rate, rel=1e-9)
