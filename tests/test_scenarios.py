"""Tests of the scenario library: groups, repair crews, CTMC and presets.

The headline guarantees pinned here:

* a ``K = 1, R = N`` scenario is the paper's model — the generalised
  environment reproduces the homogeneous one exactly and the scenario CTMC
  agrees with the homogeneous spectral and CTMC solvers to 1e-8;
* the limited repair crew scales inoperative completion rates with
  ``min(broken, R)``;
* scenarios dispatch correctly through the solver registry: ``ctmc`` and
  ``simulate`` accept them, ``spectral``/``geometric`` raise
  :class:`UnsupportedScenarioError` and fallback chains skip past them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import Deterministic, Exponential, HyperExponential
from repro.exceptions import (
    ParameterError,
    UnstableQueueError,
    UnsupportedScenarioError,
)
from repro.markov import ScenarioEnvironment
from repro.queueing import UnreliableQueueModel
from repro.scenarios import (
    SCENARIO_PRESETS,
    ScenarioModel,
    ServerGroup,
    preset_description,
    preset_names,
    scenario_preset,
)
from repro.solvers import SolutionCache, SolverPolicy, solve
from repro.solvers.registry import default_registry

OPERATIVE = HyperExponential(weights=[0.6, 0.4], rates=[0.2, 0.02])
REPAIR = Exponential(rate=2.0)


def _one_group_scenario(**overrides) -> ScenarioModel:
    parameters = {
        "groups": (
            ServerGroup(
                name="servers",
                size=2,
                service_rate=1.0,
                operative=OPERATIVE,
                inoperative=REPAIR,
            ),
        ),
        "arrival_rate": 1.0,
    }
    parameters.update(overrides)
    return ScenarioModel(**parameters)


def _two_group_scenario(repair_capacity=None, arrival_rate=1.2) -> ScenarioModel:
    return ScenarioModel(
        groups=(
            ServerGroup("fast", 2, 1.5, Exponential(rate=0.1), Exponential(rate=5.0)),
            ServerGroup("slow", 2, 0.5, Exponential(rate=0.05), Exponential(rate=2.0)),
        ),
        arrival_rate=arrival_rate,
        repair_capacity=repair_capacity,
    )


class TestServerGroup:
    def test_validates_parameters(self):
        with pytest.raises(ParameterError):
            ServerGroup("g", 0, 1.0, OPERATIVE, REPAIR)
        with pytest.raises(ParameterError):
            ServerGroup("g", 2, -1.0, OPERATIVE, REPAIR)
        with pytest.raises(ParameterError):
            ServerGroup("", 2, 1.0, OPERATIVE, REPAIR)

    def test_markovian_detection(self):
        assert ServerGroup("g", 1, 1.0, OPERATIVE, REPAIR).is_markovian
        deterministic = ServerGroup("g", 1, 1.0, Deterministic(value=3.0), REPAIR)
        assert not deterministic.is_markovian

    def test_parameter_key_distinguishes_parameterisations(self):
        a = ServerGroup("g", 2, 1.0, OPERATIVE, REPAIR)
        b = ServerGroup("g", 2, 1.0, OPERATIVE, Exponential(rate=3.0))
        assert a.parameter_key() != b.parameter_key()


class TestScenarioModel:
    def test_requires_groups_and_unique_names(self):
        with pytest.raises(ParameterError):
            ScenarioModel(groups=(), arrival_rate=1.0)
        with pytest.raises(ParameterError, match="duplicate server-group names"):
            ScenarioModel(
                groups=(
                    ServerGroup("g", 1, 1.0, OPERATIVE, REPAIR),
                    ServerGroup("g", 1, 1.0, OPERATIVE, REPAIR),
                ),
                arrival_rate=1.0,
            )

    def test_counts_and_capacity(self):
        scenario = _two_group_scenario()
        assert scenario.num_servers == 4
        assert scenario.num_groups == 2
        assert scenario.service_rates == (1.5, 0.5)
        # Full capacity with everything operative: 2*1.5 + 2*0.5 = 4.
        assert float(scenario.capacity_vector.max()) == pytest.approx(4.0)

    def test_effective_repair_capacity_clamps_to_num_servers(self):
        assert _two_group_scenario().effective_repair_capacity == 4
        assert _two_group_scenario(repair_capacity=1).effective_repair_capacity == 1
        assert _two_group_scenario(repair_capacity=99).effective_repair_capacity == 4

    def test_group_lookup_and_with_group(self):
        scenario = _two_group_scenario()
        assert scenario.group("fast").size == 2
        with pytest.raises(ParameterError, match="no server group"):
            scenario.group("turbo")
        slower = scenario.with_group("slow", service_rate=0.25)
        assert slower.group("slow").service_rate == 0.25
        assert slower.group("fast").service_rate == 1.5
        with pytest.raises(ParameterError, match="cannot change group field"):
            scenario.with_group("slow", name="renamed")

    def test_limited_crew_reduces_capacity_and_stability(self):
        unlimited = _two_group_scenario()
        starved = _two_group_scenario(repair_capacity=1)
        assert starved.mean_service_capacity < unlimited.mean_service_capacity
        assert starved.effective_load > unlimited.effective_load

    def test_require_stable_raises_for_overload(self):
        scenario = _two_group_scenario(arrival_rate=50.0)
        assert not scenario.is_stable
        with pytest.raises(UnstableQueueError):
            scenario.require_stable()

    def test_service_capacity_by_level_fastest_first(self):
        scenario = _two_group_scenario()
        capacities = scenario.service_capacity_by_level
        environment = scenario.environment
        all_up = environment.mode_of((((2,), (0,)), ((2,), (0,))))
        # Levels fill the fast servers (1.5 each) before the slow ones (0.5).
        assert capacities[0, all_up] == 0.0
        assert capacities[1, all_up] == pytest.approx(1.5)
        assert capacities[2, all_up] == pytest.approx(3.0)
        assert capacities[3, all_up] == pytest.approx(3.5)
        assert capacities[4, all_up] == pytest.approx(4.0)

    @pytest.mark.parametrize("repair_capacity", [None, 1])
    def test_service_capacity_by_level_matches_the_per_mode_loop(self, repair_capacity):
        scenario = ScenarioModel(
            groups=(
                ServerGroup("mid", 2, 0.7, OPERATIVE, REPAIR),
                ServerGroup("fast", 3, 1.3, Exponential(rate=0.1), Exponential(rate=5.0)),
                ServerGroup("slow", 2, 0.45, Exponential(rate=0.05), Exponential(rate=2.0)),
            ),
            arrival_rate=1.0,
            repair_capacity=repair_capacity,
        )
        counts = scenario.environment.operative_counts_by_group
        order = np.argsort(-np.asarray(scenario.service_rates), kind="stable")
        expected = np.zeros((scenario.num_servers + 1, scenario.environment.num_modes))
        for mode in range(scenario.environment.num_modes):
            rates = [
                scenario.groups[position].service_rate
                for position in order
                for _ in range(int(counts[mode, position]))
            ]
            cumulative = np.cumsum([0.0, *rates])
            for level in range(scenario.num_servers + 1):
                expected[level, mode] = cumulative[min(level, len(rates))]
        np.testing.assert_allclose(
            scenario.service_capacity_by_level, expected, rtol=1e-14, atol=0.0
        )

    def test_solution_key_separates_distinct_scenarios(self):
        base = _two_group_scenario()
        assert base.solution_key() != base.with_repair_capacity(1).solution_key()
        assert base.solution_key() != base.with_arrival_rate(2.0).solution_key()
        assert base.solution_key() != base.with_group("slow", size=1).solution_key()
        # The label does not participate: same parameters share cached work.
        from dataclasses import replace

        assert base.solution_key() == replace(base, name="other").solution_key()


class TestScenarioEnvironment:
    def test_product_mode_space(self):
        environment = _two_group_scenario().environment
        # Each exponential/exponential group of 2 servers has 3 local modes.
        assert environment.num_modes == 9
        assert environment.group_sizes == (2, 2)

    def test_reduces_to_homogeneous_environment(self):
        model = UnreliableQueueModel(
            num_servers=3,
            arrival_rate=1.0,
            service_rate=1.0,
            operative=OPERATIVE,
            inoperative=REPAIR,
        )
        scenario = ScenarioEnvironment(groups=[(3, OPERATIVE, REPAIR)])
        assert scenario.num_modes == model.num_modes
        assert scenario.modes == model.environment.modes
        np.testing.assert_array_equal(
            scenario.transition_matrix, model.environment.transition_matrix
        )
        assert scenario.availability == pytest.approx(model.availability)
        np.testing.assert_array_equal(
            ScenarioModel.from_homogeneous(model).service_capacity_by_level,
            model.service_capacity_by_level,
        )

    def test_repair_rates_scale_with_crew_limit(self):
        unlimited = ScenarioEnvironment(groups=[(3, Exponential(rate=0.5), REPAIR)])
        limited = ScenarioEnvironment(
            groups=[(3, Exponential(rate=0.5), REPAIR)], repair_capacity=1
        )
        # Mode with all three servers broken: repairs run at eta * min(3, R).
        broken_mode = unlimited.mode_of((((0,), (3,)),))
        total_unlimited = unlimited.transition_matrix[broken_mode].sum()
        total_limited = limited.transition_matrix[broken_mode].sum()
        assert total_unlimited == pytest.approx(3 * 2.0)
        assert total_limited == pytest.approx(1 * 2.0)
        # Breakdown rates are crew-independent.
        up_mode = unlimited.mode_of((((3,), (0,)),))
        assert unlimited.transition_matrix[up_mode].sum() == pytest.approx(
            limited.transition_matrix[up_mode].sum()
        )

    def test_limited_crew_lowers_availability(self):
        unlimited = ScenarioEnvironment(groups=[(3, Exponential(rate=0.5), REPAIR)])
        limited = ScenarioEnvironment(
            groups=[(3, Exponential(rate=0.5), REPAIR)], repair_capacity=1
        )
        assert limited.availability < unlimited.availability

    def test_service_capacities_shape_check(self):
        environment = _two_group_scenario().environment
        with pytest.raises(ParameterError):
            environment.service_capacities([1.0])


class TestHomogeneousEquivalence:
    """Pinned: K = 1, R = N scenarios reproduce the homogeneous solvers to 1e-8."""

    def _pair(self):
        model = UnreliableQueueModel(
            num_servers=2,
            arrival_rate=1.0,
            service_rate=1.0,
            operative=OPERATIVE,
            inoperative=REPAIR,
        )
        return model, ScenarioModel.from_homogeneous(model)

    def test_scenario_ctmc_matches_spectral_to_1e8(self):
        model, scenario = self._pair()
        spectral = model.solve_spectral()
        solution = scenario.solve_ctmc()
        assert solution.mean_queue_length == pytest.approx(
            spectral.mean_queue_length, abs=1e-8
        )
        assert solution.mean_response_time == pytest.approx(
            spectral.mean_response_time, abs=1e-8
        )
        assert solution.probability_empty == pytest.approx(
            spectral.probability_empty, abs=1e-8
        )

    def test_scenario_ctmc_matches_homogeneous_ctmc_to_1e8(self):
        model, scenario = self._pair()
        homogeneous = model.solve_ctmc()
        solution = scenario.solve_ctmc()
        assert solution.mean_queue_length == pytest.approx(
            homogeneous.mean_queue_length, abs=1e-8
        )
        for level in range(10):
            assert solution.queue_length_pmf(level) == pytest.approx(
                homogeneous.queue_length_pmf(level), abs=1e-10
            )

    def test_stability_condition_reduces(self):
        model, scenario = self._pair()
        assert scenario.effective_load == pytest.approx(model.effective_load)
        assert scenario.is_stable == model.is_stable

    def test_round_trip_conversions(self):
        model, scenario = self._pair()
        assert scenario.as_homogeneous() == model
        with pytest.raises(ParameterError, match="no homogeneous equivalent"):
            _one_group_scenario(repair_capacity=1).as_homogeneous()
        with pytest.raises(ParameterError, match="single-group"):
            _two_group_scenario().as_homogeneous()


class TestScenarioCTMC:
    def test_distribution_is_normalised(self):
        solution = _two_group_scenario(repair_capacity=1).solve_ctmc()
        total = sum(solution.queue_length_pmf(j) for j in range(solution.truncation_level + 1))
        assert total == pytest.approx(1.0, abs=1e-9)
        assert solution.truncation_mass() < 1e-9

    def test_throughput_matches_arrival_rate(self):
        scenario = _two_group_scenario()
        solution = scenario.solve_ctmc()
        assert solution.throughput == pytest.approx(scenario.arrival_rate, rel=1e-6)

    def test_limited_crew_inflates_queue(self):
        base = _two_group_scenario()
        starved = _two_group_scenario(repair_capacity=1)
        assert (
            starved.solve_ctmc().mean_queue_length > base.solve_ctmc().mean_queue_length
        )

    def test_explicit_truncation_level_validated(self):
        scenario = _two_group_scenario()
        from repro.exceptions import SolverError

        with pytest.raises(SolverError):
            scenario.solve_ctmc(max_queue_length=scenario.num_servers)

    def test_unstable_scenario_rejected(self):
        with pytest.raises(UnstableQueueError):
            _two_group_scenario(arrival_rate=10.0).solve_ctmc()


class TestSolverDispatch:
    def test_spectral_and_geometric_raise_unsupported(self):
        # Spectral expansion solves scenario chains exactly; the geometric
        # approximation is derived for the homogeneous pool only.
        scenario = _two_group_scenario()
        registry = default_registry()
        assert registry.get("spectral").supports(scenario)
        solver = registry.get("geometric")
        assert not solver.supports(scenario)
        assert "scenario" in solver.unsupported_reason(scenario)
        with pytest.raises(UnsupportedScenarioError):
            solver.solve(scenario)

    def test_fallback_chain_skips_to_ctmc(self):
        scenario = _two_group_scenario()
        outcome = solve(scenario, ("geometric", "ctmc"), cache=False)
        assert outcome.solver == "ctmc"
        assert outcome.stable
        assert outcome.metrics["mean_queue_length"] == pytest.approx(
            scenario.solve_ctmc().mean_queue_length
        )
        assert "utilisation" in outcome.metrics

    def test_homogeneous_only_chain_reports_all_failures(self):
        # Deterministic periods put the scenario beyond 'spectral' too.
        scenario = _two_group_scenario().with_group("fast", operative=Deterministic(value=10.0))
        outcome = solve(scenario, ("spectral", "geometric"), cache=False)
        assert outcome.solver is None
        assert outcome.stable
        assert "spectral" in outcome.error and "geometric" in outcome.error

    def test_unstable_scenario_yields_infinite_metrics(self):
        outcome = solve(_two_group_scenario(arrival_rate=10.0), "ctmc", cache=False)
        assert not outcome.stable
        assert outcome.metrics["mean_queue_length"] == np.inf

    def test_simulate_backend_accepts_scenarios(self):
        policy = SolverPolicy(
            order=("simulate",), simulate_horizon=2_000.0, simulate_num_batches=5
        )
        outcome = solve(_two_group_scenario(), policy, cache=False)
        assert outcome.solver == "simulate"
        assert outcome.metrics["mean_queue_length"] > 0.0

    def test_cache_distinguishes_repair_capacity(self):
        cache = SolutionCache()
        base = _two_group_scenario()
        first = solve(base, "ctmc", cache=cache)
        again = solve(base, "ctmc", cache=cache)
        other = solve(base.with_repair_capacity(1), "ctmc", cache=cache)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["solves"] == 2
        assert first.metrics == again.metrics
        assert other.metrics["mean_queue_length"] > first.metrics["mean_queue_length"]


class TestPresets:
    def test_registry_contents(self):
        assert set(preset_names()) == set(SCENARIO_PRESETS)
        for name in ("two-speed-cluster", "single-repairman", "legacy-homogeneous"):
            assert name in preset_names()
        for name in preset_names():
            assert preset_description(name)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ParameterError, match="unknown scenario preset"):
            scenario_preset("warp-drive")

    def test_presets_build_stable_scenarios(self):
        for name in preset_names():
            scenario = scenario_preset(name)
            assert scenario.name == name
            assert scenario.is_stable, name

    def test_overrides(self):
        scenario = scenario_preset("two-speed-cluster", arrival_rate=0.5, repair_capacity=2)
        assert scenario.arrival_rate == 0.5
        assert scenario.effective_repair_capacity == 2

    def test_legacy_homogeneous_matches_spectral(self):
        scenario = scenario_preset("legacy-homogeneous")
        spectral = scenario.as_homogeneous().solve_spectral()
        assert scenario.solve_ctmc().mean_queue_length == pytest.approx(
            spectral.mean_queue_length, abs=1e-8
        )


class TestNonMarkovianScenarios:
    """Scenarios with general period distributions stay solvable (by simulation)."""

    def _deterministic_scenario(self) -> ScenarioModel:
        return ScenarioModel(
            groups=(
                ServerGroup(
                    "servers", 2, 1.0, Deterministic(value=30.0), Exponential(rate=5.0)
                ),
            ),
            arrival_rate=0.8,
        )

    def test_stability_uses_matched_means(self):
        scenario = self._deterministic_scenario()
        assert not scenario.is_markovian
        # Unlimited crew: availability depends on the period means only, so
        # the stability condition is exact: 2 * 1.0 * 30 / 30.2.
        assert scenario.mean_service_capacity == pytest.approx(2 * 30.0 / 30.2)
        assert scenario.is_stable

    def test_facade_falls_through_to_simulate(self):
        scenario = self._deterministic_scenario()
        policy = SolverPolicy(
            order=("spectral", "ctmc", "simulate"),
            simulate_horizon=2_000.0,
            simulate_num_batches=5,
        )
        outcome = solve(scenario, policy, cache=False)
        assert outcome.solver == "simulate"
        assert outcome.metrics["mean_queue_length"] > 0.0

    def test_limited_crew_stability_heuristic_is_finite(self):
        scenario = ScenarioModel(
            groups=(
                ServerGroup(
                    "servers", 2, 1.0, Deterministic(value=30.0), Exponential(rate=5.0)
                ),
            ),
            arrival_rate=0.8,
            repair_capacity=1,
        )
        assert 0.0 < scenario.mean_service_capacity <= 2.0
        assert scenario.is_stable

    def test_group_labels_do_not_fragment_the_cache(self):
        fast = ServerGroup("alpha", 2, 1.0, OPERATIVE, REPAIR)
        renamed = ServerGroup("beta", 2, 1.0, OPERATIVE, REPAIR)
        a = ScenarioModel(groups=(fast,), arrival_rate=1.0)
        b = ScenarioModel(groups=(renamed,), arrival_rate=1.0)
        assert a.solution_key() == b.solution_key()
