"""The paper's pool is the one-group, unlimited-crew :class:`ScenarioModel`.

:class:`UnreliableQueueModel` is a scenario under the paper's five-field
constructor.  Every solver reads it through the scenario class, and the
one-server shortcuts (the decay rate ``z_s``, the geometric law and the
truncated CTMC's sizing) apply to any model with one group and an unlimited
crew.  So a pool and the same system built as a plain scenario answer bit
for bit alike, and an unlimited crew's stability needs no environment solve.
"""

from __future__ import annotations

import pickle

import pytest

from repro.distributions import SUN_OPERATIVE_FIT, Exponential
from repro.exceptions import UnsupportedScenarioError
from repro.markov import ScenarioEnvironment
from repro.queueing import UnreliableQueueModel, sun_fitted_model
from repro.scenarios import ScenarioModel, preset_names, scenario_preset
from repro.scenarios.ctmc import default_truncation_level
from repro.solvers import solve
from repro.transient import solve_transient

#: The Sun fit's per-server availability (operative mean 34.62, repair mean 0.04).
AVAILABILITY = 34.62 / 34.66

#: ``(N, load)`` pairs of the parity test: the Sun fit at a light and a heavy load.
CASES = [(servers, load) for servers in (1, 3, 4, 8, 12) for load in (0.3, 0.9)]

#: The message every non-homogeneous scenario gets from ``geometric``.
GEOMETRIC_REFUSAL = (
    "the 'geometric' solver handles only the homogeneous model; scenario "
    "models (server groups, repair crews) need 'spectral', 'ctmc' or 'simulate'"
)


def _answers(model: ScenarioModel) -> dict[str, tuple]:
    spectral = model.solve_spectral()
    geometric = model.solve_geometric()
    ctmc = model.solve_ctmc()
    transient = solve_transient(model, times=(1.0, 5.0))
    simulated = model.simulate(horizon=200.0, seed=3)
    return {
        "spectral": (
            spectral.mean_queue_length,
            spectral.mean_response_time,
            spectral.probability_delay,
            spectral.throughput,
            spectral.decay_rate,
        ),
        "geometric": (
            geometric.mean_queue_length,
            geometric.decay_rate,
            tuple(geometric.mode_marginals()),
        ),
        "ctmc": (
            default_truncation_level(model),
            ctmc.truncation_level,
            ctmc.mean_queue_length,
            ctmc.utilisation,
        ),
        "transient": (tuple(transient.mean_queue_length), tuple(transient.availability)),
        "simulate": (
            simulated.mean_queue_length.estimate,
            simulated.mean_response_time.estimate,
            simulated.utilisation,
        ),
    }


@pytest.mark.parametrize(("servers", "load"), CASES)
def test_pool_and_its_scenario_answer_bit_identically(servers: int, load: float) -> None:
    pool = sun_fitted_model(servers, load * servers * AVAILABILITY)
    scenario = ScenarioModel.from_homogeneous(pool)
    assert type(scenario) is ScenarioModel
    assert pool.is_homogeneous and scenario.is_homogeneous
    assert _answers(scenario) == _answers(pool)


class TestThePoolIsAScenario:
    def _pool(self) -> UnreliableQueueModel:
        return UnreliableQueueModel(4, 2.0, 1.0, SUN_OPERATIVE_FIT, Exponential(rate=25.0))

    def test_it_keeps_its_dataclass_behaviour(self) -> None:
        pool = self._pool()
        by_keyword = UnreliableQueueModel(
            num_servers=4,
            arrival_rate=2.0,
            service_rate=1.0,
            operative=SUN_OPERATIVE_FIT,
            inoperative=Exponential(rate=25.0),
        )
        assert isinstance(pool, ScenarioModel)
        assert pool == by_keyword and hash(pool) == hash(by_keyword)
        assert pool != pool.with_servers(5)
        assert pickle.loads(pickle.dumps(pool)) == pool
        assert repr(pool) == (
            "UnreliableQueueModel(num_servers=4, arrival_rate=2.0, service_rate=1.0, "
            "operative=HyperExponential(weights=[0.7246, 0.2754], rates=[0.1663, 0.0091]), "
            "inoperative=Exponential(rate=25))"
        )

    def test_the_shortcut_flag_is_derived_and_read_only(self) -> None:
        pool = self._pool()
        with pytest.raises(AttributeError):
            pool.is_homogeneous = False
        assert not ScenarioModel.from_homogeneous(pool, repair_capacity=3).is_homogeneous
        assert ScenarioModel.from_homogeneous(pool, repair_capacity=4).is_homogeneous
        assert not scenario_preset("two-speed-cluster").is_homogeneous

    def test_no_constructor_takes_a_validated_flag(self) -> None:
        pool = self._pool()
        with pytest.raises(TypeError):
            UnreliableQueueModel(4, 2.0, 1.0, SUN_OPERATIVE_FIT, pool.inoperative, True)
        with pytest.raises(TypeError):
            ScenarioModel(groups=pool.groups, arrival_rate=2.0, _validated=True)


def _unlimited_crew_models() -> list[ScenarioModel]:
    """Fresh pools and every preset at ``R = N`` (their stability is not cached yet)."""
    pools = [sun_fitted_model(servers, 0.7 * servers) for servers in (1, 4, 12)]
    presets = [scenario_preset(name) for name in preset_names()]
    return pools + [preset.with_repair_capacity(preset.num_servers) for preset in presets]


class TestClosedFormStability:
    def test_unlimited_crews_never_solve_the_environment(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        expected = [
            float(model.environment.steady_state @ model.capacity_vector)
            for model in _unlimited_crew_models()
        ]

        def refuse(environment: ScenarioEnvironment) -> None:
            raise AssertionError("an unlimited crew solved its environment")

        monkeypatch.setattr(ScenarioEnvironment, "steady_state", property(refuse))
        for model, capacity in zip(_unlimited_crew_models(), expected):
            assert model.is_stable == (model.arrival_rate < capacity)
            assert model.mean_service_capacity == pytest.approx(capacity, rel=1e-14, abs=0.0)
        with pytest.raises(AssertionError, match="solved its environment"):
            scenario_preset("single-repairman", repair_capacity=1).is_stable


class TestOneServerShortcutsOnScenarios:
    @pytest.mark.parametrize(
        "scenario",
        [
            scenario_preset("legacy-homogeneous"),
            scenario_preset("single-repairman", repair_capacity=3),
        ],
        ids=["legacy-homogeneous", "single-repairman-R3"],
    )
    def test_geometric_answers_one_group_with_an_unlimited_crew(
        self, scenario: ScenarioModel
    ) -> None:
        outcome = solve(scenario, "geometric", cache=False)
        pool = solve(scenario.as_homogeneous(), "geometric", cache=False)
        assert outcome.solver == "geometric"
        assert outcome.metrics == pool.metrics
        spectral = scenario.solve_spectral()
        assert spectral.decay_rate == scenario.as_homogeneous().solve_spectral().decay_rate

    def test_geometric_still_refuses_a_limited_crew(self) -> None:
        scenario = scenario_preset("single-repairman", repair_capacity=2)
        outcome = solve(scenario, "geometric", cache=False)
        assert outcome.solver is None
        assert GEOMETRIC_REFUSAL in outcome.error
        with pytest.raises(UnsupportedScenarioError):
            scenario.solve_geometric()
