"""Tests for the unified solver layer (:mod:`repro.solvers`).

Covers the registry (built-ins, third-party registration, helpful errors),
the ``solve``/``solve_many`` facade (legacy-fallback parity, shared-cache
memoisation, batch deduplication under serial and parallel execution) and
the value-based distribution cache keys.
"""

from __future__ import annotations

import math
import warnings

import pytest

from repro.distributions import Deterministic, Exponential, HyperExponential
from repro.distributions.base import Distribution
from repro.exceptions import ParameterError, SimulationError, SolverError
from repro.obs.metrics import numerics_registry
from repro.queueing import UnreliableQueueModel, sun_fitted_model
from repro.solvers import (
    BUILTIN_SOLVER_NAMES,
    SolutionCache,
    SolveOutcome,
    Solver,
    SolverPolicy,
    SolverRegistry,
    as_policy,
    default_registry,
    distribution_key,
    evaluate,
    facade,
    get_solver,
    register_solver,
    solve,
    solve_many,
    solver_names,
    unregister_solver,
)
from repro.sweeps import SweepRunner, SweepSpec


def _legacy_evaluate(model: UnreliableQueueModel, policy: SolverPolicy):
    """The seed's fallback chain, reimplemented verbatim as the parity oracle.

    This mirrors the pre-registry sweep-runner dispatch (evaluate-point plus
    its per-name solve helper) so the facade can be checked against the exact
    behaviour it replaced: same chosen solver, same metrics, same stability
    handling.
    """
    if not model.is_stable:
        return (None, False, {"mean_queue_length": math.inf, "mean_response_time": math.inf}, None)
    failures = []
    for solver in policy.order:
        try:
            if solver == "spectral":
                solution = model.solve_spectral()
                metrics = {
                    "mean_queue_length": solution.mean_queue_length,
                    "mean_response_time": solution.mean_response_time,
                    "decay_rate": solution.decay_rate,
                }
            elif solver == "geometric":
                solution = model.solve_geometric()
                metrics = {
                    "mean_queue_length": solution.mean_queue_length,
                    "mean_response_time": solution.mean_response_time,
                    "decay_rate": solution.decay_rate,
                }
            elif solver == "ctmc":
                solution = model.solve_ctmc()
                metrics = {
                    "mean_queue_length": solution.mean_queue_length,
                    "mean_response_time": solution.mean_response_time,
                    "utilisation": solution.utilisation,
                    "num_solved_states": solution.num_solved_states,
                }
            elif solver == "simulate":
                estimate = model.simulate(
                    horizon=policy.simulate_horizon,
                    warmup_fraction=policy.simulate_warmup_fraction,
                    num_batches=policy.simulate_num_batches,
                    seed=policy.simulate_seed,
                )
                metrics = {
                    "mean_queue_length": estimate.mean_queue_length.estimate,
                    "mean_response_time": estimate.mean_response_time.estimate,
                    "utilisation": estimate.utilisation,
                }
            else:
                raise ParameterError(f"unknown solver {solver!r}")
        except (SolverError, ParameterError, SimulationError, NotImplementedError) as exc:
            failures.append(f"{solver}: {exc}")
            continue
        return (solver, True, metrics, None)
    return (None, True, {}, "; ".join(failures) or "no solver succeeded")


def _deterministic_model() -> UnreliableQueueModel:
    """Non-Markovian periods: every analytical solver must fall through."""
    return UnreliableQueueModel(
        num_servers=2,
        arrival_rate=0.5,
        service_rate=1.0,
        operative=Deterministic(value=30.0),
        inoperative=Exponential(rate=5.0),
    )


@pytest.fixture
def pools(monkeypatch):
    """The process pools ``solve_many`` creates: real pools, recorded."""
    created: list[object] = []

    class RecordingPool(facade.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(facade, "ProcessPoolExecutor", RecordingPool)
    return created


class ConstantSolver(Solver):
    """A trivial third-party backend used to test registration/fallback."""

    name = "constant"

    def __init__(self) -> None:
        self.calls = 0

    def solve(self, model, **options):
        self.calls += 1
        return model

    def metrics(self, solution) -> dict[str, float]:
        return {"mean_queue_length": 1.25, "mean_response_time": 2.5}


class TestRegistry:
    def test_builtins_registered_in_trusted_order(self):
        assert solver_names() == BUILTIN_SOLVER_NAMES == (
            "spectral",
            "geometric",
            "ctmc",
            "simulate",
            "transient",
        )
        for name in BUILTIN_SOLVER_NAMES:
            assert get_solver(name).name == name

    def test_unknown_name_lists_registered_solvers(self):
        with pytest.raises(ParameterError, match="spectral.*geometric.*ctmc.*simulate"):
            get_solver("mystery")

    def test_duplicate_registration_rejected_unless_replace(self):
        registry = SolverRegistry([ConstantSolver()])
        with pytest.raises(ParameterError, match="already registered"):
            registry.register(ConstantSolver())
        replacement = ConstantSolver()
        registry.register(replacement, replace=True)
        assert registry.get("constant") is replacement

    def test_solver_without_name_rejected(self):
        class Nameless(ConstantSolver):
            name = ""

        with pytest.raises(ParameterError, match="name"):
            SolverRegistry([Nameless()])

    def test_unregister_unknown_name(self):
        with pytest.raises(ParameterError, match="no solver named"):
            SolverRegistry().unregister("ghost")

    def test_registry_container_protocol(self):
        registry = default_registry()
        assert "spectral" in registry and "mystery" not in registry
        assert len(registry) >= 4
        assert {solver.name for solver in registry} >= set(BUILTIN_SOLVER_NAMES)


class TestPolicyCoercion:
    def test_as_policy_accepts_name_sequence_policy_none(self):
        assert as_policy(None) == SolverPolicy()
        assert as_policy("ctmc").order == ("ctmc",)
        assert as_policy(("spectral", "simulate")).order == ("spectral", "simulate")
        policy = SolverPolicy(order=("geometric",))
        assert as_policy(policy) is policy

    def test_as_policy_rejects_garbage(self):
        with pytest.raises(ParameterError):
            as_policy(42)

    def test_policy_rejects_unregistered_name_listing_solvers(self):
        with pytest.raises(ParameterError, match="registered solvers"):
            SolverPolicy(order=("qft",))


class TestFacadeLegacyParity:
    """The facade must reproduce the legacy fallback behaviour exactly."""

    @pytest.mark.parametrize(
        ("model", "order"),
        [
            # Stable Markovian model: spectral wins.
            (sun_fitted_model(num_servers=5, arrival_rate=3.5), ("spectral", "geometric")),
            # Approximation requested first.
            (sun_fitted_model(num_servers=5, arrival_rate=3.5), ("geometric", "spectral")),
            # Reference chain solver.
            (sun_fitted_model(num_servers=3, arrival_rate=1.5), ("ctmc",)),
            # Unstable model: no solver runs, infinite metrics.
            (sun_fitted_model(num_servers=2, arrival_rate=50.0), ("spectral", "geometric")),
            # Non-Markovian periods: everything falls through to simulate.
            (_deterministic_model(), ("spectral", "geometric", "simulate")),
            # Non-Markovian periods with no simulator in the chain: total failure.
            (_deterministic_model(), ("spectral", "geometric")),
        ],
    )
    def test_same_solver_and_metrics_as_legacy_chain(self, model, order):
        policy = SolverPolicy(order=order, simulate_horizon=2_000.0)
        legacy_solver, legacy_stable, legacy_metrics, legacy_error = _legacy_evaluate(
            model, policy
        )
        outcome = evaluate(model, policy)
        assert outcome.solver == legacy_solver
        assert outcome.stable == legacy_stable
        assert outcome.metrics == pytest.approx(legacy_metrics)
        assert (outcome.error is None) == (legacy_error is None)
        if legacy_error is not None:
            # The facade reports one diagnostic per failed solver, like the
            # legacy chain (messages may differ in wording, not structure).
            for name in order:
                assert f"{name}:" in outcome.error

    def test_outcome_unpacks_like_the_legacy_tuple(self):
        solver, stable, metrics, error = evaluate(
            sun_fitted_model(num_servers=5, arrival_rate=3.5), SolverPolicy()
        )
        assert solver == "spectral" and stable and error is None
        assert metrics["mean_queue_length"] > 0.0


class TestCustomSolverFallback:
    def test_registered_solver_participates_in_fallback(self):
        backend = ConstantSolver()
        register_solver(backend)
        try:
            policy = SolverPolicy(order=("spectral", "constant"))
            outcome = evaluate(_deterministic_model(), policy)
            assert outcome.solver == "constant"
            assert outcome.metrics == {"mean_queue_length": 1.25, "mean_response_time": 2.5}
            assert backend.calls == 1
            # A solver earlier in the chain that succeeds shadows it.
            outcome = evaluate(
                sun_fitted_model(num_servers=5, arrival_rate=3.5), policy
            )
            assert outcome.solver == "spectral"
            assert backend.calls == 1
        finally:
            unregister_solver("constant")
        with pytest.raises(ParameterError, match="registered solvers"):
            SolverPolicy(order=("constant",))

    def test_custom_registry_scopes_dispatch(self):
        registry = SolverRegistry([ConstantSolver()])
        outcome = evaluate(
            sun_fitted_model(num_servers=5, arrival_rate=3.5),
            SolverPolicy(order=("spectral",)),
            registry=registry,
        )
        # 'spectral' is not in the custom registry: the lookup failure is a
        # recorded fallback failure, not a crash.
        assert outcome.solver is None
        assert "spectral:" in outcome.error

    def test_custom_registry_can_supply_policy_names(self):
        """A name that exists only in a custom registry is dispatchable
        through the facade without touching the global registry."""
        registry = SolverRegistry([ConstantSolver()])
        assert "constant" not in default_registry()
        outcome = solve(
            sun_fitted_model(num_servers=5, arrival_rate=3.5),
            "constant",
            cache=False,
            registry=registry,
        )
        assert outcome.solver == "constant"
        assert outcome.metrics["mean_queue_length"] == 1.25
        # solve_many honours the same scoping.
        outcomes = solve_many(
            [sun_fitted_model(num_servers=5, arrival_rate=3.5)],
            ("constant",),
            cache=SolutionCache(),
            registry=registry,
        )
        assert outcomes[0].solver == "constant"
        # Outside the facade the name is still unknown.
        with pytest.raises(ParameterError, match="registered solvers"):
            SolverPolicy(order=("constant",))


class TestSolveCaching:
    def test_explicit_cache_memoises(self):
        cache = SolutionCache()
        model = sun_fitted_model(num_servers=5, arrival_rate=3.5)
        first = solve(model, "spectral", cache=cache)
        second = solve(model, "spectral", cache=cache)
        assert first == second
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "hit_rate": 0.5,
            "size": 1,
            "maxsize": None,
            "solves": 1,
            "evictions": 0,
            "spills": 0,
            "spilled_entries": 0,
            "loads": 0,
            "loaded_entries": 0,
        }

    def test_cached_metrics_are_isolated_from_caller_mutation(self):
        """Annotating a returned outcome must not poison the shared cache."""
        cache = SolutionCache()
        model = sun_fitted_model(num_servers=5, arrival_rate=3.5)
        first = solve(model, "geometric", cache=cache)
        pristine = dict(first.metrics)
        first.metrics["mean_queue_length"] = -1.0
        first.metrics["annotation"] = 42.0
        second = solve(model, "geometric", cache=cache)
        assert second.metrics == pristine
        second.metrics["poison"] = 1.0
        assert solve(model, "geometric", cache=cache).metrics == pristine

    def test_equal_models_share_cache_entries_across_instances(self):
        """Distinct-but-equal distribution objects hit the same cache key."""
        cache = SolutionCache()
        first = solve(
            UnreliableQueueModel(
                num_servers=5,
                arrival_rate=3.5,
                service_rate=1.0,
                operative=HyperExponential(weights=[0.7, 0.3], rates=[0.25, 0.02]),
                inoperative=Exponential(rate=4.0),
            ),
            "geometric",
            cache=cache,
        )
        second = solve(
            UnreliableQueueModel(
                num_servers=5,
                arrival_rate=3.5,
                service_rate=1.0,
                operative=HyperExponential(weights=[0.7, 0.3], rates=[0.25, 0.02]),
                inoperative=Exponential(rate=4.0),
            ),
            "geometric",
            cache=cache,
        )
        assert first == second
        assert cache.stats()["solves"] == 1

    def test_cache_false_disables_memoisation(self):
        model = sun_fitted_model(num_servers=5, arrival_rate=3.5)
        first = solve(model, "spectral", cache=False)
        second = solve(model, "spectral", cache=False)
        assert first is not second and first == second

    def test_disabled_cache_counts_misses_but_stores_nothing(self):
        cache = SolutionCache(enabled=False)
        model = sun_fitted_model(num_servers=5, arrival_rate=3.5)
        solve(model, "geometric", cache=cache)
        solve(model, "geometric", cache=cache)
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 2 and stats["size"] == 0


class TestSolveMany:
    def test_results_align_with_input_order(self):
        models = [
            sun_fitted_model(num_servers=count, arrival_rate=3.5) for count in (5, 6, 7)
        ]
        outcomes = solve_many(models, "geometric", cache=SolutionCache())
        assert [outcome.solver for outcome in outcomes] == ["geometric"] * 3
        lengths = [outcome.metrics["mean_queue_length"] for outcome in outcomes]
        assert lengths[0] > lengths[1] > lengths[2]

    def test_duplicate_models_solved_once(self):
        backend = ConstantSolver()
        register_solver(backend)
        try:
            cache = SolutionCache()
            model = _deterministic_model()
            outcomes = solve_many([model, model, model], "constant", cache=cache)
        finally:
            unregister_solver("constant")
        assert backend.calls == 1
        assert cache.stats()["solves"] == 1
        assert outcomes[0] is outcomes[1] is outcomes[2]

    def test_per_model_policies(self):
        model = sun_fitted_model(num_servers=5, arrival_rate=3.5)
        outcomes = solve_many(
            [model, model],
            [SolverPolicy(order=("spectral",)), SolverPolicy(order=("geometric",))],
            cache=SolutionCache(),
        )
        assert [outcome.solver for outcome in outcomes] == ["spectral", "geometric"]

    def test_policy_count_mismatch_rejected(self):
        model = sun_fitted_model(num_servers=5, arrival_rate=3.5)
        with pytest.raises(ParameterError, match="policies"):
            solve_many([model], [SolverPolicy(), SolverPolicy()], cache=SolutionCache())

    def test_parallel_matches_serial_and_deduplicates(self):
        models = [
            sun_fitted_model(num_servers=count, arrival_rate=3.5)
            for count in (5, 6, 5, 6, 7)
        ]
        serial_cache = SolutionCache()
        serial = solve_many(models, "spectral", cache=serial_cache)
        parallel_cache = SolutionCache()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            parallel = solve_many(
                models, "spectral", parallel=True, max_workers=2, cache=parallel_cache
            )
        assert [outcome.metrics for outcome in parallel] == [
            outcome.metrics for outcome in serial
        ]
        # Three distinct configurations: exactly three solves, serial or not.
        assert serial_cache.stats()["solves"] == 3
        assert parallel_cache.stats()["solves"] == 3

    def test_pooled_batch_matches_serial_and_deduplicates(self, pools, monkeypatch):
        monkeypatch.setattr(facade, "POOL_BREAK_EVEN_WORK", 0.0)
        models = [
            sun_fitted_model(num_servers=count, arrival_rate=3.5)
            for count in (5, 6, 5, 6, 7)
        ]
        serial_cache = SolutionCache()
        serial = solve_many(models, "spectral", cache=serial_cache)
        pooled_cache = SolutionCache()
        pooled = solve_many(models, "spectral", parallel=True, max_workers=2, cache=pooled_cache)
        assert len(pools) == 1
        assert [outcome.metrics for outcome in pooled] == [outcome.metrics for outcome in serial]
        assert serial_cache.stats()["solves"] == 3
        assert pooled_cache.stats()["solves"] == 3


def _parallel_batches() -> tuple[float, ...]:
    """``repro_parallel_batches_total`` for the serial and the pool path."""
    return tuple(
        numerics_registry().counter("repro_parallel_batches_total", labels={"path": path}).value
        for path in ("serial", "pool")
    )


class TestParallelGate:
    """``parallel=True`` fans out only when the estimated work pays for a pool."""

    MODELS = [sun_fitted_model(num_servers=count, arrival_rate=3.5) for count in (5, 6, 7)]

    def test_small_spectral_batch_runs_serially_without_a_pool(self, pools):
        serial = solve_many(self.MODELS, "spectral", cache=False)
        serial_batches, pool_batches = _parallel_batches()
        gated = solve_many(self.MODELS, "spectral", parallel=True, max_workers=2, cache=False)
        assert pools == []
        assert gated == serial
        assert _parallel_batches() == (serial_batches + 1, pool_batches)

    def test_the_same_batch_over_the_break_even_creates_one_pool(self, pools, monkeypatch):
        monkeypatch.setattr(facade, "POOL_BREAK_EVEN_WORK", 0.0)
        serial = solve_many(self.MODELS, "spectral", cache=False)
        serial_batches, pool_batches = _parallel_batches()
        pooled = solve_many(self.MODELS, "spectral", parallel=True, max_workers=2, cache=False)
        assert len(pools) == 1
        assert pooled == serial
        assert _parallel_batches() == (serial_batches, pool_batches + 1)

    def test_a_batch_of_unknown_cost_keeps_the_pool(self, pools):
        models = [sun_fitted_model(num_servers=3, arrival_rate=rate) for rate in (1.0, 1.5)]
        outcomes = solve_many(models, "ctmc", parallel=True, max_workers=2, cache=False)
        assert len(pools) == 1
        assert [outcome.solver for outcome in outcomes] == ["ctmc", "ctmc"]

    def test_a_model_the_first_solver_rejects_reaches_the_pool(self, pools):
        # Deterministic periods have no modes (num_modes raises), so the
        # spectral estimate must not ask for them.
        policy = SolverPolicy(order=("spectral", "simulate"), simulate_horizon=2_000.0)
        models = [_deterministic_model(), sun_fitted_model(num_servers=3, arrival_rate=1.5)]
        outcomes = solve_many(models, policy, parallel=True, max_workers=2, cache=False)
        assert len(pools) == 1
        assert [outcome.solver for outcome in outcomes] == ["simulate", "spectral"]

    def test_work_estimates_of_the_built_in_backends(self):
        model = sun_fitted_model(num_servers=15, arrival_rate=8.0)
        assert get_solver("spectral").work_estimate(model) == 15 * model.num_modes**3
        assert get_solver("geometric").work_estimate(model) == 0.0
        for name in ("ctmc", "simulate", "transient"):
            assert get_solver(name).work_estimate(model) is None
        assert get_solver("spectral").work_estimate(_deterministic_model()) is None
        assert get_solver("geometric").work_estimate(_deterministic_model()) is None


class TestOneCTMCPath:
    def test_ctmc_solver_takes_no_policy_options(self):
        assert get_solver("ctmc").options_from_policy(SolverPolicy()) == {}

    def test_homogeneous_outcome_matches_its_single_group_scenario(self):
        from repro.scenarios import ScenarioModel

        model = sun_fitted_model(num_servers=3, arrival_rate=1.5)
        homogeneous = evaluate(model, SolverPolicy(order=("ctmc",)))
        scenario = evaluate(ScenarioModel.from_homogeneous(model), SolverPolicy(order=("ctmc",)))
        assert homogeneous.solver == scenario.solver == "ctmc"
        assert homogeneous.metrics == scenario.metrics
        assert set(homogeneous.metrics) == {
            "mean_queue_length",
            "mean_response_time",
            "utilisation",
            "num_solved_states",
        }
        assert homogeneous.metrics["utilisation"] == pytest.approx(0.5, rel=1e-6)


#: Two models whose own chains differ (876 and 1,344 states), in both orders:
#: a solve that starts from the other's truncation level or iterate answers
#: from a different chain than the model's own.
_PAIRS = [
    pytest.param(2, (1.7, 1.8), id="n2-up"),
    pytest.param(2, (1.8, 1.7), id="n2-down"),
]


def _assert_solved_alone(models, outcomes):
    for model, outcome in zip(models, outcomes, strict=True):
        assert outcome.solver == "ctmc"
        assert outcome == evaluate(model, SolverPolicy(order=("ctmc",)))


class TestBatchesSolveEachPointAlone:
    @pytest.mark.parametrize(
        "servers, rates", [pytest.param(4, (1.2, 2.6, 1.5, 2.3, 1.9), id="n4-grid"), *_PAIRS]
    )
    def test_serial_sweep_matches_independent_solves(self, servers, rates):
        models = [sun_fitted_model(num_servers=servers, arrival_rate=rate) for rate in rates]
        _assert_solved_alone(models, solve_many(models, "ctmc", cache=SolutionCache()))

    def test_results_stay_aligned_despite_grid_reordering(self):
        rates = (2.9, 1.1, 2.0, 1.4, 2.5)
        models = [sun_fitted_model(num_servers=4, arrival_rate=rate) for rate in rates]
        outcomes = solve_many(models, "ctmc", cache=SolutionCache())
        lengths = [outcome.metrics["mean_queue_length"] for outcome in outcomes]
        # Queue length is monotone in the arrival rate, so alignment bugs
        # (results permuted on their way back from the solve) would break
        # the order statistics.
        assert sorted(lengths) == [lengths[i] for i in (1, 3, 2, 4, 0)]

    def test_scenario_sweep_matches_independent_solves(self):
        from repro.scenarios import scenario_preset

        base = scenario_preset("single-repairman")
        models = [base.with_arrival_rate(rate) for rate in (0.8, 1.2, 1.0)]
        _assert_solved_alone(models, solve_many(models, "ctmc", cache=SolutionCache()))

    @pytest.mark.parametrize(
        "servers, rates",
        [
            pytest.param(4, (2.9, 1.1, 2.0, 1.4, 2.5, 1.7, 2.2, 1.05), id="n4-grid"),
            *_PAIRS,
            # Two points per worker: a worker's second solve must not start
            # from its first.
            pytest.param(2, (1.7, 1.8, 1.0, 1.1), id="n2-two-per-worker"),
        ],
    )
    def test_pooled_sweep_matches_independent_solves(self, servers, rates):
        models = [sun_fitted_model(num_servers=servers, arrival_rate=rate) for rate in rates]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pooled = solve_many(
                models, "ctmc", parallel=True, max_workers=2, cache=SolutionCache()
            )
        _assert_solved_alone(models, pooled)


class TestSweepRunnerDeduplication:
    def test_duplicated_grid_points_perform_no_redundant_solves(self):
        spec = SweepSpec(
            base_model=sun_fitted_model(num_servers=10, arrival_rate=7.0),
            axes=[("num_servers", (10, 11, 10, 11, 12))],
            policy=SolverPolicy(order=("geometric",)),
        )
        runner = SweepRunner()
        results = runner.run(spec)
        assert len(results) == 5
        assert runner.cache.stats()["solves"] == 3
        assert results[0].metrics == results[2].metrics
        assert results[1].metrics == results[3].metrics

    def test_parallel_duplicated_grid_points_share_the_cache(self, monkeypatch):
        spec = SweepSpec(
            base_model=sun_fitted_model(num_servers=10, arrival_rate=7.0),
            axes=[("num_servers", (10, 11, 10, 11, 12))],
            policy=SolverPolicy(order=("geometric",)),
        )
        runner = SweepRunner(parallel=True, max_workers=2)
        # Three geometric solves fall under the break-even: force the pool.
        monkeypatch.setattr(facade, "POOL_BREAK_EVEN_WORK", 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results = runner.run(spec)
        assert runner.cache.stats()["solves"] == 3
        serial = SweepRunner().run(spec)
        assert [row.metrics for row in results] == [row.metrics for row in serial]

    def test_runners_can_share_one_cache(self):
        cache = SolutionCache()
        spec = SweepSpec(
            base_model=sun_fitted_model(num_servers=10, arrival_rate=7.0),
            axes=[("num_servers", (10, 11))],
            policy=SolverPolicy(order=("geometric",)),
        )
        SweepRunner(cache=cache).run(spec)
        SweepRunner(cache=cache).run(spec)
        assert cache.stats()["solves"] == 2
        assert cache.stats()["hits"] == 2


class _ShimDistribution(Distribution):
    """Unhashable wrapper relying on the base Distribution repr.

    Defining ``__eq__`` without ``__hash__`` makes instances unhashable —
    the configuration that used to force the sweep cache onto its colliding
    ``repr`` fallback.
    """

    def __init__(self, inner):
        self._inner = inner

    def pdf(self, x):
        return self._inner.pdf(x)

    def cdf(self, x):
        return self._inner.cdf(x)

    def moment(self, k):
        return self._inner.moment(k)

    def sample(self, rng, size=None):
        return self._inner.sample(rng, size)

    def laplace_transform(self, s):
        return self._inner.laplace_transform(s)

    def __eq__(self, other):
        return isinstance(other, _ShimDistribution) and self._inner == other._inner


class TestDistributionKeys:
    def test_distinct_parameterisations_no_longer_share_a_key(self):
        """Regression: same mean and SCV, different shape, equal base reprs.

        The old ``repr``-based fallback keyed both of these identically, so
        a sweep over one silently reused solutions of the other.
        """
        first_inner = HyperExponential(weights=[0.5, 0.5], rates=[1.0, 3.0])
        second_inner = HyperExponential.from_mean_and_scv(
            first_inner.mean, first_inner.scv
        )
        first, second = _ShimDistribution(first_inner), _ShimDistribution(second_inner)
        with pytest.raises(TypeError):
            hash(first)  # precondition: genuinely unhashable
        assert repr(first) == repr(second)  # the old colliding key
        assert first != second
        assert distribution_key(first) != distribution_key(second)

    def test_library_distributions_key_on_type_and_parameters(self):
        assert distribution_key(Exponential(rate=0.5)) == distribution_key(
            Exponential(rate=0.5)
        )
        assert distribution_key(Exponential(rate=0.5)) != distribution_key(
            Exponential(rate=0.25)
        )
        # Same parameter tuple under different types must not collide.
        assert distribution_key(Deterministic(value=2.0)) != distribution_key(
            Exponential(rate=2.0)
        )

    def test_every_library_distribution_implements_parameter_key(self):
        from repro.distributions import Erlang, PhaseType
        from repro.distributions.coxian import Coxian

        distributions = [
            Exponential(rate=2.0),
            HyperExponential(weights=[0.6, 0.4], rates=[1.0, 2.0]),
            Erlang(shape=3, rate=1.5),
            Deterministic(value=4.0),
            Coxian(rates=[1.0, 2.0], continue_probs=[0.5]),
            PhaseType(initial=[1.0], generator=[[-2.0]]),
        ]
        for distribution in distributions:
            key = distribution.parameter_key()
            assert isinstance(key, tuple) and hash(key) is not None


class TestBoundedCache:
    """LRU bounding of the shared solution cache (sweep workloads)."""

    @staticmethod
    def _outcome(tag: float) -> SolveOutcome:
        return SolveOutcome("spectral", True, {"mean_queue_length": tag}, None)

    def test_store_evicts_least_recently_used(self):
        cache = SolutionCache(maxsize=2)
        cache.store(("a",), self._outcome(1.0))
        cache.store(("b",), self._outcome(2.0))
        assert cache.lookup(("a",)) is not None  # refreshes 'a'; 'b' is now LRU
        cache.store(("c",), self._outcome(3.0))
        assert cache.lookup(("b",)) is None
        assert cache.lookup(("a",)) is not None
        assert cache.lookup(("c",)) is not None
        stats = cache.stats()
        assert stats["size"] == 2 and stats["evictions"] == 1

    def test_merge_respects_the_bound(self):
        cache = SolutionCache(maxsize=2)
        cache.merge({(key,): self._outcome(float(index)) for index, key in enumerate("abcd")})
        stats = cache.stats()
        assert stats["size"] == 2 and stats["evictions"] == 2
        # Mapping order is preserved: the two most recent entries survive.
        assert cache.lookup(("c",)) is not None and cache.lookup(("d",)) is not None

    def test_unbounded_by_default_and_bad_bound_rejected(self):
        cache = SolutionCache()
        assert cache.maxsize is None
        for index in range(100):
            cache.store((index,), self._outcome(float(index)))
        assert cache.stats() == {
            "hits": 0,
            "misses": 0,
            "hit_rate": 0.0,
            "size": 100,
            "maxsize": None,
            "solves": 0,
            "evictions": 0,
            "spills": 0,
            "spilled_entries": 0,
            "loads": 0,
            "loaded_entries": 0,
        }
        with pytest.raises(ValueError, match="maxsize"):
            SolutionCache(maxsize=0)

    def test_clear_resets_eviction_counter(self):
        cache = SolutionCache(maxsize=1)
        cache.store(("a",), self._outcome(1.0))
        cache.store(("b",), self._outcome(2.0))
        assert cache.stats()["evictions"] == 1
        cache.clear()
        assert cache.stats()["evictions"] == 0

    def test_bounded_cache_still_memoises_solves(self):
        cache = SolutionCache(maxsize=8)
        model = sun_fitted_model(num_servers=5, arrival_rate=3.5)
        first = solve(model, "geometric", cache=cache)
        second = solve(model, "geometric", cache=cache)
        assert first == second
        assert cache.stats()["solves"] == 1


def _deterministic_operative(preset: str):
    """A preset whose first group has deterministic operative periods.

    Every scenario is beyond 'geometric', and such a one beyond 'spectral'
    as well.
    """
    from repro.scenarios import scenario_preset

    scenario = scenario_preset(preset)
    group = scenario.groups[0]
    return scenario.with_group(group.name, operative=Deterministic(value=group.operative.mean))


class TestFallbackExhaustion:
    """When every solver in a chain is unsupported, the error names each one."""

    def test_scenario_on_homogeneous_only_chain_names_every_skipped_solver(self):
        scenario = _deterministic_operative("single-repairman")
        outcome = evaluate(scenario, SolverPolicy(order=("spectral", "geometric")))
        assert outcome.solver is None
        assert outcome.stable is True
        assert outcome.metrics == {}
        # One diagnostic per skipped solver, each naming the solver and the
        # reason it was skipped.
        for name in ("spectral", "geometric"):
            assert f"{name}: the {name!r} solver" in outcome.error
        assert "requires exponential or hyperexponential period distributions" in outcome.error
        assert "the 'geometric' solver handles only the homogeneous model" in outcome.error
        assert outcome.error.count(" solver ") == 2  # one per skipped solver

    def test_exhaustion_error_reaches_sweep_rows_and_metric_lookups(self):
        from repro.sweeps import SweepResultSet  # noqa: F401 - import guard

        scenario = _deterministic_operative("two-speed-cluster")
        spec = SweepSpec(
            base_model=scenario,
            axes=[("arrival_rate", (1.0,))],
            policy=SolverPolicy(order=("spectral", "geometric")),
        )
        results = SweepRunner().run(spec)
        row = results[0]
        assert row.solver is None and not row.ok
        assert "spectral:" in row.error and "geometric:" in row.error
        with pytest.raises(SolverError, match="spectral"):
            row.metric("mean_queue_length")


class TestOutcomeRecord:
    def test_ok_property(self):
        assert SolveOutcome("spectral", True, {}, None).ok
        assert not SolveOutcome(None, True, {}, "spectral: boom").ok
