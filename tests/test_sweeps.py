"""Tests for the declarative parameter-sweep engine (:mod:`repro.sweeps`)."""

from __future__ import annotations

import math

import pytest

from repro.distributions import Deterministic, Exponential
from repro.exceptions import ParameterError, SolverError
from repro.experiments import figure5, figure7, parameters
from repro.optimization import cost_curve
from repro.queueing import UnreliableQueueModel, sun_fitted_model
from repro.solvers import facade
from repro.sweeps import (
    SolverPolicy,
    SweepAxis,
    SweepResult,
    SweepResultSet,
    SweepRunner,
    SweepSpec,
    TimeGridAxis,
    evaluate_point,
    run_sweep,
)


def _spec(**overrides) -> SweepSpec:
    defaults = dict(
        base_model=sun_fitted_model(num_servers=10, arrival_rate=7.0),
        axes=[("arrival_rate", (6.5, 7.0)), ("num_servers", (10, 11))],
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestSpecExpansion:
    def test_grid_size_and_row_major_order(self):
        spec = _spec()
        assert spec.grid_size == 4
        points = list(spec.expand())
        assert [p.index for p in points] == [0, 1, 2, 3]
        assert [p.parameters for p in points] == [
            {"arrival_rate": 6.5, "num_servers": 10},
            {"arrival_rate": 6.5, "num_servers": 11},
            {"arrival_rate": 7.0, "num_servers": 10},
            {"arrival_rate": 7.0, "num_servers": 11},
        ]

    def test_points_carry_concrete_models(self):
        points = list(_spec().expand())
        assert points[0].model.arrival_rate == 6.5
        assert points[0].model.num_servers == 10
        assert points[3].model.arrival_rate == 7.0
        assert points[3].model.num_servers == 11

    def test_solver_axis_overrides_policy(self):
        spec = _spec(axes=[("num_servers", (10,)), ("solver", ("spectral", "geometric"))])
        points = list(spec.expand())
        assert points[0].policy.order == ("spectral",)
        assert points[1].policy.order == ("geometric",)

    def test_unknown_axis_requires_factory(self):
        with pytest.raises(ParameterError):
            _spec(axes=[("not_a_field", (1, 2))])

    def test_unknown_axis_allowed_with_factory(self):
        spec = _spec(
            axes=[("scale", (1.0, 2.0))],
            model_factory=lambda base, params: base.with_arrival_rate(
                base.arrival_rate * params["scale"]
            ),
        )
        points = list(spec.expand())
        assert points[1].model.arrival_rate == pytest.approx(14.0)

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(ParameterError) as excinfo:
            _spec(axes=[("num_servers", (1,)), ("num_servers", (2,))])
        # The error must name the offending axis, not just echo the list
        # (regression guard: duplicates used to be easy to miss).
        assert "duplicate sweep axis name(s): num_servers" in str(excinfo.value)

    def test_duplicate_axis_names_rejected_for_scenarios(self):
        from repro.scenarios import scenario_preset

        with pytest.raises(ParameterError, match="duplicate sweep axis name"):
            SweepSpec(
                base_model=scenario_preset("two-speed-cluster"),
                axes=[("repair_capacity", (1,)), ("repair_capacity", (2,))],
            )

    def test_empty_axis_rejected(self):
        with pytest.raises(ParameterError):
            SweepAxis(name="num_servers", values=())

    def test_unknown_solver_rejected(self):
        with pytest.raises(ParameterError):
            SolverPolicy(order=("qft",))


class TestSolverFallback:
    def test_spectral_preferred_when_it_works(self):
        model = sun_fitted_model(num_servers=5, arrival_rate=3.5)
        solver, stable, metrics, error = evaluate_point(
            model, SolverPolicy(order=("spectral", "geometric"))
        )
        assert solver == "spectral"
        assert stable and error is None
        assert metrics["mean_queue_length"] == pytest.approx(
            model.solve_spectral().mean_queue_length
        )

    def test_falls_back_in_policy_order(self):
        """Deterministic periods break every analytical solver, so the policy
        must walk to ``simulate``."""
        model = UnreliableQueueModel(
            num_servers=2,
            arrival_rate=0.5,
            service_rate=1.0,
            operative=Deterministic(value=30.0),
            inoperative=Exponential(rate=5.0),
        )
        policy = SolverPolicy(
            order=("spectral", "geometric", "simulate"), simulate_horizon=2_000.0
        )
        solver, stable, metrics, error = evaluate_point(model, policy)
        assert solver == "simulate"
        assert stable and error is None
        assert metrics["mean_queue_length"] > 0.0

    def test_all_solvers_failing_reports_error(self):
        model = UnreliableQueueModel(
            num_servers=2,
            arrival_rate=0.5,
            service_rate=1.0,
            operative=Deterministic(value=30.0),
            inoperative=Exponential(rate=5.0),
        )
        solver, stable, metrics, error = evaluate_point(
            model, SolverPolicy(order=("spectral", "geometric"))
        )
        assert solver is None
        assert stable
        assert metrics == {}
        assert "spectral" in error and "geometric" in error

    def test_metric_on_failed_row_raises_captured_diagnostic(self):
        """Asking a failed cell for a metric surfaces the solver failure
        message, not a bare KeyError (figure drivers rely on this)."""
        row = SweepResult(
            index=0,
            parameters={"num_servers": 30},
            solver=None,
            stable=True,
            metrics={},
            error="spectral: boundary system residual exceeds tolerance",
        )
        with pytest.raises(SolverError, match="boundary system residual"):
            row.metric("mean_queue_length")
        # A missing metric on a *successful* row is still a KeyError.
        ok_row = SweepResult(
            index=0, parameters={}, solver="ctmc", stable=True, metrics={"x": 1.0}
        )
        with pytest.raises(KeyError):
            ok_row.metric("decay_rate")

    def test_unstable_model_yields_infinite_metrics(self):
        solver, stable, metrics, error = evaluate_point(
            sun_fitted_model(num_servers=2, arrival_rate=50.0), SolverPolicy()
        )
        assert solver is None and error is None
        assert not stable
        assert math.isinf(metrics["mean_queue_length"])


class TestRunnerCaching:
    def test_repeated_runs_hit_the_cache(self):
        runner = SweepRunner()
        spec = _spec()
        first = runner.run(spec)
        info = runner.cache_info()
        assert info == {"hits": 0, "misses": 4, "size": 4}
        second = runner.run(spec)
        info = runner.cache_info()
        assert info["hits"] == 4
        assert info["misses"] == 4
        assert [row.metrics for row in second] == [row.metrics for row in first]

    def test_cache_shared_across_overlapping_specs(self):
        runner = SweepRunner()
        runner.run(_spec(axes=[("num_servers", (10, 11))]))
        runner.run(_spec(axes=[("num_servers", (11, 12))]))
        info = runner.cache_info()
        assert info["hits"] == 1  # N=11 reused
        assert info["misses"] == 3

    def test_cache_can_be_disabled(self):
        runner = SweepRunner(cache=False)
        spec = _spec(axes=[("num_servers", (10,))])
        runner.run(spec)
        runner.run(spec)
        assert runner.cache_info() == {"hits": 0, "misses": 2, "size": 0}

    def test_clear_cache(self):
        runner = SweepRunner()
        runner.run(_spec(axes=[("num_servers", (10,))]))
        runner.clear_cache()
        assert runner.cache_info() == {"hits": 0, "misses": 0, "size": 0}


class TestParallelExecution:
    def test_parallel_results_match_serial(self, monkeypatch):
        # Four small solves fall under the break-even: force the pool.
        monkeypatch.setattr(facade, "POOL_BREAK_EVEN_WORK", 0.0)
        spec = _spec()
        serial = SweepRunner(parallel=False).run(spec)
        parallel = SweepRunner(parallel=True, max_workers=2).run(spec)
        assert [row.parameters for row in parallel] == [row.parameters for row in serial]
        assert [row.metrics for row in parallel] == [row.metrics for row in serial]

    def test_run_sweep_convenience_wrapper(self):
        results = run_sweep(_spec(axes=[("num_servers", (10,))]))
        assert len(results) == 1
        assert results[0].solver == "spectral"


class TestExport:
    def test_csv_round_trip_columns(self, tmp_path):
        results = SweepRunner().run(_spec())
        path = results.to_csv(tmp_path / "sweep.csv")
        header = path.read_text().splitlines()[0].split(",")
        assert header[:3] == ["index", "arrival_rate", "num_servers"]
        assert "mean_queue_length" in header
        assert len(path.read_text().splitlines()) == 1 + len(results)

    def test_json_round_trip_is_lossless(self, tmp_path):
        results = SweepRunner().run(_spec())
        path = tmp_path / "sweep.json"
        results.to_json(path)
        restored = SweepResultSet.from_json(path)
        assert restored.name == results.name
        assert restored.axis_names == results.axis_names
        assert [row.parameters for row in restored] == [row.parameters for row in results]
        assert [row.metrics for row in restored] == [row.metrics for row in results]
        assert [row.solver for row in restored] == [row.solver for row in results]

    def test_json_round_trip_preserves_infinities(self):
        results = SweepRunner().run(
            _spec(
                base_model=sun_fitted_model(num_servers=2, arrival_rate=50.0),
                axes=[("num_servers", (2,))],
            )
        )
        restored = SweepResultSet.from_json(results.to_json())
        assert not restored[0].stable
        assert math.isinf(restored[0].metric("mean_queue_length"))

    def test_metric_column_and_find(self):
        results = SweepRunner().run(_spec(axes=[("num_servers", (10, 11))]))
        column = results.metric_column("mean_queue_length")
        assert len(column) == 2 and column[0] > column[1]
        assert results.find(num_servers=11).index == 1
        with pytest.raises(ParameterError):
            results.find(num_servers=99)


class TestFigureParity:
    """The refactored figure drivers must reproduce the seed's numbers."""

    def test_figure5_quick_grid_matches_direct_cost_curve(self):
        """The engine-backed figure5 equals the pre-refactor path (the
        optimisation module's cost_curve, which still calls the solvers
        directly)."""
        rates = (7.0,)
        counts = tuple(range(10, 14))
        result = figure5.run_figure5(
            arrival_rates=rates, server_counts=counts, solver="geometric"
        )
        direct = cost_curve(
            figure5.base_model(rates[0]),
            counts,
            holding_cost=parameters.FIGURE5_HOLDING_COST,
            server_cost=parameters.FIGURE5_SERVER_COST,
            solver="geometric",
        )
        assert result.curves[7.0].points == direct.points
        assert result.optima[7.0] == direct.optimal_servers

    def test_figure7_quick_grid_matches_direct_solves(self):
        times = (1.0, 3.0, 5.0)
        result = figure7.run_figure7(mean_repair_times=times)
        for point in result.points:
            exponential = figure7._model_for(
                point.mean_repair_time, hyperexponential=False
            ).solve_spectral()
            hyper = figure7._model_for(
                point.mean_repair_time, hyperexponential=True
            ).solve_spectral()
            assert point.queue_length_exponential == exponential.mean_queue_length
            assert point.queue_length_hyperexponential == hyper.mean_queue_length


class TestScenarioSweeps:
    """Sweep axes over scenario parameters and server-group fields."""

    def _scenario(self):
        from repro.scenarios import scenario_preset

        return scenario_preset("two-speed-cluster")

    def test_scenario_axes_build_concrete_scenarios(self):
        spec = SweepSpec(
            base_model=self._scenario(),
            axes=[
                ("repair_capacity", (1, 4)),
                ("slow.service_rate", (0.5, 0.75)),
                ("arrival_rate", (1.0,)),
            ],
            policy=SolverPolicy(order=("ctmc",)),
        )
        points = list(spec.expand())
        assert len(points) == 4
        first = points[0].model
        assert first.effective_repair_capacity == 1
        assert first.group("slow").service_rate == 0.5
        assert first.arrival_rate == 1.0
        assert points[0].model.group("fast") == self._scenario().group("fast")

    def test_group_size_axis(self):
        spec = SweepSpec(
            base_model=self._scenario(),
            axes=[("fast.size", (1, 2, 3))],
            policy=SolverPolicy(order=("ctmc",)),
        )
        sizes = [point.model.group("fast").size for point in spec.expand()]
        assert sizes == [1, 2, 3]

    def test_scenario_sweep_solves_through_runner(self):
        spec = SweepSpec(
            base_model=self._scenario(),
            axes=[("repair_capacity", (1, 2))],
            policy=SolverPolicy(order=("spectral", "ctmc")),
            name="scenario-crew",
        )
        results = SweepRunner().run(spec)
        assert {row.solver for row in results} == {"spectral"}
        crew_of_one = results.find(repair_capacity=1)
        crew_of_two = results.find(repair_capacity=2)
        assert crew_of_one.metric("mean_queue_length") >= crew_of_two.metric(
            "mean_queue_length"
        )

    def test_homogeneous_field_axis_rejected_for_scenarios(self):
        with pytest.raises(ParameterError, match="not a scenario field"):
            SweepSpec(base_model=self._scenario(), axes=[("num_servers", (1, 2))])

    def test_unknown_group_and_field_rejected(self):
        with pytest.raises(ParameterError, match="unknown server group"):
            SweepSpec(base_model=self._scenario(), axes=[("turbo.size", (1,))])
        with pytest.raises(ParameterError, match="unknown group field"):
            SweepSpec(base_model=self._scenario(), axes=[("fast.speed", (1,))])

    def test_model_factory_still_wins_for_scenarios(self):
        spec = SweepSpec(
            base_model=self._scenario(),
            axes=[("load", (0.3, 0.5))],
            model_factory=lambda base, params: base.with_arrival_rate(
                params["load"] * base.mean_service_capacity
            ),
            policy=SolverPolicy(order=("ctmc",)),
        )
        loads = [round(point.model.effective_load, 6) for point in spec.expand()]
        assert loads == [0.3, 0.5]


class TestTimeGridAxis:
    def test_time_axis_folds_into_the_policy_not_the_model(self):
        spec = SweepSpec(
            base_model=sun_fitted_model(num_servers=3, arrival_rate=1.5),
            axes=[TimeGridAxis((2.0, 10.0))],
        )
        points = list(spec.expand())
        assert [point.parameters["time"] for point in points] == [2.0, 10.0]
        # The model is untouched; the policy carries the time and switches to
        # the transient solver alone (a steady-state fallback would silently
        # ignore the time value).
        assert all(point.model == spec.base_model for point in points)
        assert [point.policy.transient_times for point in points] == [(2.0,), (10.0,)]
        assert all(point.policy.order == ("transient",) for point in points)

    def test_explicit_transient_order_is_preserved(self):
        spec = SweepSpec(
            base_model=sun_fitted_model(num_servers=3, arrival_rate=1.5),
            axes=[TimeGridAxis((5.0,))],
            policy=SolverPolicy(order=("transient", "ctmc")),
        )
        (point,) = spec.expand()
        assert point.policy.order == ("transient", "ctmc")

    def test_sweep_over_time_and_parameters(self):
        spec = SweepSpec(
            base_model=sun_fitted_model(num_servers=3, arrival_rate=1.2),
            axes=[("arrival_rate", (1.2, 1.8)), TimeGridAxis((2.0, 20.0))],
            name="time-sweep",
        )
        results = SweepRunner().run(spec)
        assert {row.solver for row in results} == {"transient"}
        assert [row.metrics["evaluation_time"] for row in results] == [2.0, 20.0, 2.0, 20.0]
        for rate in (1.2, 1.8):
            early = results.find(arrival_rate=rate, time=2.0)
            late = results.find(arrival_rate=rate, time=20.0)
            # From an empty start the expected backlog grows with time.
            assert late.metric("mean_queue_length") > early.metric("mean_queue_length")

    def test_time_axis_works_for_scenario_bases(self):
        from repro.scenarios import scenario_preset

        spec = SweepSpec(
            base_model=scenario_preset("single-repairman"),
            axes=[TimeGridAxis((1.0, 10.0))],
        )
        results = SweepRunner().run(spec)
        assert [row.metrics["evaluation_time"] for row in results] == [1.0, 10.0]
        assert results[0].metrics["availability"] > results[1].metrics["availability"]

    def test_duplicate_time_axes_rejected(self):
        with pytest.raises(ParameterError, match="duplicate sweep axis name"):
            SweepSpec(
                base_model=sun_fitted_model(num_servers=3, arrival_rate=1.5),
                axes=[TimeGridAxis((1.0,)), ("time", (2.0,))],
            )

    def test_unsupported_model_fails_loudly_not_with_steady_state_metrics(self):
        """Regression: a steady-state fallback must not answer a time cell.

        With deterministic operative periods the transient solver cannot run;
        the cell must carry an error naming it — not a silently identical
        steady-state answer for every time value.
        """
        model = UnreliableQueueModel(
            num_servers=2,
            arrival_rate=0.5,
            service_rate=1.0,
            operative=Deterministic(value=30.0),
            inoperative=Exponential(rate=5.0),
        )
        spec = SweepSpec(
            base_model=model,
            axes=[TimeGridAxis((1.0, 50.0))],
            policy=SolverPolicy(order=("simulate",), simulate_horizon=2_000.0),
        )
        results = SweepRunner().run(spec)
        for row in results:
            assert row.solver is None and not row.ok
            assert "transient:" in row.error
