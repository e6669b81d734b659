"""The in-process batch workloads, run in a fresh child process per run.

``run.py`` launches ``python perfbench/batch.py <workload> <seed> <seconds>
<trace>`` with the program's sources on ``PYTHONPATH``.  The child imports
the library, prints ``ready`` (the end of set-up), runs whole rounds of the
workload until ``seconds`` have passed, checks every answer against
``references.json`` outside the timed window and prints one JSON summary.
With ``--setup-only`` it exits after ``ready``.

``python perfbench/batch.py --make-references`` recomputes the stored
references, serially and without warm starts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads as wl
from common import Tally, median, ratio, relative_close
from layers import Recorder, counter_total, instrumented, parse, per_call_ms

REFERENCES = Path(__file__).resolve().parent / "references.json"


def _set_up(workload: str) -> None:
    """What a user of the workload pays once before the first real call:
    the imports, and one tiny serial solve down each path so that lazy
    imports and first-use initialisation are not timed as work."""
    from repro.queueing import sun_fitted_model
    from repro.solvers import solve

    tiny = sun_fitted_model(2, 1.0)
    if workload == "paper_sweep":
        import repro.experiments  # noqa: F401
        import repro.sweeps  # noqa: F401

        for solver in ("spectral", "geometric"):
            solve(tiny, solver, cache=False)
    else:
        from repro.scenarios import scenario_preset
        from repro.simulation import simulate_scenario
        from repro.transient import first_passage_time, solve_transient

        solve(scenario_preset("single-repairman"), ("ctmc",), cache=False)
        solve_transient(tiny, (1.0,))
        first_passage_time(tiny, (1.0,))
        simulate_scenario(scenario_preset("single-repairman"), horizon=100.0, seed=0)


# -- the K=3, N=30 lumped chain (81k states at level 60) ---------------------------

LUMPED_LEVEL = 60


def lumped_model():
    from repro.distributions import Exponential
    from repro.scenarios import ScenarioModel, ServerGroup

    def group(name: str, service: float, failure: float, repair: float) -> ServerGroup:
        return ServerGroup(
            name=name,
            size=10,
            service_rate=service,
            operative=Exponential(rate=failure),
            inoperative=Exponential(rate=repair),
        )

    return ScenarioModel(
        groups=(
            group("fast", 2.0, 0.05, 1.0),
            group("mid", 1.0, 0.04, 0.8),
            group("slow", 0.5, 0.03, 0.6),
        ),
        arrival_rate=20.0,
        repair_capacity=4,
        name="bench-lumped-30",
    )


def _grid_models(preset: str, factors: list[float]):
    from repro.scenarios import scenario_preset

    base = scenario_preset(preset).arrival_rate
    return [
        (
            (factor, capacity),
            scenario_preset(preset, arrival_rate=base * factor, repair_capacity=capacity),
        )
        for factor in factors
        for capacity in wl.CHAIN_CAPACITIES
    ]


def _grid_key(preset: str, factor: float, capacity: int) -> str:
    return f"{preset}|{factor:.2f}|{capacity}"


def _model_key(servers: int, rate: float) -> str:
    return f"{servers}|{rate:.2f}"


# -- one round of each workload ------------------------------------------------------


class Round:
    """Runs the calls of one round spec, timing each public call.

    ``latencies`` collects (label, seconds) per call; ``answers`` collects
    (kind, key, value, points) for the checks made after the window;
    ``errors`` counts the points of calls that raised.
    """

    def __init__(self, recorder: Recorder | None = None) -> None:
        self.recorder = recorder
        self.latencies: list[tuple[str, float]] = []
        self.answers: list[tuple[str, str, object, int]] = []
        self.errors: list[tuple[str, int]] = []
        self.growths = 0
        self.grid_solves = 0
        self.steps: list[int] = []

    def call(self, label: str, points: int, func, *args, **kwargs):
        started = time.perf_counter()
        try:
            return func(*args, **kwargs)
        except Exception as error:  # noqa: BLE001 - a failed call is a counted failure
            self.errors.append((f"{label}: {type(error).__name__}: {error}", points))
            return None
        finally:
            self.latencies.append((label, time.perf_counter() - started))

    # paper_sweep ------------------------------------------------------------------

    def paper_sweep(self, spec: dict, parallel: bool = True) -> None:
        from repro.experiments import run_figure5, run_figure8, run_figure9
        from repro.solvers import shared_cache
        from repro.sweeps import SweepRunner

        # Figure 9's sizing search memoises in the shared cache: start clean.
        shared_cache().clear()
        for name in spec["calls"]:
            runner = SweepRunner(parallel=parallel)
            if name == "figure5":
                rate = spec["figure5_rate"]
                result = self.call(
                    name, len(wl.FIGURE5_SERVERS), run_figure5,
                    arrival_rates=(rate,), server_counts=wl.FIGURE5_SERVERS, runner=runner,
                )
                if result is not None:
                    for point in result.curves[rate].points:
                        key = f"{rate}|{point.num_servers}"
                        self.answers.append(("figure5", key, point.mean_queue_length, 1))
            elif name == "figure8":
                loads = tuple(spec["figure8_loads"])
                result = self.call(name, 2 * len(loads), run_figure8, loads=loads, runner=runner)
                if result is not None:
                    for point in result.points:
                        value = [point.exact_queue_length, point.approximate_queue_length]
                        self.answers.append(("figure8", f"{point.load:.2f}", value, 2))
            else:
                result = self.call(
                    name, 2 * len(wl.FIGURE9_SERVERS), run_figure9,
                    server_counts=wl.FIGURE9_SERVERS, runner=runner,
                )
                if result is not None:
                    for point in result.points:
                        value = [point.exact_response_time, point.approximate_response_time]
                        self.answers.append(("figure9", str(point.num_servers), value, 2))
                    self.answers.append(("figure9", "required_servers", result.required_servers, 0))

    # chain_batch ------------------------------------------------------------------

    def chain_batch(self, spec: dict) -> None:
        for name in spec["calls"]:
            getattr(self, f"_chain_{name}")(spec)

    def _chain_ctmc_grid(self, spec: dict) -> None:
        from repro.solvers import solve_many

        for preset in wl.PRESETS:
            grid = _grid_models(preset, spec["factors"])
            steady_before = self.recorder.count("kernels.steady_state") if self.recorder else 0
            models = [model for _, model in grid]
            outcomes = self.call("ctmc_grid", len(grid), solve_many, models, ("ctmc",), cache=False)
            if outcomes is None:
                continue
            if self.recorder is not None:
                solves = self.recorder.count("kernels.steady_state") - steady_before
                self.growths += solves - len(grid)
                self.grid_solves += len(grid)
            for ((factor, capacity), _), outcome in zip(grid, outcomes):
                value = outcome.metrics.get("mean_queue_length", float("nan"))
                self.answers.append(("ctmc_grid", _grid_key(preset, factor, capacity), value, 1))

    def _chain_lumped(self, spec: dict) -> None:
        from repro.scenarios import solve_scenario_ctmc

        solution = self.call("lumped", 1, solve_scenario_ctmc, lumped_model(), LUMPED_LEVEL)
        if solution is not None:
            self.answers.append(("lumped", "mean_queue_length", solution.mean_queue_length, 1))

    def _chain_transient(self, spec: dict) -> None:
        from repro.queueing import sun_fitted_model
        from repro.scenarios import scenario_preset
        from repro.transient import solve_transient

        servers, rate = spec["transient_model"]
        cases = [(_model_key(servers, rate), sun_fitted_model(servers, rate))]
        cases += [(preset, scenario_preset(preset)) for preset in wl.SCENARIO_TRANSIENT_PRESETS]
        for key, model in cases:
            solution = self.call("transient", 1, solve_transient, model, wl.TRANSIENT_TIMES)
            if solution is not None:
                self.steps.append(solution.steps)
                self.answers.append(("transient", key, list(solution.mean_queue_length), 1))

    def _chain_first_passage(self, spec: dict) -> None:
        from repro.queueing import sun_fitted_model
        from repro.transient import first_passage_time

        servers, rate = spec["passage_model"]
        model = sun_fitted_model(servers, rate)
        key = _model_key(servers, rate)
        down = self.call(
            "first_passage", 1, first_passage_time, model, wl.PASSAGE_TIMES,
            target="all-servers-down",
        )
        if down is not None:
            self.answers.append(("first_passage", f"{key}|down", [down.mean, *down.cdf], 1))
        queue = self.call(
            "first_passage", 1, first_passage_time, model, wl.QUEUE_PASSAGE_TIMES,
            target="queue-exceeds", queue_threshold=wl.QUEUE_PASSAGE_THRESHOLD,
        )
        if queue is not None:
            self.answers.append(("first_passage", f"{key}|queue", [queue.mean, *queue.cdf], 1))

    def _chain_simulation(self, spec: dict) -> None:
        from repro.scenarios import scenario_preset
        from repro.simulation import simulate_scenario

        estimate = self.call(
            "simulation", 1, simulate_scenario, scenario_preset(wl.SIMULATED_PRESET),
            horizon=wl.SIMULATION_HORIZON, seed=spec["simulation_seed"], confidence=0.999,
        )
        if estimate is not None:
            interval = estimate.mean_queue_length
            self.answers.append(
                ("simulation", wl.SIMULATED_PRESET, [interval.estimate, interval.half_width], 1)
            )


# -- checks against the stored references ------------------------------------------


def check(answers: list[tuple[str, str, object, int]], references: dict) -> tuple[int, list[str]]:
    """Points whose answer disagrees with its reference, and why.

    Analytic values must match at ``REFERENCE_RTOL``; a simulation passes
    when the analytic reference lies inside its own 99.9% interval.
    """
    wrong, notes = 0, []
    for kind, key, value, points in answers:
        expected = references.get(kind, {}).get(key)
        if kind == "simulation":
            estimate, half_width = value
            ok = expected is not None and abs(estimate - expected) <= half_width
        elif expected is None:
            ok = False
        elif isinstance(expected, list):
            ok = len(expected) == len(value) and all(
                relative_close(float(a), float(b)) for a, b in zip(value, expected)
            )
        else:
            ok = relative_close(float(value), float(expected))
        if not ok:
            wrong += max(points, 1)
            notes.append(f"{kind} {key}: got {value}, reference {expected}")
    return wrong, notes


# -- the timed window ----------------------------------------------------------------


def _cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def run_window(workload: str, rounds, seconds: float, recorder: Recorder | None = None) -> dict:
    """Whole rounds until ``seconds`` have passed; answers are kept for the
    checks after the window."""
    round_runner = Round(recorder)
    specs: list[dict] = []
    points = 0
    round_times: list[float] = []
    cpu_started = _cpu_seconds()
    started = time.perf_counter()
    while True:
        spec = next(rounds)
        round_started = time.perf_counter()
        if workload == "paper_sweep":
            round_runner.paper_sweep(spec)
            points += wl.paper_sweep_points(spec)
        else:
            round_runner.chain_batch(spec)
            points += wl.chain_batch_points(spec)
        round_times.append(time.perf_counter() - round_started)
        specs.append(spec)
        if time.perf_counter() - started >= seconds:
            break
    elapsed = time.perf_counter() - started
    cpu = _cpu_seconds() - cpu_started
    return {
        "round": round_runner,
        "specs": specs,
        "round_times": round_times,
        "elapsed": elapsed,
        "points": points,
        "cpu_s": cpu,
    }


def _tally(window: dict, references: dict) -> tuple[Tally, list[str]]:
    tally = Tally()
    round_runner: Round = window["round"]
    failed_points = sum(points for _, points in round_runner.errors)
    wrong, notes = check(round_runner.answers, references)
    tally.attempted = window["points"]
    tally.failed = min(tally.attempted, failed_points + wrong)
    if failed_points:
        tally.reasons["raised"] = failed_points
    if wrong:
        tally.reasons["wrong-answer"] = wrong
    return tally, [message for message, _ in round_runner.errors] + notes


def _summary(window: dict) -> dict:
    """Window totals; a batch's latency samples are its round times (one
    pass over the workload's fixed call list)."""
    return {
        "elapsed": window["elapsed"],
        "points": window["points"],
        "requests": len(window["round"].latencies),
        "latencies": window["round_times"],
        "rounds": len(window["specs"]),
        "cpu_s": window["cpu_s"],
    }


def _numerics_text() -> str:
    from repro.obs import numerics_registry

    return numerics_registry().render()


def traced_layers(
    workload: str, seed: int, seconds: float, untraced: dict, references: dict
) -> tuple[dict, Tally]:
    """Per-layer metrics: a traced window (wrappers installed) after the
    untraced one, plus, for ``paper_sweep``, a serial replay of its first
    round (pool workers' calls cannot be timed from this process)."""
    from repro.solvers import default_max_workers

    recorder = Recorder()
    rounds = wl.batch_rounds(workload, seed + 1)
    numerics_before = parse(_numerics_text())
    with instrumented(recorder):
        traced = run_window(workload, rounds, seconds, recorder)
    numerics_after = parse(_numerics_text())
    traced_round: Round = traced["round"]
    layers: dict[str, float] = {}
    if workload == "paper_sweep":
        layers["facade.pool_spawns"] = recorder.count("facade.pool_spawn") / len(traced["specs"])
        replay_recorder = Recorder()
        replay = Round(replay_recorder)
        numerics_before = parse(_numerics_text())
        first_spec = untraced["specs"][0]
        with instrumented(replay_recorder):
            replay_started = time.perf_counter()
            replay.paper_sweep(first_spec, parallel=False)
            serial = time.perf_counter() - replay_started
        numerics_after = parse(_numerics_text())
        workers = min(default_max_workers(), len(wl.FIGURE5_SERVERS))
        layers["facade.parallel_efficiency"] = serial / (workers * untraced["round_times"][0])
        source = replay_recorder
    else:
        source = recorder
        layers["ctmc.truncation_growths_per_solve"] = ratio(
            traced_round.growths, traced_round.grid_solves
        )
        layers["transient.steps"] = median([float(steps) for steps in traced_round.steps])
        by_label: dict[str, list[float]] = {}
        for label, seconds_taken in traced_round.latencies:
            by_label.setdefault(label, []).append(seconds_taken)
        layers["transient.first_passage_ms"] = median(by_label.get("first_passage", [])) * 1e3
        layers["simulation.run_ms"] = median(by_label.get("simulation", [])) * 1e3
        layers["kernels.iad_sweeps"] = ratio(
            counter_total(numerics_before, numerics_after, "repro_iad_sweeps_sum"),
            counter_total(numerics_before, numerics_after, "repro_iad_sweeps_count"),
        )

    def delta(name: str, **match: str) -> float:
        return counter_total(numerics_before, numerics_after, name, **match)

    useful = delta("repro_solver_attempts_total", outcome="ok")
    layers["facade.attempts_per_solve"] = ratio(delta("repro_solver_attempts_total"), useful)
    layers["facade.warm_start_hit_ratio"] = ratio(
        delta("repro_solver_warm_start_hits_total"), useful
    )
    layers["spectral.matrices_ms"] = per_call_ms(source, "spectral.matrices")
    layers["spectral.eigen_ms.p50"] = per_call_ms(source, "spectral.eigen")
    layers["spectral.eigen_ms.p99"] = per_call_ms(source, "spectral.eigen", 0.99)
    layers["spectral.boundary_ms.p50"] = per_call_ms(source, "spectral.boundary")
    layers["spectral.boundary_ms.p99"] = per_call_ms(source, "spectral.boundary", 0.99)
    layers["geometric.solve_ms"] = per_call_ms(source, "geometric.solve")
    layers["kernels.assemble_ms"] = per_call_ms(source, "kernels.assemble")
    layers["kernels.steady_state_ms"] = per_call_ms(source, "kernels.steady_state")
    layers["transient.uniformization_ms"] = per_call_ms(source, "transient.uniformization")
    layers["process.cpu_ms_per_op"] = untraced["cpu_s"] * 1e3 / untraced["points"]
    untraced_rate = untraced["points"] / untraced["elapsed"]
    traced_rate = traced["points"] / traced["elapsed"]
    layers["trace.overhead_share"] = 1.0 - traced_rate / untraced_rate
    tally, _ = _tally(traced, references)
    return layers, tally


# -- entry points ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="?", choices=wl.BATCH)
    parser.add_argument("seed", nargs="?", type=int, default=0)
    parser.add_argument("seconds", nargs="?", type=float, default=10.0)
    parser.add_argument("trace", nargs="?", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--make-references", action="store_true")
    args = parser.parse_args(argv)
    if args.make_references:
        return make_references()
    if args.workload is None:
        parser.error("a workload is required")

    _set_up(args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    references = json.loads(REFERENCES.read_text())
    window = run_window(args.workload, wl.batch_rounds(args.workload, args.seed), args.seconds)
    tally, notes = _tally(window, references)
    summary = _summary(window)
    summary.pop("cpu_s")
    # The kernel's own high-water mark: the parent only samples the tree.
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"summary": summary, "tally": vars(tally), "notes": notes[:10]}
    if args.trace:
        window["round"].answers.clear()  # checked above; free before the traced window
        layers, traced_tally = traced_layers(
            args.workload, args.seed, args.seconds, window, references
        )
        tally.merge(traced_tally)
        result["layers"] = layers
        result["tally"] = vars(tally)
    print(json.dumps(result), flush=True)
    return 0


def make_references() -> int:
    """Solve every point the workloads can draw, serially and cold."""
    from repro.experiments import run_figure5, run_figure8, run_figure9
    from repro.queueing import sun_fitted_model
    from repro.scenarios import scenario_preset, solve_scenario_ctmc
    from repro.solvers import solve
    from repro.transient import first_passage_time, solve_transient

    references: dict[str, dict] = {}
    figure5 = run_figure5(arrival_rates=wl.FIGURE5_RATES, server_counts=wl.FIGURE5_SERVERS)
    references["figure5"] = {
        f"{rate}|{point.num_servers}": point.mean_queue_length
        for rate, curve in figure5.curves.items()
        for point in curve.points
    }
    loads = tuple(sorted(load for band in wl.FIGURE8_BANDS for load in band))
    references["figure8"] = {
        f"{point.load:.2f}": [point.exact_queue_length, point.approximate_queue_length]
        for point in run_figure8(loads=loads).points
    }
    figure9 = run_figure9(server_counts=wl.FIGURE9_SERVERS)
    references["figure9"] = {
        str(point.num_servers): [point.exact_response_time, point.approximate_response_time]
        for point in figure9.points
    }
    references["figure9"]["required_servers"] = figure9.required_servers
    factors = [factor for band in wl.CHAIN_FACTOR_BANDS for factor in band]
    references["ctmc_grid"] = {
        _grid_key(preset, factor, capacity): solve(model, ("ctmc",), cache=False).metrics[
            "mean_queue_length"
        ]
        for preset in wl.PRESETS
        for (factor, capacity), model in _grid_models(preset, factors)
    }
    references["lumped"] = {
        "mean_queue_length": solve_scenario_ctmc(lumped_model(), LUMPED_LEVEL).mean_queue_length
    }
    transient = {
        _model_key(servers, rate): list(
            solve_transient(sun_fitted_model(servers, rate), wl.TRANSIENT_TIMES).mean_queue_length
        )
        for servers, rate in wl.TRANSIENT_MODELS
    }
    for preset in wl.SCENARIO_TRANSIENT_PRESETS:
        solution = solve_transient(scenario_preset(preset), wl.TRANSIENT_TIMES)
        transient[preset] = list(solution.mean_queue_length)
    references["transient"] = transient
    passages = {}
    for servers, rate in wl.PASSAGE_MODELS:
        model = sun_fitted_model(servers, rate)
        down = first_passage_time(model, wl.PASSAGE_TIMES, target="all-servers-down")
        queue = first_passage_time(
            model, wl.QUEUE_PASSAGE_TIMES, target="queue-exceeds",
            queue_threshold=wl.QUEUE_PASSAGE_THRESHOLD,
        )
        passages[f"{_model_key(servers, rate)}|down"] = [down.mean, *down.cdf]
        passages[f"{_model_key(servers, rate)}|queue"] = [queue.mean, *queue.cdf]
    references["first_passage"] = passages
    references["simulation"] = {
        wl.SIMULATED_PRESET: scenario_preset(wl.SIMULATED_PRESET).solve_ctmc().mean_queue_length
    }
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
