"""Command-line interface for the library.

Four subcommands cover the everyday workflows:

``solve``
    Evaluate one model configuration and print the headline performance
    metrics.  ``--solver`` accepts any :mod:`repro.solvers` registry name
    (``spectral``, ``geometric``, ``ctmc``, ``simulate``, or a third-party
    registration) or ``both`` for the exact/approximate side-by-side view.

``fit``
    Run the Section-2 analysis pipeline on a breakdown-trace CSV: cleaning,
    moment estimation, Kolmogorov–Smirnov tests and the hyperexponential fit.

``reproduce``
    Run the paper's experiments (optionally the quick variants, optionally
    in parallel) and print the consolidated report.

``sweep``
    Evaluate a user-defined parameter grid (server counts x arrival rates)
    through the :mod:`repro.sweeps` engine, with solver fallback, optional
    process parallelism and CSV/JSON export.

``scenario``
    Evaluate a named preset from the :mod:`repro.scenarios` library —
    heterogeneous server groups and limited repair crews — through the
    scenario-capable solvers (``ctmc``, ``simulate``), with optional load
    and crew-size overrides.  ``--list`` prints the preset gallery
    (``--list --json`` emits it as machine-readable JSON).

``transient``
    Time-dependent analysis through :mod:`repro.transient`: expected queue
    length, point availability and empty/all-down probabilities over a time
    grid for the homogeneous model or any scenario preset, optional
    first-passage analysis (time to "all servers down" or "queue exceeds
    L"), and CSV/JSON export of the per-time rows.

``serve``
    Run the :mod:`repro.service` solver service: an asyncio HTTP server
    answering concurrent JSON queries (steady-state, scenario, transient)
    with request coalescing, batch scheduling and backpressure.  See
    ``repro serve --help`` for the endpoints and the tuning knobs.

``cache-stats``
    Print solution-cache statistics: of a running ``repro serve`` instance
    (``--url``), or of this process's shared cache.

``top``
    A live terminal dashboard over a running service's ``/metrics`` and
    ``/stats``: per-shard RPS, p50/p99 latency, queue depth, cache hit
    rates, shedding tiers and SLO budget burn, redrawn every ``--interval``
    seconds (``--once --json`` emits one machine-readable summary instead).

``lint``
    Run the :mod:`repro.analysis` static analyzer — the repo-specific
    ``RPR001`` ... ``RPR011`` rules (blocking calls in async code, cache-unsafe
    distributions, float equality in the numerical core, undeclared scenario
    support, unstable error codes, swallowed cancellation, mutable defaults,
    dense generator allocations on the CTMC hot paths, multiprocessing
    primitives created on the event loop, print/root-logger use in the
    service stack, wall-clock duration measurement) — over files or
    directories.  Text or ``--format json`` output; exit
    code 0 when clean, 1 with findings, 2 on usage errors.

The CLI is installed as ``python -m repro`` (see ``__main__.py``) and as the
``repro`` console script when the package is installed with pip.
``repro --version`` reports the installed package version.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import NoReturn, TypeVar

from .data import read_trace_csv
from .distributions import Distribution, Exponential, HyperExponential
from .exceptions import ReproError
from .experiments import format_key_values, format_table, render_report, run_all_experiments
from .fitting import fit_exponential, fit_two_phase_from_moments
from .queueing import UnreliableQueueModel
from .scenarios import ScenarioModel, preset_description, preset_names, scenario_preset
from .solvers import SolverPolicy, solve as solve_model, solver_names
from .stats import EmpiricalDensity, estimate_moments, ks_test_grid
from .sweeps import SweepRunner, SweepSpec
from .transient import (
    INITIAL_CONDITIONS,
    TARGET_NAMES,
    first_passage_time,
    solve_transient,
)

_T = TypeVar("_T")


def _package_version() -> str:
    """The installed package version, falling back to the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro-unreliable-servers")
    except PackageNotFoundError:
        from . import __version__

        return __version__


class _OneLineErrorParser(argparse.ArgumentParser):
    """Top-level parser whose failures are one-line hints, not usage walls.

    An unknown subcommand (or a bad top-level flag) exits 2 with a single
    actionable line; subcommand parsers keep argparse's richer per-option
    diagnostics.
    """

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message} (run '{self.prog} --help' for usage)\n")


#: Endpoint and tuning documentation shown by ``repro serve --help``.
_SERVE_EPILOG = """\
endpoints:
  POST /solve    answer one JSON query, e.g.
                 {"query": "steady-state",
                  "model": {"servers": 10, "arrival_rate": 7.0}}
                 {"query": "scenario", "preset": "two-speed-cluster"}
                 {"query": "transient", "model": {...}, "times": [1, 5, 25]}
                 optional: "solvers" (fallback chain), "deadline" (seconds),
                 "simulate" ({"horizon", "seed", "num_batches",
                 "warmup_fraction"}).  Success: {"status": "ok", "solver",
                 "stable", "metrics", "cached", "coalesced", "elapsed_ms"}.
                 Failure: {"status": "error", "error": {"code", "message"}}
                 with codes bad-json, bad-request, unknown-solver,
                 unknown-preset, unstable-model, load-shed (429 +
                 Retry-After, with shard and shed_tier), queue-full (429),
                 worker-crashed (503, retryable), deadline-exceeded (504),
                 solve-failed.  Answers name the "shard" that computed them.
  GET /healthz   liveness, version, workers and workers ready, in-flight
                 requests against their bound and the BLAS runtime: usable
                 CPUs, the controlled OpenBLAS libraries and their threads
  GET /stats     uptime, HTTP counters, shedding counters, one shards[]
                 entry per shard (state, restarts, routed requests,
                 scheduler and solution-cache counters) and their totals
  GET /metrics   Prometheus text exposition (version 0.0.4): per-shard
                 solve/queue-wait/cache-lookup latency histograms, the
                 scheduler, cache and front counters, solver numerical-health
                 series and the repro_slo_* gauges, all as repro_* series
  GET /traces    recently retained traces newest-first; ?slow=1 restricts to
                 the slow ring, ?limit=N bounds the count (default 32).
                 The front fans the listing out to every shard.
  GET /traces/<id>  one retained trace's span tree (admission, queue-wait,
                 solve, ...); the front merges the owning shard's spans
                 into its re-based copy

observability:
  Every response carries an X-Trace-Id header and echoes the same id as
  "trace_id" in its JSON payload; requests slower than
  --slow-request-seconds emit their completed span trees to the log and
  stay queryable via GET /traces?slow=1.  Independently, every
  --trace-exemplar-interval-th trace is retained regardless of latency, so
  a representative healthy request survives ring churn.  'repro top --url
  http://host:port' renders the live dashboard over /metrics + /stats.
  --log-format json switches the service log to one JSON object per line
  (ts, level, event, trace_id, ...) for machine ingestion.

  --slo-queue-wait and --slo-solve-latency set rolling p99 targets; when
  either rolling p99 breaches its target the admission controller sheds
  cheapest-to-recompute query kinds first (429 load-shed) even while the
  queue is still shallow, and repro_slo_error_budget_total counts every
  request that individually missed a target.

tuning:
  --batch-window trades first-request latency for batching: concurrent
  distinct requests arriving within the window are solved as one
  solve_many() batch (identical requests are always coalesced to a single
  computation regardless of the window).  Raise it when clients burst many
  distinct configurations; lower it (or use 0) for latency-sensitive,
  low-concurrency traffic.  --max-queue bounds in-flight requests per
  shard: the front sheds cheapest-to-recompute query kinds first as
  in-flight requests reach 70, 85 and 100% of workers x max-queue, or a
  shard's own max-queue (429 load-shed with shard and shed_tier).

  --workers N sets the shard count: the front consistent-hashes each
  request's solution key onto one of N shards (per-shard caches and
  coalescing stay exact).  With 1 the shard runs in the front process; with
  N > 1 each shard is a worker process, and a crashed worker restarts under
  the same shard id.  --cache-dir persists each shard's cache across
  restarts (atomic JSON snapshots, spilled every --spill-interval seconds
  and on SIGTERM).
"""


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for tests and docs)."""
    parser = _OneLineErrorParser(
        prog="repro",
        description=(
            "Evaluate multi-server systems with unreliable servers "
            "(Palmer & Mitrani, DSN 2006 reproduction)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser(
        "solve", help="evaluate one model configuration and print its metrics"
    )
    solve.add_argument("--servers", type=int, required=True, help="number of servers N")
    solve.add_argument("--arrival-rate", type=float, required=True, help="Poisson arrival rate")
    solve.add_argument("--service-rate", type=float, default=1.0, help="per-server service rate")
    solve.add_argument(
        "--operative-mean", type=float, default=34.62, help="mean operative period"
    )
    solve.add_argument(
        "--operative-scv",
        type=float,
        default=4.6,
        help="squared coefficient of variation of operative periods (>= 1; 1 = exponential)",
    )
    solve.add_argument(
        "--repair-mean", type=float, default=0.04, help="mean inoperative (repair) period"
    )
    solve.add_argument(
        "--solver",
        "--method",
        dest="method",
        choices=("both", *solver_names()),
        default="both",
        help="which registered solver to use ('both' = spectral and geometric)",
    )
    solve.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print per-backend timing and the fallback-chain attempt record "
            "alongside the metrics (disables the solution cache for the run)"
        ),
    )

    fit = subparsers.add_parser(
        "fit", help="fit operative/inoperative period distributions to a trace CSV"
    )
    fit.add_argument("trace", help="path to the breakdown-trace CSV file")
    fit.add_argument(
        "--bins", type=int, default=50, help="number of histogram bins for the KS grid"
    )

    reproduce = subparsers.add_parser(
        "reproduce", help="run the paper's experiments and print the report"
    )
    reproduce.add_argument(
        "--quick", action="store_true", help="use reduced grids (a couple of minutes)"
    )
    reproduce.add_argument(
        "--skip-section2", action="store_true", help="skip the Section-2 trace analysis"
    )
    reproduce.add_argument(
        "--parallel", action="store_true", help="evaluate figure grids across worker processes"
    )
    reproduce.add_argument(
        "--jobs", type=int, default=None, help="worker-process count (default: CPU count)"
    )

    sweep = subparsers.add_parser(
        "sweep", help="evaluate a user-defined parameter grid over the model"
    )
    sweep.add_argument(
        "--servers",
        default="10",
        help="comma-separated server counts (e.g. 8,10,12)",
    )
    sweep.add_argument(
        "--arrival-rates",
        required=True,
        help="comma-separated Poisson arrival rates (e.g. 6.5,7.0,7.5)",
    )
    sweep.add_argument("--service-rate", type=float, default=1.0, help="per-server service rate")
    sweep.add_argument(
        "--operative-mean", type=float, default=34.62, help="mean operative period"
    )
    sweep.add_argument(
        "--operative-scv",
        type=float,
        default=4.6,
        help="squared coefficient of variation of operative periods (>= 1; 1 = exponential)",
    )
    sweep.add_argument(
        "--repair-mean", type=float, default=0.04, help="mean inoperative (repair) period"
    )
    sweep.add_argument(
        "--solvers",
        default="spectral,geometric",
        help="comma-separated solver order with fallback "
        "(any repro.solvers registry name: spectral, geometric, ctmc, simulate, ...)",
    )
    sweep.add_argument(
        "--parallel", action="store_true", help="evaluate grid points across worker processes"
    )
    sweep.add_argument(
        "--jobs", type=int, default=None, help="worker-process count (default: CPU count)"
    )
    sweep.add_argument("--csv", help="write the result rows to this CSV file")
    sweep.add_argument("--json", help="write the result rows to this JSON file")

    scenario = subparsers.add_parser(
        "scenario", help="evaluate a named scenario preset (server groups, repair crews)"
    )
    scenario.add_argument(
        "--list", action="store_true", help="list the available scenario presets and exit"
    )
    scenario.add_argument(
        "--preset",
        choices=preset_names(),
        help="which scenario preset to evaluate",
    )
    scenario.add_argument(
        "--arrival-rate", type=float, default=None, help="override the preset's arrival rate"
    )
    scenario.add_argument(
        "--repair-capacity",
        type=int,
        default=None,
        help="override the preset's repair-crew size R",
    )
    scenario.add_argument(
        "--solvers",
        default="ctmc,simulate",
        help="comma-separated solver order with fallback (scenario-capable: ctmc, simulate)",
    )
    scenario.add_argument(
        "--horizon",
        type=float,
        default=50_000.0,
        help="simulation horizon used when the 'simulate' solver runs",
    )
    scenario.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="emit machine-readable JSON (to PATH, or stdout if omitted): the preset "
        "gallery with --list, or the solved scenario with --preset",
    )

    transient = subparsers.add_parser(
        "transient",
        help="time-dependent metrics (queue length, availability, first passage) over a time grid",
    )
    transient.add_argument(
        "--preset",
        choices=preset_names(),
        default=None,
        help="analyse a scenario preset instead of the homogeneous model",
    )
    transient.add_argument("--servers", type=int, default=4, help="number of servers N")
    transient.add_argument(
        "--arrival-rate", type=float, default=2.0, help="Poisson arrival rate"
    )
    transient.add_argument(
        "--service-rate", type=float, default=1.0, help="per-server service rate"
    )
    transient.add_argument(
        "--operative-mean", type=float, default=34.62, help="mean operative period"
    )
    transient.add_argument(
        "--operative-scv",
        type=float,
        default=4.6,
        help="squared coefficient of variation of operative periods (>= 1; 1 = exponential)",
    )
    transient.add_argument(
        "--repair-mean", type=float, default=0.04, help="mean inoperative (repair) period"
    )
    transient.add_argument(
        "--repair-capacity",
        type=int,
        default=None,
        help="override the preset's repair-crew size R (presets only)",
    )
    transient.add_argument(
        "--times",
        default=None,
        help="comma-separated evaluation times (overrides --horizon/--points)",
    )
    transient.add_argument(
        "--horizon", type=float, default=50.0, help="largest evaluation time of the default grid"
    )
    transient.add_argument(
        "--points", type=int, default=8, help="number of grid points up to the horizon"
    )
    transient.add_argument(
        "--initial",
        choices=INITIAL_CONDITIONS,
        default="empty-operative",
        help="initial condition of the chain",
    )
    transient.add_argument(
        "--first-passage",
        dest="first_passage",
        choices=TARGET_NAMES,
        default=None,
        help="also compute the first-passage law to this target set",
    )
    transient.add_argument(
        "--queue-threshold",
        type=int,
        default=None,
        help="the level L of the 'queue-exceeds' first-passage target",
    )
    transient.add_argument("--csv", help="write the per-time metric rows to this CSV file")
    transient.add_argument("--json", help="write the per-time metric rows to this JSON file")

    serve = subparsers.add_parser(
        "serve",
        help="run the asyncio solver service (JSON over HTTP, coalescing + batching)",
        description=(
            "Run the repro.service solver service: an asyncio HTTP server answering "
            "concurrent steady-state, scenario and transient JSON queries.  Identical "
            "in-flight requests are coalesced to one computation, distinct requests "
            "arriving within the batch window are solved as one batch, and a bounded "
            "queue applies backpressure (429 + Retry-After)."
        ),
        epilog=_SERVE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="interface to bind (default: %(default)s)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port to bind; 0 = ephemeral (default: %(default)s)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "shard count: 1 = one shard in the front process, N > 1 = one worker "
            "process per shard behind a consistent-hash front (default: %(default)s)"
        ),
    )
    serve.add_argument(
        "--batch-window",
        type=float,
        default=0.005,
        help="seconds to hold a batch open for further requests (default: %(default)s)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="bound on in-flight requests per shard before 429 load-shed (default: %(default)s)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="largest batch handed to one solve_many call (default: %(default)s)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=4096,
        help="LRU bound of the service's solution cache (default: %(default)s)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "directory for solution-cache snapshots (one shard-<i>.json per worker); "
            "loaded on startup, spilled periodically and on shutdown (default: no persistence)"
        ),
    )
    serve.add_argument(
        "--spill-interval",
        type=float,
        default=30.0,
        help="seconds between periodic cache spills under --cache-dir (default: %(default)s)",
    )
    serve.add_argument(
        "--log-format",
        choices=("text", "json"),
        default="text",
        help="service log format: human-readable text or JSON lines (default: %(default)s)",
    )
    serve.add_argument(
        "--slow-request-seconds",
        type=float,
        default=1.0,
        help=(
            "requests slower than this emit their completed trace (span tree) "
            "to the log and land in the /traces?slow=1 ring (default: %(default)s)"
        ),
    )
    serve.add_argument(
        "--trace-exemplar-interval",
        type=int,
        default=32,
        help=(
            "retain every Nth trace regardless of latency so /traces keeps "
            "healthy exemplars; 0 disables sampling (default: %(default)s)"
        ),
    )
    serve.add_argument(
        "--slo-queue-wait",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help=(
            "rolling p99 queue-wait target; breaching it triggers "
            "latency-aware load shedding (default: %(default)s)"
        ),
    )
    serve.add_argument(
        "--slo-solve-latency",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help=(
            "rolling p99 solve-latency target for the SLO tracker "
            "(default: %(default)s)"
        ),
    )

    top = subparsers.add_parser(
        "top",
        help="live dashboard over a running service (/metrics + /stats)",
        description=(
            "Poll a running 'repro serve' instance's /metrics and /stats and "
            "render a live terminal dashboard: per-shard request rates, p50/p99 "
            "solve latency, queue depth, cache hit rates, shedding tiers and "
            "SLO error-budget burn.  Press q to quit.  With --once the current "
            "snapshot is printed to stdout instead (add --json for the "
            "machine-readable summary)."
        ),
    )
    top.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="base URL of the running service (default: %(default)s)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between dashboard refreshes (default: %(default)s)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print one snapshot and exit instead of entering the live view",
    )
    top.add_argument(
        "--json",
        action="store_true",
        help="with --once, emit the summary as JSON for scripts",
    )

    cache_stats = subparsers.add_parser(
        "cache-stats",
        help="print solution-cache statistics (of a running service, or in-process)",
        description=(
            "Print solution-cache statistics.  With --url, query a running "
            "'repro serve' instance's /stats endpoint (totals, pooled cache "
            "counters and one row per shard); without it, report this process's "
            "shared cache."
        ),
    )
    cache_stats.add_argument(
        "--url",
        default=None,
        help="base URL of a running service, e.g. http://127.0.0.1:8080",
    )
    cache_stats.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON instead of the table"
    )

    lint = subparsers.add_parser(
        "lint",
        help="run the repro static analyzer (RPR rules) over python sources",
        description=(
            "Run the repro.analysis static analyzer: repo-specific AST lint rules "
            "(RPR001...RPR011) encoding the solver/service stack's correctness "
            "contracts.  Exit code 0 = clean, 1 = findings, 2 = usage error.  "
            "Suppress a finding per line with '# repro: noqa RPRxxx'."
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyse (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: %(default)s)",
    )
    lint.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: every registered rule)",
    )
    lint.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule ids to skip",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def _operative_distribution(mean: float, scv: float) -> Distribution:
    if scv < 1.0:
        raise ReproError(
            "the analytical model requires an operative-period SCV >= 1 "
            "(use the simulator for low-variability periods)"
        )
    if scv == 1.0:
        return Exponential(rate=1.0 / mean)
    return HyperExponential.from_mean_and_scv(mean, scv)


def _command_solve(arguments: argparse.Namespace) -> int:
    model = UnreliableQueueModel(
        num_servers=arguments.servers,
        arrival_rate=arguments.arrival_rate,
        service_rate=arguments.service_rate,
        operative=_operative_distribution(arguments.operative_mean, arguments.operative_scv),
        inoperative=Exponential(rate=1.0 / arguments.repair_mean),
    )
    print(
        format_key_values(
            [
                ("servers", model.num_servers),
                ("offered load", model.offered_load),
                ("availability", model.availability),
                ("mean operative servers", model.mean_operative_servers),
                ("stable", model.is_stable),
                ("operational modes", model.num_modes),
            ],
            title="Model",
        )
    )
    if not model.is_stable:
        print("\nThe queue is unstable (paper Eq. 11); add servers or reduce the load.")
        return 1
    from .obs.profiling import capture_attempts

    with capture_attempts() as attempts:
        _print_solutions(model, arguments)
    if arguments.profile:
        print()
        print(
            format_table(
                ("solver", "seconds", "ok", "warm start", "error"),
                [
                    (
                        attempt.solver,
                        f"{attempt.seconds:.6f}",
                        "yes" if attempt.ok else "no",
                        "yes" if attempt.warm_start else "no",
                        attempt.error or "",
                    )
                    for attempt in attempts
                ],
                title="Backend attempts (fallback chain)",
            )
        )
    return 0


def _print_solutions(model: UnreliableQueueModel, arguments: argparse.Namespace) -> None:
    """Print the solution tables for ``repro solve``, recording backend timings."""
    from .obs.profiling import record_attempt

    if arguments.method in ("spectral", "both"):
        started = time.perf_counter()
        solution = model.solve_spectral()
        record_attempt("spectral", time.perf_counter() - started, ok=True)
        print()
        print(
            format_key_values(
                [
                    ("mean jobs L", solution.mean_queue_length),
                    ("mean response time W", solution.mean_response_time),
                    ("P(empty)", solution.probability_empty),
                    ("P(delay)", solution.probability_delay),
                    ("decay rate z_s", solution.decay_rate),
                ],
                title="Exact spectral-expansion solution",
            )
        )
    if arguments.method in ("geometric", "both"):
        started = time.perf_counter()
        approximation = model.solve_geometric()
        record_attempt("geometric", time.perf_counter() - started, ok=True)
        print()
        print(
            format_key_values(
                [
                    ("mean jobs L", approximation.mean_queue_length),
                    ("mean response time W", approximation.mean_response_time),
                    ("decay rate z_s", approximation.decay_rate),
                ],
                title="Geometric approximation",
            )
        )
    if arguments.method not in ("spectral", "geometric", "both"):
        # Under --profile the cache is bypassed so the fallback chain's
        # attempts actually execute (a memoised hit records nothing).
        outcome = solve_model(model, arguments.method, cache=False if arguments.profile else None)
        if outcome.solver is None:
            raise ReproError(outcome.error or "no solver succeeded")
        preferred = [
            ("mean jobs L", outcome.metrics.get("mean_queue_length")),
            ("mean response time W", outcome.metrics.get("mean_response_time")),
        ]
        print()
        print(
            format_key_values(
                [
                    *[(label, value) for label, value in preferred if value is not None],
                    *sorted(
                        (name, value)
                        for name, value in outcome.metrics.items()
                        if name not in ("mean_queue_length", "mean_response_time")
                    ),
                ],
                title=f"Solution ({outcome.solver})",
            )
        )


def _command_fit(arguments: argparse.Namespace) -> int:
    trace = read_trace_csv(arguments.trace)
    cleaned = trace.cleaned()
    print(
        format_key_values(
            [
                ("rows", trace.num_events),
                ("anomalous fraction", trace.anomalous_fraction),
            ],
            title=f"Trace {arguments.trace}",
        )
    )
    for label, sample in (
        ("Operative periods", cleaned.operative_periods()),
        ("Inoperative periods", cleaned.inoperative_periods()),
    ):
        moments = estimate_moments(sample, 3)
        density = EmpiricalDensity.from_observations(sample, num_bins=arguments.bins)
        exponential = fit_exponential(moments)
        exponential_ks = ks_test_grid(density, exponential.cdf)
        lines = [
            ("mean", float(moments[0])),
            ("C^2", float(moments[1] / moments[0] ** 2 - 1.0)),
            ("exponential KS D", exponential_ks.statistic),
            ("exponential passes at 5%", exponential_ks.passes(0.05)),
        ]
        try:
            hyper = fit_two_phase_from_moments(moments).distribution
            hyper_ks = ks_test_grid(density, hyper.cdf)
            lines.extend(
                [
                    ("H2 weights", tuple(round(float(w), 4) for w in hyper.weights)),
                    ("H2 rates", tuple(round(float(r), 4) for r in hyper.rates)),
                    ("H2 KS D", hyper_ks.statistic),
                    ("H2 passes at 5%", hyper_ks.passes(0.05)),
                ]
            )
        except ReproError as error:
            lines.append(("H2 fit", f"not applicable ({error})"))
        print()
        print(format_key_values(lines, title=label))
    return 0


def _command_reproduce(arguments: argparse.Namespace) -> int:
    reports = run_all_experiments(
        include_section2=not arguments.skip_section2,
        quick=arguments.quick,
        parallel=arguments.parallel,
        max_workers=arguments.jobs,
    )
    print(render_report(reports))
    return 0


def _parse_list(text: str, kind: Callable[[str], _T], name: str) -> tuple[_T, ...]:
    try:
        values = tuple(kind(item.strip()) for item in text.split(",") if item.strip())
    except ValueError as exc:
        raise ReproError(f"could not parse {name} from {text!r}") from exc
    if not values:
        raise ReproError(f"{name} must contain at least one value")
    return values


def _command_sweep(arguments: argparse.Namespace) -> int:
    base_model = UnreliableQueueModel(
        num_servers=1,
        arrival_rate=1.0,
        service_rate=arguments.service_rate,
        operative=_operative_distribution(arguments.operative_mean, arguments.operative_scv),
        inoperative=Exponential(rate=1.0 / arguments.repair_mean),
    )
    spec = SweepSpec(
        base_model=base_model,
        axes=[
            ("num_servers", _parse_list(arguments.servers, int, "--servers")),
            ("arrival_rate", _parse_list(arguments.arrival_rates, float, "--arrival-rates")),
        ],
        policy=SolverPolicy(order=_parse_list(arguments.solvers, str, "--solvers")),
        name="cli-sweep",
    )
    runner = SweepRunner(parallel=arguments.parallel, max_workers=arguments.jobs)
    results = runner.run(spec)

    rows = [
        (
            row.parameters["num_servers"],
            row.parameters["arrival_rate"],
            row.solver or "-",
            row.stable,
            row.metrics.get("mean_queue_length", float("nan")),
            row.metrics.get("mean_response_time", float("nan")),
            row.error or "-",
        )
        for row in results
    ]
    print(
        format_table(
            ("N", "lambda", "solver", "stable", "mean jobs L", "response W", "error"),
            rows,
            title=f"Sweep over {results.axis_names} ({len(results)} points)",
        )
    )
    if arguments.csv:
        print(f"\nwrote {results.to_csv(arguments.csv)}")
    if arguments.json:
        results.to_json(arguments.json)
        print(f"wrote {arguments.json}")
    return 0


def _preset_record(name: str) -> dict[str, object]:
    """One machine-readable gallery entry for ``repro scenario --list --json``."""
    scenario = scenario_preset(name)
    return {
        "name": name,
        "description": preset_description(name),
        "num_servers": scenario.num_servers,
        "num_groups": scenario.num_groups,
        "num_modes": scenario.num_modes,
        "arrival_rate": scenario.arrival_rate,
        "repair_capacity": scenario.effective_repair_capacity,
        "effective_load": scenario.effective_load,
        "stable": scenario.is_stable,
        "groups": [
            {
                "name": group.name,
                "size": group.size,
                "service_rate": group.service_rate,
                "operative_mean": group.operative.mean,
                "inoperative_mean": group.inoperative.mean,
            }
            for group in scenario.groups
        ],
    }


def _command_scenario(arguments: argparse.Namespace) -> int:
    if arguments.list:
        if arguments.json is not None:
            payload = {"presets": [_preset_record(name) for name in preset_names()]}
            text = json.dumps(payload, indent=2)
            if arguments.json == "-":
                print(text)
            else:
                Path(arguments.json).write_text(text + "\n")
                print(f"wrote {arguments.json}")
            return 0
        rows = [(name, preset_description(name)) for name in preset_names()]
        print(format_table(("preset", "description"), rows, title="Scenario presets"))
        return 0
    if arguments.preset is None:
        if arguments.json is not None:
            raise ReproError("--json needs --list (preset gallery) or --preset (solved scenario)")
        raise ReproError("choose a preset with --preset, or use --list to see them")
    scenario = scenario_preset(
        arguments.preset,
        arrival_rate=arguments.arrival_rate,
        repair_capacity=arguments.repair_capacity,
    )
    group_rows = [
        (
            group.name,
            group.size,
            group.service_rate,
            round(group.operative.mean, 4),
            round(group.inoperative.mean, 4),
        )
        for group in scenario.groups
    ]
    print(
        format_table(
            ("group", "size", "mu", "operative mean", "repair mean"),
            group_rows,
            title=f"Scenario {scenario.name!r}",
        )
    )
    print()
    print(
        format_key_values(
            [
                ("servers", scenario.num_servers),
                ("repair capacity R", scenario.effective_repair_capacity),
                ("arrival rate", scenario.arrival_rate),
                ("operational modes", scenario.num_modes),
                ("mean service capacity", scenario.mean_service_capacity),
                ("effective load", scenario.effective_load),
                ("stable", scenario.is_stable),
            ],
            title="Model",
        )
    )
    print()
    print(
        format_key_values(
            [
                ("lumped modes", scenario.num_modes),
                ("per-server product modes", scenario.environment.num_product_modes),
            ],
            title="State space",
        )
    )
    if not scenario.is_stable:
        print("\nThe scenario is unstable; add capacity or reduce the load.")
        return 1
    policy = SolverPolicy(
        order=_parse_list(arguments.solvers, str, "--solvers"),
        simulate_horizon=arguments.horizon,
    )
    outcome = solve_model(scenario, policy)
    if outcome.solver is None:
        raise ReproError(outcome.error or "no solver succeeded")
    print()
    print(
        format_key_values(
            [
                ("mean jobs L", outcome.metrics["mean_queue_length"]),
                ("mean response time W", outcome.metrics["mean_response_time"]),
                *sorted(
                    (name, value)
                    for name, value in outcome.metrics.items()
                    if name not in ("mean_queue_length", "mean_response_time")
                ),
            ],
            title=f"Solution ({outcome.solver})",
        )
    )
    if arguments.json is not None:
        payload = {
            "scenario": scenario.name,
            "servers": scenario.num_servers,
            "arrival_rate": scenario.arrival_rate,
            "repair_capacity": scenario.effective_repair_capacity,
            "state_space": {
                "num_modes": scenario.num_modes,
                "num_product_modes": scenario.environment.num_product_modes,
            },
            "solver": outcome.solver,
            "metrics": outcome.metrics,
        }
        text = json.dumps(payload, indent=2)
        if arguments.json == "-":
            print()
            print(text)
        else:
            Path(arguments.json).write_text(text + "\n")
            print(f"\nwrote {arguments.json}")
    return 0


def _transient_model(arguments: argparse.Namespace) -> UnreliableQueueModel | ScenarioModel:
    """The model the ``transient`` subcommand analyses (preset or homogeneous)."""
    if arguments.preset is not None:
        return scenario_preset(
            arguments.preset,
            repair_capacity=arguments.repair_capacity,
        )
    if arguments.repair_capacity is not None:
        raise ReproError("--repair-capacity applies to scenario presets; pass --preset")
    return UnreliableQueueModel(
        num_servers=arguments.servers,
        arrival_rate=arguments.arrival_rate,
        service_rate=arguments.service_rate,
        operative=_operative_distribution(arguments.operative_mean, arguments.operative_scv),
        inoperative=Exponential(rate=1.0 / arguments.repair_mean),
    )


def _transient_times(arguments: argparse.Namespace) -> tuple[float, ...]:
    """The evaluation grid: explicit ``--times``, else ``--horizon``/``--points``."""
    if arguments.times is not None:
        return _parse_list(arguments.times, float, "--times")
    if arguments.horizon <= 0.0:
        raise ReproError(f"--horizon must be positive, got {arguments.horizon}")
    points = arguments.points
    if points < 1:
        raise ReproError(f"--points must be at least 1, got {points}")
    return tuple(arguments.horizon * (index + 1) / points for index in range(points))


def _command_transient(arguments: argparse.Namespace) -> int:
    model = _transient_model(arguments)
    times = _transient_times(arguments)
    solution = solve_transient(model, times, initial=arguments.initial)
    print(
        format_key_values(
            [
                ("model", repr(model)),
                ("initial condition", arguments.initial),
                ("solved states", solution.num_solved_states),
                ("truncation level", solution.truncation_level),
                ("uniformization rate", solution.uniformization_rate),
                ("uniformization steps", solution.steps),
            ],
            title="Transient analysis",
        )
    )
    rows = [
        (
            row["time"],
            round(row["mean_queue_length"], 6),
            round(row["availability"], 6),
            round(row["probability_empty"], 6),
            round(row["probability_all_inoperative"], 8),
        )
        for row in solution.to_rows()
    ]
    print()
    print(
        format_table(
            ("t", "mean jobs L(t)", "availability A(t)", "P(empty)", "P(all down)"),
            rows,
            title=f"Trajectories ({len(solution.times)} grid points)",
        )
    )
    if arguments.first_passage is not None:
        passage = first_passage_time(
            model,
            times,
            target=arguments.first_passage,
            queue_threshold=arguments.queue_threshold,
            initial=arguments.initial,
        )
        print()
        print(
            format_table(
                ("t", "P(T <= t)"),
                [(t, round(value, 6)) for t, value in zip(passage.times, passage.cdf)],
                title=f"First passage to {passage.target!r} (mean {passage.mean:.4f})",
            )
        )
    if arguments.csv:
        print(f"\nwrote {solution.to_csv(arguments.csv)}")
    if arguments.json:
        solution.to_json(arguments.json)
        print(f"wrote {arguments.json}")
    return 0


def _command_serve(arguments: argparse.Namespace) -> int:
    # Imported lazily: the serving layer is only needed by this subcommand.
    from .service import ServiceConfig, run_service

    try:
        config = ServiceConfig(
            host=arguments.host,
            port=arguments.port,
            workers=arguments.workers,
            batch_window=arguments.batch_window,
            max_queue=arguments.max_queue,
            max_batch=arguments.max_batch,
            cache_maxsize=arguments.cache_size,
            cache_dir=arguments.cache_dir,
            spill_interval=arguments.spill_interval,
            log_format=arguments.log_format,
            slow_request_seconds=arguments.slow_request_seconds,
            trace_exemplar_interval=arguments.trace_exemplar_interval,
            slo_queue_wait_seconds=arguments.slo_queue_wait,
            slo_solve_latency_seconds=arguments.slo_solve_latency,
        )
        return run_service(config)
    except ValueError as error:
        raise ReproError(str(error)) from error


def _command_top(arguments: argparse.Namespace) -> int:
    # Imported lazily: the dashboard (and the service client) are only
    # needed by this subcommand.
    from .obs.dashboard import DashboardSnapshot, render_dashboard, run_dashboard, summarize
    from .service import ServiceClient

    if arguments.json and not arguments.once:
        raise ReproError("--json needs --once (the live view is curses-drawn)")
    host, port = _service_address(arguments.url)
    if arguments.interval <= 0:
        raise ReproError(f"--interval must be positive, got {arguments.interval}")

    def fetch() -> DashboardSnapshot:
        with ServiceClient(host, port, timeout=10.0) as client:
            status, metrics_text = client.metrics()
            if status != 200:
                raise ReproError(f"/metrics returned HTTP {status}")
            stats = client.stats()
            if stats.status != 200:
                raise ReproError(f"/stats returned HTTP {stats.status}: {stats.payload}")
        return DashboardSnapshot.from_payloads(
            metrics_text, stats.payload, at=time.monotonic()
        )

    try:
        snapshot = fetch()
        if arguments.once:
            if arguments.json:
                print(json.dumps(summarize(snapshot), indent=2, sort_keys=True))
            else:
                print("\n".join(render_dashboard(snapshot)))
            return 0
        run_dashboard(fetch, interval=arguments.interval)
    except OSError as error:
        raise ReproError(f"could not reach {arguments.url}: {error}") from error
    return 0


def _service_address(url: str) -> tuple[str, int]:
    """Parse a ``--url`` value into the client's host/port pair."""
    from urllib.parse import urlparse

    parsed = urlparse(url if "//" in url else f"http://{url}")
    try:
        if parsed.scheme not in ("", "http") or not parsed.hostname:
            raise ValueError("not an http address")
        port = parsed.port
    except ValueError as error:
        # urlparse defers port validation to the .port property, so a
        # non-numeric port surfaces here rather than at parse time.
        raise ReproError(
            f"--url must be a plain http://host:port address, got {url!r}"
        ) from error
    return parsed.hostname, port or 80


def _print_service_stats(url: str, payload: dict) -> None:
    """Render a /stats payload: totals, the pooled cache, one row per shard."""
    totals = payload["totals"]
    print(
        format_key_values(
            [
                ("uptime seconds", payload["uptime_seconds"]),
                ("workers", payload["workers"]),
                ("responses total", payload["responses_total"]),
                ("errors total", payload["errors_total"]),
                ("shed total", payload["shedding"]["shed_total"]),
                ("requests total", totals["requests_total"]),
                ("coalesced total", totals["coalesced_total"]),
                ("batches total", totals["batches_total"]),
                ("rejected total", totals["rejected_total"]),
                ("cache hits total", totals["cache_hits_total"]),
            ],
            title=f"Service {url}",
        )
    )
    caches = [entry["scheduler"]["cache"] for entry in payload["shards"] if "scheduler" in entry]
    pooled = {
        key: sum(cache[key] for cache in caches) for key in _CACHE_STAT_KEYS if key != "hit_rate"
    }
    lookups = pooled["hits"] + pooled["misses"]
    pooled["hit_rate"] = pooled["hits"] / lookups if lookups else 0.0
    print()
    print(format_key_values(_cache_lines(pooled), title="Solution cache (all shards)"))
    rows = []
    for entry in payload["shards"]:
        scheduler = entry.get("scheduler", {})
        cache = scheduler.get("cache", {})
        hits = cache.get("hits", 0)
        lookups = hits + cache.get("misses", 0)
        rows.append(
            (
                entry["shard"],
                entry["state"],
                scheduler.get("requests_total", 0),
                hits,
                cache.get("misses", 0),
                f"{hits / lookups:.3f}" if lookups else "n/a",
                cache.get("size", 0),
            )
        )
    print()
    print(
        format_table(
            ("shard", "state", "requests", "hits", "misses", "hit rate", "entries"),
            rows,
            title="Per-shard solution caches",
        )
    )


def _command_cache_stats(arguments: argparse.Namespace) -> int:
    from .solvers import shared_cache

    if arguments.url is not None:
        from .service import ServiceClient

        host, port = _service_address(arguments.url)
        try:
            with ServiceClient(host, port, timeout=10.0) as client:
                response = client.stats()
        except OSError as error:
            raise ReproError(f"could not reach {arguments.url}: {error}") from error
        if response.status != 200:
            raise ReproError(f"/stats returned HTTP {response.status}: {response.payload}")
        payload = response.payload
        if arguments.json:
            print(json.dumps(payload, indent=2))
            return 0
        _print_service_stats(arguments.url, payload)
        return 0
    stats = shared_cache().stats()
    if arguments.json:
        print(json.dumps(stats, indent=2))
        return 0
    print(format_key_values(_cache_lines(stats), title="Shared solution cache (this process)"))
    return 0


#: Canonical ordering of the solution-cache counters, persistence included —
#: ``spills``/``loads`` must render even when zero, so a snapshot setup is
#: visible at a glance.
_CACHE_STAT_KEYS = (
    "hits",
    "misses",
    "hit_rate",
    "size",
    "maxsize",
    "solves",
    "evictions",
    "spills",
    "spilled_entries",
    "loads",
    "loaded_entries",
)


def _cache_lines(cache: dict) -> list[tuple[str, object]]:
    """Cache stats as ordered key/value rows, spill/load counters always shown."""
    lines: list[tuple[str, object]] = [
        (key, cache.get(key, 0)) for key in _CACHE_STAT_KEYS
    ]
    lines.extend(sorted((k, v) for k, v in cache.items() if k not in _CACHE_STAT_KEYS))
    return lines


def _command_lint(arguments: argparse.Namespace) -> int:
    # Imported lazily: the analyzer is only needed by this subcommand.
    from .analysis import analyze_paths, default_registry

    if arguments.list_rules:
        registry = default_registry()
        rows = [(rule.rule_id, rule.title) for rule in registry]
        print(format_table(("rule", "checks for"), rows, title="Registered lint rules"))
        return 0
    select = _parse_list(arguments.select, str, "--select") if arguments.select else None
    ignore = _parse_list(arguments.ignore, str, "--ignore") if arguments.ignore else None
    report = analyze_paths(arguments.paths, select=select, ignore=ignore)
    if arguments.format == "json":
        print(json.dumps(report.to_json_payload(), indent=2))
    else:
        print(report.render_text())
    return report.exit_code


#: Subcommand dispatch: one handler per registered subparser.
_COMMANDS = {
    "solve": _command_solve,
    "fit": _command_fit,
    "reproduce": _command_reproduce,
    "sweep": _command_sweep,
    "scenario": _command_scenario,
    "transient": _command_transient,
    "serve": _command_serve,
    "top": _command_top,
    "cache-stats": _command_cache_stats,
    "lint": _command_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro`` command-line interface."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    handler = _COMMANDS.get(arguments.command)
    if handler is None:
        # Defensive: a subparser registered without a handler must degrade to
        # the same one-line exit-2 hint as an unknown subcommand, never a
        # traceback.
        print(
            f"repro: error: unknown command {arguments.command!r} "
            "(run 'repro --help' for usage)",
            file=sys.stderr,
        )
        return 2
    try:
        return handler(arguments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
