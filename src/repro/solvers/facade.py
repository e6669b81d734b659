"""The solve facade: the library's single solver-fallback implementation.

:func:`evaluate` is the **only** place the spectral → geometric → ctmc →
simulate fallback chain exists; :func:`solve` adds shared-cache memoisation
on top, and :func:`solve_many` adds batch deduplication and process
parallelism.  Every consumer — the sweep engine, the cost optimiser, the
sizing helpers, the CLI and the experiment drivers — dispatches through this
module, so fallback semantics cannot drift between call sites.

Parallel fan-out is parent-owned: pending work is deduplicated by cache key
*before* tasks are submitted, worker processes evaluate pure
``(model, policy)`` functions and return picklable outcomes, and the parent
merges the results back into the cache.  Repeated grid points are therefore
never solved twice, serial or parallel.

``parallel=True`` is a permission, not an order: a batch fans out only when
its estimated work (each first-choice solver's
:meth:`~repro.solvers.base.Solver.work_estimate`) reaches
:data:`POOL_BREAK_EVEN_WORK`, or when any task's cost is unknown.  Smaller
batches run the serial warm-start walk in-process, with the same outcomes:
below that work, creating and feeding a process pool costs more than it
saves.
"""

from __future__ import annotations

import asyncio
import functools
import time
import warnings
from collections.abc import Iterable, Sequence
from concurrent.futures import Executor, ProcessPoolExecutor
from typing import TYPE_CHECKING

from ..blas import usable_cpus
from ..exceptions import ParameterError, SimulationError, SolverError
from ..obs.metrics import MetricsRegistry, numerics_registry
from ..obs.profiling import AttemptRecord, capture_attempts, record_attempt
from .base import INFINITE_METRICS, SolveOutcome
from .cache import CacheKey, SolutionCache, shared_cache
from .policy import SolverPolicy, as_policy
from .registry import SolverRegistry, default_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.model import ScenarioModel

#: Exception types that make one solver fall through to the next in a policy.
FALLBACK_EXCEPTIONS = (SolverError, ParameterError, SimulationError, NotImplementedError)


def _evaluate_capturing(
    model: "ScenarioModel",
    policy: SolverPolicy | None,
    registry: SolverRegistry | None,
    seeds: dict[str, object] | None = None,
) -> tuple[SolveOutcome, dict[str, object]]:
    """Evaluate one model, threading warm starts in and native solutions out.

    ``seeds`` maps solver names to the native solution of a *nearby* model;
    each is forwarded as the ``warm_start`` option to solvers that declare
    :attr:`~repro.solvers.base.Solver.supports_warm_start`.  The returned
    mapping carries the winning solver's native solution (same keying) so the
    batch path can seed the next grid point — it never leaves this module.
    """
    policy = as_policy(policy, registry=registry)
    registry = registry if registry is not None else default_registry()
    if not model.is_stable:
        return SolveOutcome(None, False, dict(INFINITE_METRICS), None), {}
    numerics = numerics_registry()
    failures: list[str] = []
    for name in policy.order:
        warm = False
        seeded = False
        attempt_started = time.perf_counter()
        try:
            solver = registry.get(name)
            if not solver.supports(model):
                reason = solver.unsupported_reason(model)
                failures.append(f"{name}: {reason}")
                record_attempt(
                    name, time.perf_counter() - attempt_started, ok=False, error=reason
                )
                _count_attempt(numerics, name, "unsupported")
                continue
            options = solver.options_from_policy(policy)
            warm = bool(getattr(solver, "supports_warm_start", False))
            seeded = bool(warm and seeds and name in seeds)
            if seeded and seeds is not None:
                options["warm_start"] = seeds[name]
            solution = solver.solve(model, **options)
            metrics = dict(solver.metrics(solution))
        except FALLBACK_EXCEPTIONS as exc:
            failures.append(f"{name}: {exc}")
            record_attempt(
                name, time.perf_counter() - attempt_started, ok=False, error=str(exc)
            )
            _count_attempt(numerics, name, "failed")
            continue
        record_attempt(
            name, time.perf_counter() - attempt_started, ok=True, warm_start=seeded
        )
        _count_attempt(numerics, name, "ok")
        if seeded:
            numerics.counter(
                "repro_solver_warm_start_hits_total",
                "Successful solves that were seeded from a neighbouring solution.",
                labels={"solver": name},
            ).inc()
        return SolveOutcome(name, True, metrics, None), ({name: solution} if warm else {})
    numerics.counter(
        "repro_solver_fallback_exhausted_total",
        "Evaluations in which every solver in the policy order failed.",
    ).inc()
    return SolveOutcome(None, True, {}, "; ".join(failures) or "no solver succeeded"), {}


def _count_attempt(numerics: "MetricsRegistry", solver: str, outcome: str) -> None:
    """One fallback-chain attempt in the numerical-health registry."""
    numerics.counter(
        "repro_solver_attempts_total",
        "Fallback-chain attempts, by solver and outcome.",
        labels={"solver": solver, "outcome": outcome},
    ).inc()


def evaluate(
    model: "ScenarioModel",
    policy: SolverPolicy | None = None,
    *,
    registry: SolverRegistry | None = None,
) -> SolveOutcome:
    """Evaluate one model under a policy; a pure function of its arguments.

    Unstable models are not errors: they yield ``stable=False`` with infinite
    queue-length/response-time metrics (what cost curves over a server-count
    axis expect).  Each solver in the policy order is tried in turn; a failed
    capability check or a :data:`FALLBACK_EXCEPTIONS` failure falls through
    to the next name, and a row with every solver failed carries the
    concatenated diagnostics.
    """
    outcome, _ = _evaluate_capturing(model, policy, registry)
    return outcome


def _resolve_cache(cache: SolutionCache | bool | None) -> SolutionCache | None:
    """Map the user-facing ``cache`` argument onto a cache instance.

    ``None`` selects the process-wide shared cache, ``False`` disables
    caching entirely, ``True`` is an explicit alias for the shared cache, and
    a :class:`SolutionCache` instance is used as-is.
    """
    if cache is None or cache is True:
        return shared_cache()
    if cache is False:
        return None
    return cache


def solve(
    model: "ScenarioModel",
    policy: SolverPolicy | str | Sequence[str] | None = None,
    *,
    cache: SolutionCache | bool | None = None,
    registry: SolverRegistry | None = None,
) -> SolveOutcome:
    """Solve one model through the registry, memoising in the shared cache.

    Parameters
    ----------
    model:
        The queueing model to evaluate.
    policy:
        A :class:`SolverPolicy`, a solver name, or a sequence of names
        forming a fallback chain (default: spectral → geometric).
    cache:
        ``None`` (default) uses the process-wide shared cache, ``False``
        disables memoisation, and an explicit :class:`SolutionCache` scopes
        it (what :class:`~repro.sweeps.SweepRunner` does).
    registry:
        An alternative solver registry (default: the global one).
    """
    policy = as_policy(policy, registry=registry)
    cache_obj = _resolve_cache(cache)
    if cache_obj is None:
        return evaluate(model, policy, registry=registry)
    key = cache_obj.key(model, policy)
    cached = cache_obj.lookup(key)
    if cached is not None:
        return cached
    outcome = evaluate(model, policy, registry=registry)
    cache_obj.record_solves(1)
    cache_obj.store(key, outcome)
    return outcome


def _broadcast_policies(
    policy: object, count: int, registry: SolverRegistry | None
) -> list[SolverPolicy]:
    """One policy per model: broadcast a scalar spec, validate a sequence."""
    if (
        policy is not None
        and not isinstance(policy, (str, SolverPolicy))
        and isinstance(policy, Iterable)
    ):
        items = list(policy)
        if items and all(isinstance(item, SolverPolicy) for item in items):
            if len(items) != count:
                raise ParameterError(
                    f"got {len(items)} policies for {count} models; "
                    "pass one policy per model or a single shared policy"
                )
            return items
        # Anything else iterable is a fallback chain shared by all models.
        policy = tuple(items)
    return [as_policy(policy, registry=registry)] * count


def _solve_task(
    task: tuple[int, "ScenarioModel", SolverPolicy],
) -> tuple[int, SolveOutcome]:
    """Worker entry point: evaluate one model and tag it with its index."""
    index, model, policy = task
    return index, evaluate(model, policy)


def _parameter_vector(model: "ScenarioModel") -> tuple[float, ...]:
    """The numeric leaves of a model's solution key, for grid-distance ordering.

    Models of the same family (same structure, different rates) yield vectors
    of equal length whose Euclidean distance is a meaningful "how far apart on
    the sweep grid" measure; structurally different models yield different
    lengths, which the batch path treats as "no ordering possible".
    """
    leaves: list[float] = []

    def visit(value: object) -> None:
        if isinstance(value, bool):
            leaves.append(float(value))
        elif isinstance(value, (int, float)):
            leaves.append(float(value))
        elif isinstance(value, (tuple, list)):
            for item in value:
                visit(item)

    visit(model.solution_key())
    return tuple(leaves)


def _grid_order(vectors: list[tuple[float, ...]]) -> list[int] | None:
    """Greedy nearest-neighbour ordering of grid points, or ``None``.

    Returns ``None`` when the batch has no common parameterisation (vector
    lengths differ, or no numeric parameters at all), in which case the
    caller keeps the submission order and skips warm-starting.
    """
    if len({len(vector) for vector in vectors}) != 1 or not vectors[0]:
        return None
    # Normalise each dimension by its range across the batch so "one more
    # server" and "0.1 more arrivals/sec" are commensurable steps.
    columns = list(zip(*vectors))
    spans = [max(column) - min(column) or 1.0 for column in columns]
    scaled = [
        tuple(value / span for value, span in zip(vector, spans)) for vector in vectors
    ]

    def distance(a: tuple[float, ...], b: tuple[float, ...]) -> float:
        return sum((x - y) ** 2 for x, y in zip(a, b))

    remaining = set(range(1, len(vectors)))
    order = [0]
    while remaining:
        last = scaled[order[-1]]
        closest = min(remaining, key=lambda position: distance(scaled[position], last))
        remaining.discard(closest)
        order.append(closest)
    return order


def _evaluate_recorded(
    model: "ScenarioModel",
    policy: SolverPolicy | None,
    registry: SolverRegistry | None,
    seeds: dict[str, object] | None,
    profile: dict[int, list[AttemptRecord]] | None,
    index: int,
) -> tuple[SolveOutcome, dict[str, object]]:
    """One evaluation, optionally capturing its attempts into ``profile[index]``."""
    if profile is None:
        return _evaluate_capturing(model, policy, registry, seeds)
    with capture_attempts() as attempts:
        result = _evaluate_capturing(model, policy, registry, seeds)
    profile[index] = list(attempts)
    return result


def _execute_serial(
    tasks: list[tuple[int, "ScenarioModel", SolverPolicy]],
    registry: SolverRegistry | None,
    profile: dict[int, list[AttemptRecord]] | None = None,
) -> list[tuple[int, SolveOutcome]]:
    """Evaluate a batch in-process, warm-starting along the parameter grid.

    Grid points are visited in greedy nearest-neighbour order and each solve
    is seeded with the native solution of its *nearest already-solved*
    neighbour (initial iterate + truncation level), which is what makes dense
    sweeps through the iterative CTMC solver cheap: consecutive grid points
    differ by one parameter nudge, so the neighbour's solution is already an
    excellent iterate.  Outcomes are identical to independent solves up to
    solver tolerance.
    """
    if len(tasks) < 2:
        return [
            (index, _evaluate_recorded(model, policy, registry, None, profile, index)[0])
            for index, model, policy in tasks
        ]
    vectors = [_parameter_vector(model) for _, model, _ in tasks]
    order = _grid_order(vectors)
    if order is None:
        return [
            (index, _evaluate_recorded(model, policy, registry, None, profile, index)[0])
            for index, model, policy in tasks
        ]
    results: list[tuple[int, SolveOutcome]] = []
    solved: list[tuple[int, dict[str, object]]] = []  # (task position, native solutions)

    def distance(a: tuple[float, ...], b: tuple[float, ...]) -> float:
        return sum((x - y) ** 2 for x, y in zip(a, b))

    for position in order:
        index, model, policy = tasks[position]
        seeds: dict[str, object] = {}
        if solved:
            _, seeds = min(
                solved, key=lambda item: distance(vectors[item[0]], vectors[position])
            )
        outcome, solutions = _evaluate_recorded(
            model, policy, registry, seeds, profile, index
        )
        if solutions:
            solved.append((position, solutions))
        results.append((index, outcome))
    return results


def _solve_chunk(
    chunk: list[tuple[int, "ScenarioModel", SolverPolicy]],
) -> list[tuple[int, SolveOutcome]]:
    """Worker entry point for one contiguous grid neighbourhood.

    Each worker process receives a *contiguous* run of the greedy
    nearest-neighbour ordering and replays the serial warm-start walk inside
    it, so every solve (after the chunk's first) is seeded from a solved
    neighbour of its own process — the parallel counterpart of the serial
    sweep seeding.  Workers dispatch through their own process-global
    registry, exactly like :func:`_solve_task` did.
    """
    return _execute_serial(chunk, None)


def _neighbourhood_chunks(
    tasks: list[tuple[int, "ScenarioModel", SolverPolicy]],
    workers: int,
) -> list[list[tuple[int, "ScenarioModel", SolverPolicy]]] | None:
    """Partition a batch into per-worker contiguous grid neighbourhoods.

    The batch is ordered by the same greedy nearest-neighbour walk the serial
    path uses, then cut into ``workers`` contiguous runs of near-equal size;
    consecutive members of a run are close on the parameter grid, which is
    what makes within-chunk warm starts effective.  ``None`` when the batch
    has no common parameterisation (mixed model families), in which case the
    caller falls back to unseeded per-task fan-out.
    """
    vectors = [_parameter_vector(model) for _, model, _ in tasks]
    order = _grid_order(vectors)
    if order is None:
        return None
    ordered = [tasks[position] for position in order]
    chunk_count = min(workers, len(ordered))
    size, remainder = divmod(len(ordered), chunk_count)
    chunks: list[list[tuple[int, "ScenarioModel", SolverPolicy]]] = []
    start = 0
    for index in range(chunk_count):
        stop = start + size + (1 if index < remainder else 0)
        chunks.append(ordered[start:stop])
        start = stop
    return chunks


#: Estimated work, in the spectral solver's ``N·s³`` units (see
#: :meth:`~repro.solvers.base.Solver.work_estimate`), from which a
#: ``parallel=True`` batch pays for a process pool.  Below it the batch runs
#: serially in-process.  Set at the measured break-even of serial against
#: pooled spectral grids on a 2-vCPU host (README "Performance").
POOL_BREAK_EVEN_WORK = 2.5e8


def _pool_pays(
    tasks: list[tuple[int, "ScenarioModel", SolverPolicy]],
    registry: SolverRegistry | None,
) -> bool:
    """Whether a batch's estimated work reaches :data:`POOL_BREAK_EVEN_WORK`.

    Each task is estimated by the first solver of its policy; unstable models
    cost nothing, since :func:`_evaluate_capturing` answers them without a
    solve.  One task of unknown cost sends the whole batch to the pool.
    """
    registry = registry if registry is not None else default_registry()
    work = 0.0
    for _, model, policy in tasks:
        if not model.is_stable:
            continue
        try:
            estimate = registry.get(policy.order[0]).work_estimate(model)
        except ParameterError:  # a name this registry does not know
            return True
        if estimate is None:
            return True
        work += estimate
    return work >= POOL_BREAK_EVEN_WORK


def _pool_probe() -> bool:
    """Trivial task used to check that worker processes can start at all."""
    return True


def default_max_workers() -> int:
    """The default worker count: the CPUs this process may actually use."""
    return usable_cpus()


def _execute_parallel(
    tasks: list[tuple[int, "ScenarioModel", SolverPolicy]],
    max_workers: int,
    registry: SolverRegistry | None,
) -> list[tuple[int, SolveOutcome]]:
    workers = min(max_workers, len(tasks))
    chunksize = max(1, len(tasks) // (4 * workers))
    # Probe the pool with a trivial task first: environments where worker
    # processes cannot start at all (no /dev/shm, forbidden fork) fail here
    # and degrade to the serial path.  The probe deliberately does NOT guard
    # the real map below — a worker crashing on an actual grid point (e.g.
    # OOM on a pathological configuration) is a genuine error that must
    # propagate, not be silently replayed serially in-process.
    executor = None
    try:
        executor = ProcessPoolExecutor(max_workers=workers)
        executor.submit(_pool_probe).result()
    except (OSError, RuntimeError):  # pragma: no cover - sandboxed envs
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        warnings.warn(
            "worker processes are unavailable; evaluating the batch serially",
            RuntimeWarning,
            stacklevel=4,
        )
        # The degraded path runs in-process, so unlike real workers it can —
        # and must — honour the caller's registry.  Running serially also
        # restores the full warm-start walk over the whole batch.
        return _execute_serial(tasks, registry)
    chunks = _neighbourhood_chunks(tasks, workers)
    try:
        if chunks is not None:
            # One contiguous neighbourhood per worker: each process seeds its
            # solves from its own already-solved neighbours.
            mapped = executor.map(_solve_chunk, chunks, chunksize=1)
            results = [result for chunk_results in mapped for result in chunk_results]
        else:
            results = list(executor.map(_solve_task, tasks, chunksize=chunksize))
    except BaseException:
        # A KeyboardInterrupt (or an async cancellation surfacing here) must
        # abort the batch promptly: cancel every queued item and return
        # without waiting for in-flight ones, instead of the default
        # shutdown(wait=True) that would block until the slowest grid point
        # finishes solving.
        executor.shutdown(wait=False, cancel_futures=True)
        raise
    executor.shutdown()
    return results


def solve_many(
    models: Iterable["ScenarioModel"],
    policy: object = None,
    *,
    parallel: bool = False,
    max_workers: int | None = None,
    cache: SolutionCache | bool | None = None,
    registry: SolverRegistry | None = None,
    profile: dict[int, list[AttemptRecord]] | None = None,
) -> list[SolveOutcome]:
    """Solve a batch of models, deduplicated and optionally in parallel.

    Parameters
    ----------
    models:
        The models to evaluate; the result list is aligned with their order.
    policy:
        A single policy specification shared by all models (anything
        :func:`~repro.solvers.policy.as_policy` accepts), or a sequence of
        :class:`SolverPolicy` instances, one per model.
    parallel:
        Let the batch fan out over a
        :class:`~concurrent.futures.ProcessPoolExecutor` when its estimated
        work pays for the pool: at least :data:`POOL_BREAK_EVEN_WORK`, or of
        unknown cost.  A smaller batch runs serially in-process.  Results
        are identical on both paths; only wall-clock changes.  Each such
        batch of two or more pending models counts in
        ``repro_parallel_batches_total{path="serial"|"pool"}``.
    max_workers:
        Worker-process count (defaults to the usable CPU count).
    cache:
        As in :func:`solve`.  With an enabled cache, models sharing a cache
        key are solved **once** per batch — duplicates are resolved from the
        in-flight result, serial or parallel.
    registry:
        An alternative registry for the serial path and the work estimate.
        Worker processes always dispatch through their own process-global
        registry, so pooled batches require solvers registered at import
        time.
    profile:
        A mapping the serial path fills with per-backend
        :class:`~repro.obs.profiling.AttemptRecord` lists, keyed by batch
        index.  Only *freshly solved* models appear (cache hits and coalesced
        duplicates made no attempts), and the pool path skips it —
        attempts made in worker processes do not travel back.
    """
    models = list(models)
    policies = _broadcast_policies(policy, len(models), registry)
    if max_workers is None:
        max_workers = default_max_workers()
    if max_workers < 1:
        raise ParameterError(f"max_workers must be >= 1, got {max_workers}")
    cache_obj = _resolve_cache(cache)

    outcomes: dict[int, SolveOutcome] = {}
    keys: dict[int, CacheKey] = {}
    pending: list[int] = []
    if cache_obj is not None:
        for index, (model, item_policy) in enumerate(zip(models, policies)):
            keys[index] = cache_obj.key(model, item_policy)
            cached = cache_obj.lookup(keys[index])
            if cached is not None:
                outcomes[index] = cached
            else:
                pending.append(index)
    else:
        pending = list(range(len(models)))

    if pending:
        # Deduplicate by cache key so repeated configurations are solved once
        # per batch (a disabled cache means "no memoisation", so it opts out).
        deduplicate = cache_obj is not None and cache_obj.enabled
        groups: dict[CacheKey, list[int]] = {}
        if deduplicate:
            for index in pending:
                groups.setdefault(keys[index], []).append(index)
            unique = [indices[0] for indices in groups.values()]
        else:
            unique = pending

        tasks = [(index, models[index], policies[index]) for index in unique]
        pooled = False
        if parallel and len(tasks) > 1:
            pooled = max_workers > 1 and _pool_pays(tasks, registry)
            numerics_registry().counter(
                "repro_parallel_batches_total",
                "parallel=True batches of two or more pending models, by the path taken.",
                labels={"path": "pool" if pooled else "serial"},
            ).inc()
        if pooled:
            solved = _execute_parallel(tasks, max_workers, registry)
        else:
            solved = _execute_serial(tasks, registry, profile)
        count = 0
        for index, outcome in solved:
            count += 1
            outcomes[index] = outcome
            if cache_obj is not None:
                cache_obj.store(keys[index], outcome)
        if cache_obj is not None:
            cache_obj.record_solves(count)
        if deduplicate:
            for key, indices in groups.items():
                for duplicate in indices[1:]:
                    outcomes[duplicate] = outcomes[indices[0]]

    return [outcomes[index] for index in range(len(models))]


async def solve_many_async(
    models: Iterable["ScenarioModel"],
    policy: object = None,
    *,
    parallel: bool = False,
    max_workers: int | None = None,
    cache: SolutionCache | bool | None = None,
    registry: SolverRegistry | None = None,
    executor: Executor | None = None,
    profile: dict[int, list[AttemptRecord]] | None = None,
) -> list[SolveOutcome]:
    """Awaitable :func:`solve_many`: the batch runs off the event loop.

    Solver evaluations are CPU-bound, so running them on the loop thread
    would stall every other coroutine (the serving layer's accept loop, its
    batch timers, its health endpoint) for the duration of the batch.  This
    wrapper materialises the model list eagerly — generators must not be
    consumed from another thread — and dispatches the otherwise-identical
    :func:`solve_many` call onto ``executor`` (the loop's default thread pool
    when ``None``).  The :class:`SolutionCache` is thread-safe, so cached and
    coalesced lookups behave exactly as in the synchronous path, and
    ``parallel=True`` fans out only when the batch's estimated work pays for
    a process pool, as there.
    """
    call = functools.partial(
        solve_many,
        list(models),
        policy,
        parallel=parallel,
        max_workers=max_workers,
        cache=cache,
        registry=registry,
        profile=profile,
    )
    return await asyncio.get_running_loop().run_in_executor(executor, call)
