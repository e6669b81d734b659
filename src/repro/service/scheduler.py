"""The batching scheduler: single-flight coalescing, batch windows, backpressure.

This is the heart of :mod:`repro.service`.  Every admitted query becomes a
``(model, policy)`` pair keyed exactly like the :class:`SolutionCache`, and
three mechanisms turn a storm of concurrent requests into the minimum amount
of solver work:

Single-flight coalescing
    Requests whose cache key matches work already queued *or executing*
    attach to the in-flight future instead of scheduling anything: one
    hundred concurrent identical queries cost exactly one solve.  The
    ``coalesced_total`` counter (surfaced by ``/stats``) pins this.

Batch windows
    The first distinct request arms a timer; every further distinct request
    arriving within ``batch_window`` seconds joins the same batch, which is
    dispatched as **one** :func:`repro.solvers.solve_many_async` call — so
    the facade's key-level deduplication and the shared cache do their usual
    work.  A longer window trades first-request latency for bigger batches.

Backpressure
    The number of *distinct* pending computations is bounded by
    ``max_queue``; beyond it, new work is rejected with
    :class:`~.errors.QueueFullError` carrying a ``retry_after`` hint.
    Coalescing joins are never rejected — they add no work.  Each request
    may also carry a ``deadline`` (seconds): when it expires before the
    result is ready the waiter gets :class:`~.errors.DeadlineExceededError`
    while the computation itself continues for the benefit of coalesced
    waiters and the cache.

Tiered load shedding is not the scheduler's job: the service front decides
admission with :func:`shed_decision` before a request reaches a shard.

The scheduler is a pure-asyncio object (no threads of its own); the blocking
solver work runs off-loop via :func:`~repro.solvers.solve_many_async`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from ..obs import MetricsRegistry, TraceBuilder, new_span_id
from ..obs.metrics import numerics_registry
from ..obs.profiling import AttemptRecord
from ..solvers import SolutionCache, SolveOutcome, SolverPolicy, solve_many_async
from ..solvers.cache import CacheKey
from .errors import DeadlineExceededError, QueueFullError, ServiceClosedError

#: Default seconds the scheduler waits for further requests before flushing.
DEFAULT_BATCH_WINDOW = 0.005

#: Default bound on distinct pending computations (queued + executing).
DEFAULT_MAX_QUEUE = 256

#: Default upper bound on the size of one dispatched batch.
DEFAULT_MAX_BATCH = 64

#: Default eviction bound of a scheduler-owned solution cache.
DEFAULT_CACHE_MAXSIZE = 4096

#: Query kinds cheapest-to-recompute first: the order tiers shed under load.
SHED_TIER_ORDER = ("steady-state", "scenario", "transient")

#: Default load fractions of capacity at which each query tier sheds,
#: cheapest-to-recompute first (steady-state, scenario, transient).
DEFAULT_SHED_THRESHOLDS = (0.7, 0.85, 1.0)


def shed_decision(
    query: str,
    pending_total: int,
    capacity: int,
    thresholds: tuple[float, ...] = DEFAULT_SHED_THRESHOLDS,
    *,
    latency_pressure: float = 0.0,
) -> str | None:
    """The pure tiered-admission rule: the tier to shed, or ``None`` to admit.

    ``thresholds[i]`` is the load fraction at which tier ``i`` of
    :data:`SHED_TIER_ORDER` starts shedding; cheaper-to-recompute kinds have
    lower thresholds, so under rising load steady-state queries are turned
    away first while transient grids keep their queue slots until the pool is
    genuinely full.  Unknown query kinds are treated as the most expensive
    tier.

    The load fraction is the *worse* of two signals: queue occupancy
    (``pending_total / capacity``) and ``latency_pressure``, the SLO
    tracker's ``rolling p99 / target`` ratio
    (:meth:`repro.obs.slo.SloTracker.pressure`).  A slow backend therefore
    trips the same tiered response as a full queue — shedding engages on
    *measured latency*, even while depth sits below its thresholds.  Kept
    free of any service state so the policy is unit testable against exact
    load fractions.
    """
    if capacity < 1:
        return query
    try:
        tier = SHED_TIER_ORDER.index(query)
    except ValueError:
        tier = len(SHED_TIER_ORDER) - 1
    threshold = thresholds[min(tier, len(thresholds) - 1)]
    load = max(pending_total / capacity, latency_pressure)
    if load >= threshold:
        return query
    return None


@dataclass(frozen=True)
class ScheduledResult:
    """One answered query: the outcome plus how the scheduler produced it."""

    outcome: SolveOutcome
    #: The answer came straight from the solution cache (no scheduling).
    cached: bool = False
    #: The request attached to an identical in-flight computation.
    coalesced: bool = False


@dataclass
class _Pending:
    """One distinct computation waiting for (or undergoing) evaluation.

    The ``*_at`` stamps (``time.perf_counter`` instants) trace the pending's
    life: created at admission, dispatched when its batch flushes, executed
    when the batch starts solving, completed when its outcome lands.  The
    ``solve_span_id`` is shared by *every* waiter coalesced onto this
    computation — identical concurrent requests all reference the same solve
    span, which is how a trace proves single-flight coalescing worked.
    """

    key: CacheKey
    model: object
    policy: SolverPolicy
    future: asyncio.Future = field(repr=False)
    created_at: float = field(default_factory=time.perf_counter)
    dispatched_at: float | None = None
    executed_at: float | None = None
    completed_at: float | None = None
    solve_span_id: str = field(default_factory=new_span_id)
    batch_size: int = 0
    attempts: list[AttemptRecord] = field(default_factory=list)


class BatchScheduler:
    """Coalesce, batch and admission-control solve requests onto the facade.

    Parameters
    ----------
    batch_window:
        Seconds to hold the first request of a batch open for company.
        ``0.0`` flushes on the next event-loop tick (batching then only
        captures requests arriving in the same tick).
    max_queue:
        Bound on distinct pending computations; the admission controller
        rejects beyond it.
    max_batch:
        Largest batch handed to one ``solve_many`` call; a full buffer
        flushes immediately instead of waiting out the window.  Batches run
        serially on the executor thread.
    cache:
        The :class:`SolutionCache` answers repeat queries instantly and
        provides the coalescing key; defaults to a scheduler-owned bounded
        cache so services never share state accidentally.
    metrics:
        The :class:`~repro.obs.MetricsRegistry` latency histograms record
        into; defaults to a scheduler-owned registry.  Shards hand its
        :meth:`metrics_snapshot` to the front for exact merging.
    shard:
        The shard index stamped onto every metric series as the ``shard``
        label.
    """

    def __init__(
        self,
        *,
        batch_window: float = DEFAULT_BATCH_WINDOW,
        max_queue: int = DEFAULT_MAX_QUEUE,
        max_batch: int = DEFAULT_MAX_BATCH,
        cache: SolutionCache | None = None,
        metrics: MetricsRegistry | None = None,
        shard: int = 0,
    ) -> None:
        if batch_window < 0.0:
            raise ValueError(f"batch_window must be >= 0, got {batch_window}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.batch_window = float(batch_window)
        self.max_queue = int(max_queue)
        self.max_batch = int(max_batch)
        self.cache = cache if cache is not None else SolutionCache(maxsize=DEFAULT_CACHE_MAXSIZE)
        self.shard = int(shard)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        shard_labels = {"shard": str(self.shard)}
        self._solve_latency = self.metrics.histogram(
            "repro_solve_latency_seconds",
            "End-to-end scheduler latency per request (cache hits included).",
            labels=shard_labels,
        )
        self._queue_wait = self.metrics.histogram(
            "repro_queue_wait_seconds",
            "Time a scheduled computation waited between flush and execution.",
            labels=shard_labels,
        )
        self._cache_lookup = self.metrics.histogram(
            "repro_cache_lookup_seconds",
            "Solution-cache probe latency at admission.",
            labels=shard_labels,
        )
        self._batch_solve = self.metrics.histogram(
            "repro_batch_solve_seconds",
            "Wall-clock of one dispatched solve_many batch.",
            labels=shard_labels,
        )
        self._inflight: dict[CacheKey, _Pending] = {}
        self._buffer: list[_Pending] = []
        self._flush_handle: asyncio.TimerHandle | None = None
        self._batch_tasks: set[asyncio.Task] = set()
        self._closed = False
        # Counters surfaced by /stats.
        self._requests_total = 0
        self._cache_hits_total = 0
        self._coalesced_total = 0
        self._scheduled_total = 0
        self._batches_total = 0
        self._largest_batch = 0
        self._rejected_total = 0
        self._deadline_exceeded_total = 0

    # -- admission ---------------------------------------------------------

    async def submit(
        self,
        model: object,
        policy: SolverPolicy,
        *,
        deadline: float | None = None,
        trace: TraceBuilder | None = None,
    ) -> ScheduledResult:
        """Answer one query, coalescing/batching it with concurrent work."""
        if self._closed:
            raise ServiceClosedError("the scheduler is closed")
        self._requests_total += 1
        started = time.perf_counter()
        # The try/finally sits directly under the increment so the latency
        # histogram's count equals ``requests_total`` exactly: cache hits,
        # rejections, deadline expiries and successes all observe once.
        try:
            return await self._submit_admitted(model, policy, deadline, trace)
        finally:
            self._solve_latency.observe(time.perf_counter() - started)

    async def _submit_admitted(
        self,
        model: object,
        policy: SolverPolicy,
        deadline: float | None,
        trace: TraceBuilder | None,
    ) -> ScheduledResult:
        key = self.cache.key(model, policy)
        # probe(), not lookup(): a miss here is re-counted by solve_many when
        # the batch executes, so only the hit side registers in cache stats.
        probe_started = time.perf_counter()
        cached = self.cache.probe(key)
        probe_ended = time.perf_counter()
        self._cache_lookup.observe(probe_ended - probe_started)
        if trace is not None:
            trace.add("cache-lookup", probe_started, probe_ended, hit=cached is not None)
        if cached is not None:
            self._cache_hits_total += 1
            return ScheduledResult(outcome=cached, cached=True)

        pending = self._inflight.get(key)
        coalesced = pending is not None
        if coalesced:
            self._coalesced_total += 1
        else:
            if len(self._inflight) >= self.max_queue:
                self._rejected_total += 1
                raise QueueFullError(
                    f"the service queue is full ({self.max_queue} pending "
                    "computations); retry shortly",
                    retry_after=self._retry_after(),
                )
            loop = asyncio.get_running_loop()
            pending = _Pending(key, model, policy, loop.create_future())
            self._inflight[key] = pending
            self._buffer.append(pending)
            self._scheduled_total += 1
            self._arm_flush(loop)

        # shield(): a waiter timing out must not cancel the computation other
        # coalesced waiters (and the cache) still want.
        try:
            if deadline is not None:
                outcome = await asyncio.wait_for(asyncio.shield(pending.future), deadline)
            else:
                outcome = await asyncio.shield(pending.future)
        except TimeoutError:
            self._deadline_exceeded_total += 1
            raise DeadlineExceededError(
                f"deadline of {deadline:g}s expired before the solution was ready; "
                "the computation continues and will be cached — retry to collect it"
            ) from None
        if trace is not None:
            self._record_spans(trace, pending, coalesced, outcome)
        return ScheduledResult(outcome=outcome, coalesced=coalesced)

    def _record_spans(
        self,
        trace: TraceBuilder,
        pending: _Pending,
        coalesced: bool,
        outcome: SolveOutcome,
    ) -> None:
        """Reconstruct the pending's life as spans on ``trace``.

        Every waiter coalesced onto the computation records the *same*
        ``solve`` span id (:attr:`_Pending.solve_span_id`).  Backend attempt
        spans are laid out sequentially from the batch's execution start —
        their durations are measured, their offsets approximate (attempts of
        different batch members interleave on the executor thread).
        """
        if pending.dispatched_at is not None:
            trace.add("batch-window", pending.created_at, pending.dispatched_at)
            if pending.executed_at is not None:
                trace.add("queue-wait", pending.dispatched_at, pending.executed_at)
        if pending.executed_at is None or pending.completed_at is None:
            return
        trace.add(
            "solve",
            pending.executed_at,
            pending.completed_at,
            span_id=pending.solve_span_id,
            solver=outcome.solver,
            batch_size=pending.batch_size,
            coalesced=coalesced,
        )
        attempt_started = pending.executed_at
        for attempt in pending.attempts:
            attempt_ended = attempt_started + attempt.seconds
            annotations: dict[str, object] = {"ok": attempt.ok}
            if attempt.error:
                annotations["error"] = attempt.error
            if attempt.warm_start:
                annotations["warm_start"] = True
            trace.add(
                f"backend:{attempt.solver}", attempt_started, attempt_ended, **annotations
            )
            attempt_started = attempt_ended

    def _retry_after(self) -> float:
        """A client back-off hint: roughly one batch generation's worth."""
        backlog_batches = 1 + len(self._inflight) // self.max_batch
        return round(max(0.05, backlog_batches * max(self.batch_window, 0.01)), 3)

    # -- batching ----------------------------------------------------------

    def _arm_flush(self, loop: asyncio.AbstractEventLoop) -> None:
        if len(self._buffer) >= self.max_batch:
            # A full buffer doesn't wait out the window.
            if self._flush_handle is not None:
                self._flush_handle.cancel()
                self._flush_handle = None
            self._flush()
        elif self._flush_handle is None:
            self._flush_handle = loop.call_later(self.batch_window, self._on_window_elapsed)

    def _on_window_elapsed(self) -> None:
        self._flush_handle = None
        self._flush()

    def _flush(self) -> None:
        batch = self._buffer[: self.max_batch]
        del self._buffer[: self.max_batch]
        if not batch:
            return
        dispatched_at = time.perf_counter()
        for pending in batch:
            pending.dispatched_at = dispatched_at
        loop = asyncio.get_running_loop()
        if self._buffer:
            # More than one batch accumulated within the window: dispatch the
            # overflow right behind this one.
            self._flush_handle = loop.call_later(0.0, self._on_window_elapsed)
        self._batches_total += 1
        self._largest_batch = max(self._largest_batch, len(batch))
        task = loop.create_task(self._run_batch(batch))
        self._batch_tasks.add(task)
        task.add_done_callback(self._batch_tasks.discard)

    async def _run_batch(self, batch: list[_Pending]) -> None:
        executed_at = time.perf_counter()
        for pending in batch:
            pending.executed_at = executed_at
            waited_since = (
                pending.dispatched_at if pending.dispatched_at is not None else pending.created_at
            )
            self._queue_wait.observe(executed_at - waited_since)
        # solve_many fills ``profile`` with each batch member's fallback-chain
        # attempts; they become per-backend trace spans.
        profile: dict[int, list[AttemptRecord]] = {}
        try:
            outcomes = await solve_many_async(
                [pending.model for pending in batch],
                [pending.policy for pending in batch],
                cache=self.cache,
                profile=profile,
            )
        except BaseException as exc:  # noqa: BLE001 - forwarded to waiters
            for pending in batch:
                self._inflight.pop(pending.key, None)
                if not pending.future.done():
                    pending.future.set_exception(exc)
                    pending.future.exception()  # silence never-retrieved noise
            if isinstance(exc, asyncio.CancelledError):
                raise
            return
        completed_at = time.perf_counter()
        self._batch_solve.observe(completed_at - executed_at)
        for index, (pending, outcome) in enumerate(zip(batch, outcomes)):
            pending.completed_at = completed_at
            pending.batch_size = len(batch)
            pending.attempts = profile.get(index, [])
            self._inflight.pop(pending.key, None)
            if not pending.future.done():
                pending.future.set_result(outcome)

    # -- lifecycle and introspection ---------------------------------------

    async def close(self) -> None:
        """Stop admitting work, flush nothing further, fail the backlog."""
        self._closed = True
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        shutdown = ServiceClosedError("the service shut down before answering")
        for pending in self._buffer:
            self._inflight.pop(pending.key, None)
            if not pending.future.done():
                pending.future.set_exception(shutdown)
                # Mark the exception retrieved: waiters that already gave up
                # (cancelled, timed out) would otherwise trigger asyncio's
                # "exception was never retrieved" teardown noise.  Waiters
                # still listening receive it through their shield regardless.
                pending.future.exception()
        self._buffer.clear()
        if self._batch_tasks:
            await asyncio.gather(*tuple(self._batch_tasks), return_exceptions=True)

    @property
    def queue_depth(self) -> int:
        """Distinct computations currently queued or executing."""
        return len(self._inflight)

    def metrics_snapshot(self) -> dict[str, object]:
        """A mergeable :meth:`~repro.obs.MetricsRegistry.to_dict` snapshot.

        Shards attach this to their ``stats`` reply; the front merges the
        payloads bucket-wise, so the aggregated histograms equal one process
        having recorded every observation.

        The process-global numerical-health registry rides along: kernels and
        the solver facade record into :func:`numerics_registry` from whatever
        process ran the math, and attaching it here is what carries those
        series from shard workers back to the front's ``/metrics``.
        """
        payload = self.metrics.to_dict()
        payload.update(numerics_registry().to_dict())
        return payload

    def stats(self) -> dict[str, object]:
        """The scheduler section of the ``/stats`` payload."""
        return {
            "queue_depth": self.queue_depth,
            "max_queue": self.max_queue,
            "batch_window": self.batch_window,
            "max_batch": self.max_batch,
            "requests_total": self._requests_total,
            "cache_hits_total": self._cache_hits_total,
            "coalesced_total": self._coalesced_total,
            "scheduled_total": self._scheduled_total,
            "batches_total": self._batches_total,
            "largest_batch": self._largest_batch,
            "rejected_total": self._rejected_total,
            "deadline_exceeded_total": self._deadline_exceeded_total,
            "cache": self.cache.stats(),
        }
