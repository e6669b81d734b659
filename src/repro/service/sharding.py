"""Consistent-hash sharding: the multi-process serving tier.

:class:`ShardedService` keeps the existing HTTP surface (``/solve``,
``/healthz``, ``/stats``, ``/metrics``) on one asyncio front process and moves the solver
work onto a pool of ``multiprocessing`` workers, one shard each.  Every
request is routed by consistent-hashing its solution key
(:func:`~repro.solvers.cache.solution_cache_key`) onto the ring, so a given
``(model, policy)`` always lands on the same worker — which is what keeps the
per-shard :class:`~repro.solvers.SolutionCache` hot and per-shard
single-flight coalescing exact: 100 identical concurrent requests arriving on
100 connections still cost one solve, because they all route to one shard.

The pieces, front side:

:class:`ConsistentHashRing`
    ``replicas`` virtual nodes per shard on a 64-bit ring built from
    :func:`stable_key_digest` — deterministic across processes and runs
    (``hash()`` is salted per process and would scatter a key's shard
    assignment across restarts).

:class:`_WorkerHandle` / the pool
    One spawned worker process per shard (see :mod:`.worker`), a pipe to it,
    a sender thread draining an outbox queue and a reader thread delivering
    answers back onto the event loop.  Worker processes are spawned and
    joined in *sync* helpers invoked off-loop — creating multiprocessing
    primitives on the event loop blocks it for the whole fork/exec handshake
    (lint rule RPR009).

Tiered load shedding
    Admission happens on the front, before any pipe traffic: the *worse* of
    queue occupancy (global pending over total capacity,
    ``workers × max_queue``) and the SLO tracker's measured latency pressure
    (:meth:`repro.obs.slo.SloTracker.pressure`) is compared against per-tier
    thresholds, shedding the cheapest-to-recompute query kinds first —
    steady-state solves are milliseconds to redo, transient grids are not.
    A shed request gets a structured 429 naming the target ``shard`` and the
    ``shed_tier``.  A full individual shard sheds likewise even when the
    pool as a whole has room.

Crash recovery
    A worker EOF (crash, kill, OOM) fails that shard's in-flight requests
    with the retryable ``worker-crashed`` error, then respawns the worker
    under the same shard id — the ring never changes, so "rehash" is the
    identity and no other shard's keys move.  A periodic health task backs up
    the EOF signal.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
import multiprocessing
import queue
import threading
import time
from typing import TYPE_CHECKING

from ..obs import MetricsRegistry, Span, TraceBuilder
from ..solvers import SolutionCache
from ..solvers.cache import solution_cache_key
from . import protocol
from .errors import (
    BadRequestError,
    LoadShedError,
    NotFoundError,
    ServiceClosedError,
    ServiceError,
    SolveFailedError,
    WorkerCrashedError,
)
from .scheduler import DEFAULT_SHED_THRESHOLDS, SHED_TIER_ORDER, shed_decision
from .server import ServiceConfig, SolverService, merge_shard_stats_metrics
from .worker import ShardWorkerConfig, worker_main

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

    from .protocol import SolveRequest

__all__ = [
    "ConsistentHashRing",
    "DEFAULT_SHED_THRESHOLDS",
    "SHED_TIER_ORDER",
    "ShardedService",
    "shed_decision",
    "stable_key_digest",
]

#: Seconds the front waits for the whole pool's ready handshake.
_STARTUP_TIMEOUT = 120.0

#: Seconds between liveness sweeps over the worker processes.
_HEALTH_INTERVAL = 1.0

#: Seconds a crashed worker's waiters are told to back off before retrying.
_RESTART_RETRY_AFTER = 0.5


def stable_key_digest(key: object) -> int:
    """A process-independent 64-bit position for a cache key on the ring.

    Builtin ``hash()`` is salted per process (``PYTHONHASHSEED``), so two
    front processes — or one front before and after a restart — would
    disagree about every key's shard.  Hashing the key's ``repr`` with
    blake2b is deterministic everywhere; cache keys are value-typed trees
    (numbers, strings, tuples, frozen policies) whose reprs are canonical.
    """
    digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ConsistentHashRing:
    """A consistent-hash ring mapping solution keys onto shard ids.

    Each shard owns ``replicas`` virtual nodes, which evens out the key share
    per shard (single-point rings routinely give one shard several times its
    fair share).  Lookup is a binary search over the sorted vnode positions:
    a key belongs to the first vnode clockwise from its digest.
    """

    def __init__(self, shards: int, *, replicas: int = 64) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.shards = shards
        self.replicas = replicas
        points: list[tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(replicas):
                token = f"shard:{shard}:vnode:{replica}".encode()
                position = int.from_bytes(
                    hashlib.blake2b(token, digest_size=8).digest(), "big"
                )
                points.append((position, shard))
        points.sort()
        self._positions = [position for position, _ in points]
        self._owners = [owner for _, owner in points]

    def shard_for(self, key: object) -> int:
        """The shard owning ``key`` (same key → same shard, always)."""
        index = bisect.bisect_right(self._positions, stable_key_digest(key))
        if index == len(self._positions):
            index = 0
        return self._owners[index]


class _RemoteShardError(ServiceError):
    """A structured failure reported by a shard worker, relayed verbatim.

    The worker serialises the original :class:`ServiceError`'s stable fields
    (code, message, status, retry hint); this shim carries them across the
    pipe so the HTTP layer renders exactly what a single-process service
    would have sent.  ``code``/``http_status`` are instance attributes on
    purpose: they mirror whatever the worker pinned, they are not a new code.
    """

    def __init__(
        self, code: str, message: str, http_status: int, retry_after: float | None
    ) -> None:
        super().__init__(message, retry_after=retry_after)
        self.code = code
        self.http_status = http_status


def _remote_error(payload: dict) -> ServiceError:
    return _RemoteShardError(
        str(payload.get("code", "internal-error")),
        str(payload.get("message", "shard worker error")),
        int(payload.get("http_status", 500)),
        payload.get("retry_after"),
    )


class _WorkerHandle:
    """Front-side state of one shard worker (process, pipe, pending futures)."""

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.process: multiprocessing.process.BaseProcess | None = None
        self.conn: Connection | None = None
        self.send_queue: queue.Queue[tuple | None] | None = None
        #: In-flight /solve futures — the load that admission and /healthz
        #: count.  Control-plane stats/spill queries live in their own map so
        #: observability polling never pushes real traffic over a shed
        #: threshold.
        self.pending: dict[int, asyncio.Future] = {}
        self.control_pending: dict[int, asyncio.Future] = {}
        self.ready: asyncio.Event | None = None
        self.state = "starting"
        self.generation = 0
        self.restarts = 0
        self.routed_total = 0


def _send_loop(conn: "Connection", send_queue: "queue.Queue[tuple | None]") -> None:
    """Sender thread: drain one worker's outbox onto its pipe."""
    while True:
        message = send_queue.get()
        if message is None:
            return
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):  # pragma: no cover - worker died
            return


class ShardedService(SolverService):
    """The sharded front: existing HTTP surface, worker-process backends.

    Construction is cheap; ``start()`` spawns the pool (one worker per
    ``config.workers``), waits for every shard's ready handshake, then binds
    the listening socket — the service never accepts a request it has no
    backend for.  ``stop()`` reverses the order and shuts workers down
    gracefully, which spills their caches when ``cache_dir`` is set.
    """

    def __init__(
        self, config: ServiceConfig | None = None, *, cache: SolutionCache | None = None
    ) -> None:
        super().__init__(config, cache=cache)
        self._ring = ConsistentHashRing(self.config.workers)
        self._handles = [_WorkerHandle(shard) for shard in range(self.config.workers)]
        self._request_ids = itertools.count(1)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._health_task: asyncio.Task | None = None
        self._respawn_tasks: set[asyncio.Task] = set()
        self._stopping = False
        self._shed_total = 0
        self._shed_by_tier: dict[str, int] = {}

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopping = False
        for handle in self._handles:
            handle.ready = asyncio.Event()
        await self._loop.run_in_executor(None, self._start_pool)
        waits = [handle.ready.wait() for handle in self._handles if handle.ready is not None]
        try:
            await asyncio.wait_for(asyncio.gather(*waits), timeout=_STARTUP_TIMEOUT)
        except TimeoutError:
            await self._loop.run_in_executor(None, self._stop_pool)
            raise RuntimeError(
                f"shard workers failed the ready handshake within {_STARTUP_TIMEOUT:g}s"
            ) from None
        await super().start()
        self._health_task = self._loop.create_task(self._health_loop())

    async def stop(self) -> None:
        self._stopping = True
        if self._health_task is not None:
            self._health_task.cancel()
            await asyncio.gather(self._health_task, return_exceptions=True)
            self._health_task = None
        if self._respawn_tasks:
            for task in tuple(self._respawn_tasks):
                task.cancel()
            await asyncio.gather(*tuple(self._respawn_tasks), return_exceptions=True)
        await super().stop()
        if self._loop is not None:
            await self._loop.run_in_executor(None, self._stop_pool)
        shutdown = ServiceClosedError("the service shut down before answering")
        for handle in self._handles:
            self._fail_pending(handle, shutdown)

    # -- pool management (sync; always invoked off-loop) -------------------

    def _start_pool(self) -> None:
        for handle in self._handles:
            self._spawn_worker(handle)

    def _spawn_worker(self, handle: _WorkerHandle) -> None:
        """Spawn (or respawn) one shard worker and its pipe-bridging threads.

        Spawn, not fork: the front runs an event loop and threads, which fork
        would duplicate into a corrupt child.  The child connection is closed
        on the parent side so a worker death surfaces as EOF on the reader.
        """
        previous = handle.process
        if previous is not None:
            # Reap the dead generation before replacing it: nobody else joins
            # a crashed worker, and unreaped children pile up as zombies for
            # the life of the front.
            previous.join(timeout=5.0)
        context = multiprocessing.get_context("spawn")
        parent_conn, child_conn = context.Pipe()
        worker_config = ShardWorkerConfig(
            shard=handle.shard,
            batch_window=self.config.batch_window,
            max_queue=self.config.max_queue,
            max_batch=self.config.max_batch,
            cache_maxsize=self.config.cache_maxsize,
            cache_dir=self.config.cache_dir,
            spill_interval=self.config.spill_interval,
            trace_ring=self.config.trace_ring,
            slow_request_seconds=self.config.slow_request_seconds,
            trace_exemplar_interval=self.config.trace_exemplar_interval,
        )
        process = context.Process(
            target=worker_main,
            args=(worker_config, child_conn),
            name=f"repro-shard-{handle.shard}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.generation += 1
        handle.process = process
        handle.conn = parent_conn
        handle.send_queue = queue.Queue()
        handle.state = "starting"
        threading.Thread(
            target=_send_loop,
            args=(parent_conn, handle.send_queue),
            name=f"shard-{handle.shard}-send",
            daemon=True,
        ).start()
        threading.Thread(
            target=self._read_loop,
            args=(handle, parent_conn, handle.generation),
            name=f"shard-{handle.shard}-recv",
            daemon=True,
        ).start()

    def _stop_pool(self) -> None:
        for handle in self._handles:
            if handle.send_queue is not None:
                handle.send_queue.put(("shutdown",))
        for handle in self._handles:
            process = handle.process
            if process is None:
                continue
            process.join(timeout=15.0)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join(timeout=5.0)
            handle.state = "stopped"
            if handle.send_queue is not None:
                handle.send_queue.put(None)

    def _read_loop(self, handle: _WorkerHandle, conn: "Connection", generation: int) -> None:
        """Reader thread: deliver one worker's answers onto the event loop."""
        loop = self._loop
        if loop is None:  # pragma: no cover - spawn before start()
            return
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            try:
                loop.call_soon_threadsafe(self._on_worker_message, handle, generation, message)
            except RuntimeError:  # pragma: no cover - loop already closed
                return
        try:
            loop.call_soon_threadsafe(self._on_worker_down, handle, generation)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    # -- loop-side worker events -------------------------------------------

    def _on_worker_message(self, handle: _WorkerHandle, generation: int, message: object) -> None:
        if generation != handle.generation:
            return  # a stale reader thread from before a respawn
        if not isinstance(message, tuple) or not message:
            return
        if message[0] == "ready":
            handle.state = "ready"
            if handle.ready is not None:
                handle.ready.set()
            return
        if len(message) != 3:
            return
        request_id, kind, payload = message
        future = handle.pending.pop(request_id, None)
        if future is None:
            future = handle.control_pending.pop(request_id, None)
        if future is None or future.done():
            return
        if kind == "error":
            future.set_exception(_remote_error(payload))
        else:
            future.set_result((kind, payload))

    def _on_worker_down(self, handle: _WorkerHandle, generation: int) -> None:
        if generation != handle.generation or self._stopping:
            return
        # Retire the dead generation here, on the loop: the health sweep and
        # the reader thread's EOF can both report the same death, and the
        # _spawn_worker bump happens later in an executor — too late to stop
        # the second report from scheduling a second respawn.
        handle.generation += 1
        handle.state = "dead"
        handle.restarts += 1
        self._fail_pending(
            handle,
            WorkerCrashedError(
                f"the worker process of shard {handle.shard} died mid-request and is "
                "being restarted; the request is safe to retry",
                shard=handle.shard,
                retry_after=_RESTART_RETRY_AFTER,
            ),
        )
        if self._loop is not None:
            task = self._loop.create_task(self._respawn(handle))
            self._respawn_tasks.add(task)
            task.add_done_callback(self._respawn_tasks.discard)

    def _fail_pending(self, handle: _WorkerHandle, error: ServiceError) -> None:
        pending = list(handle.pending.values()) + list(handle.control_pending.values())
        handle.pending.clear()
        handle.control_pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(error)
                # Mark retrieved: a waiter that already gave up would
                # otherwise trigger "exception was never retrieved" noise.
                future.exception()

    async def _respawn(self, handle: _WorkerHandle) -> None:
        """Restart a crashed worker under its original shard id.

        The ring is a function of the shard *count*, which never changes, so
        the replacement worker owns exactly the key range its predecessor did
        — restart-and-rehash is the identity rehash, and no other shard's
        cache locality is disturbed.  The replacement reloads the shard's
        cache snapshot on startup when ``cache_dir`` is set.
        """
        if self._loop is None or self._stopping:
            return
        handle.ready = asyncio.Event()
        await self._loop.run_in_executor(None, self._spawn_worker, handle)

    async def _health_loop(self) -> None:
        """Back up the pipe-EOF crash signal with a periodic liveness sweep."""
        while True:
            await asyncio.sleep(_HEALTH_INTERVAL)
            for handle in self._handles:
                process = handle.process
                if handle.state == "ready" and process is not None and not process.is_alive():
                    self._on_worker_down(handle, handle.generation)

    # -- request path ------------------------------------------------------

    async def _solve(
        self, body: bytes, trace: TraceBuilder
    ) -> tuple[int, dict, dict[str, str]]:
        started = time.perf_counter()
        try:
            if not body:
                raise BadRequestError("POST /solve requires a JSON body")
            admission_started = time.perf_counter()
            request = protocol.parse_solve_request(protocol.parse_body(body))
            key = solution_cache_key(request.model, request.policy)  # type: ignore[arg-type]
            shard = self._ring.shard_for(key)
            handle = self._handles[shard]
            self._admit(request.query, shard, handle)
            trace.add(
                "admission",
                admission_started,
                time.perf_counter(),
                shard=shard,
                query=request.query,
            )
            handle.routed_total += 1
            result = await self._submit(handle, request, trace)
            self.slo.observe_solve_latency(time.perf_counter() - started)
            if result["solver"] is None:
                raise SolveFailedError(result["error"] or "no solver succeeded")
        except ServiceError as error:
            self.traces.record(trace.finish(error.code))
            raise
        self.traces.record(trace.finish("ok"))
        payload = {
            "status": "ok",
            "trace_id": trace.trace_id,
            "query": request.query,
            "shard": shard,
            "solver": result["solver"],
            "stable": result["stable"],
            "metrics": dict(result["metrics"]),
            "cached": result["cached"],
            "coalesced": result["coalesced"],
            "elapsed_ms": round((time.perf_counter() - started) * 1e3, 3),
        }
        return 200, payload, {"X-Trace-Id": trace.trace_id}

    def _admit(self, query: str, shard: int, handle: _WorkerHandle) -> None:
        """Front-side admission: worker availability, then tiered shedding."""
        if handle.state != "ready":
            raise WorkerCrashedError(
                f"the worker process of shard {shard} is restarting; retry shortly",
                shard=shard,
                retry_after=_RESTART_RETRY_AFTER,
            )
        pending_total = sum(len(h.pending) for h in self._handles)
        capacity = self.config.workers * self.config.max_queue
        tier = shed_decision(
            query,
            pending_total,
            capacity,
            self.config.shed_thresholds,
            latency_pressure=self.slo.pressure(),
        )
        if tier is None and len(handle.pending) >= self.config.max_queue:
            # The pool has room overall but this shard's queue is full: a hot
            # key range must not be allowed to monopolise the global budget.
            tier = query
        if tier is not None:
            self._shed_total += 1
            self._shed_by_tier[tier] = self._shed_by_tier.get(tier, 0) + 1
            retry_after = round(0.1 * (1.0 + pending_total / max(1, capacity)), 3)
            raise LoadShedError(
                f"overloaded: shedding {tier!r} requests "
                f"({pending_total}/{capacity} pending); retry shortly",
                shard=shard,
                tier=tier,
                retry_after=retry_after,
            )

    async def _submit(
        self, handle: _WorkerHandle, request: "SolveRequest", trace: TraceBuilder
    ) -> dict:
        request_id = next(self._request_ids)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        handle.pending[request_id] = future
        if handle.send_queue is None:  # pragma: no cover - defensive
            handle.pending.pop(request_id, None)
            raise ServiceClosedError("the shard pool is not running")
        sent_at = time.perf_counter()
        handle.send_queue.put(
            (
                "solve",
                request_id,
                request.model,
                request.policy,
                request.deadline,
                trace.trace_id,
            )
        )
        _kind, payload = await future
        result = dict(payload)
        # The worker's spans are offsets from *its* trace start; perf_counter
        # is not comparable across processes, so re-base them by the front's
        # pipe-send instant — exact durations, offsets off by one pipe hop.
        worker_trace = result.pop("trace", None)
        if isinstance(worker_trace, dict):
            shift_ms = trace.offset_ms(sent_at)
            spans = worker_trace.get("spans")
            if isinstance(spans, list):
                for span_payload in spans:
                    if isinstance(span_payload, dict):
                        span = Span.from_dict(span_payload)
                        trace.add_span(span, shift_ms=shift_ms)
                        if span.name == "queue-wait":
                            # The worker-measured wait is the SLO tracker's
                            # queue-wait signal on the sharded tier (durations
                            # are exact; only offsets are approximate).
                            self.slo.observe_queue_wait(span.duration_ms / 1e3)
        return result

    async def _query_worker(
        self, handle: _WorkerHandle, kind: str, *args: object, timeout: float = 5.0
    ) -> dict | None:
        """Ask one worker a control-plane question (``stats``/``spill``/
        ``trace``/``traces``); ``None`` when the worker is unavailable."""
        if handle.state != "ready" or handle.send_queue is None:
            return None
        request_id = next(self._request_ids)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        handle.control_pending[request_id] = future
        handle.send_queue.put((kind, request_id, *args))
        try:
            answer = await asyncio.wait_for(asyncio.shield(future), timeout)
        except (TimeoutError, ServiceError):
            handle.control_pending.pop(request_id, None)
            return None
        _kind, payload = answer
        return dict(payload) if isinstance(payload, dict) else {"value": payload}

    # -- observability -----------------------------------------------------

    async def _trace_payload(self, trace_id: str) -> dict:
        """``GET /traces/<id>`` on the sharded tier: front ring + worker fan-out.

        The front's retained copy is authoritative — it already carries the
        worker's spans re-based onto the front clock.  The fan-out over the
        control pipe merges any worker-retained spans the front copy lacks
        (deduplicated by span id) and covers traces the front ring has
        already evicted while a worker ring still holds them; a worker-only
        trace keeps its worker-relative offsets (durations are exact).
        """
        found = self.traces.find(trace_id)
        replies = await asyncio.gather(
            *(self._query_worker(handle, "trace", trace_id) for handle in self._handles)
        )
        worker_payloads = [
            reply["trace"]
            for reply in replies
            if reply is not None and isinstance(reply.get("trace"), dict)
        ]
        if found is not None:
            payload = found.to_dict()
            spans = [span.to_dict() for span in found.spans]
            seen: set[object] = {span.span_id for span in found.spans}
            for worker_payload in worker_payloads:
                worker_spans = worker_payload.get("spans")
                if not isinstance(worker_spans, list):
                    continue
                for span_payload in worker_spans:
                    if isinstance(span_payload, dict):
                        span_id = span_payload.get("span_id")
                        if span_id not in seen:
                            seen.add(span_id)
                            spans.append(span_payload)
            payload["spans"] = spans
            return {"status": "ok", "trace": payload}
        if worker_payloads:
            return {"status": "ok", "trace": worker_payloads[0]}
        raise NotFoundError(
            f"no retained trace {trace_id!r} on the front or any shard worker; "
            f"it may have fallen off the rings (capacity {self.traces.capacity})"
        )

    async def _traces_payload(self, *, slow: bool, limit: int) -> dict:
        """``GET /traces`` on the sharded tier: front listing + worker fan-out.

        Front-retained traces win the per-id deduplication (their spans are
        merged and re-based); worker-only traces fill in behind them.  The
        combined listing is sorted newest-first and bounded by ``limit``.
        """
        local = self.traces.query(slow=slow, limit=limit)
        replies = await asyncio.gather(
            *(
                self._query_worker(handle, "traces", {"slow": slow, "limit": limit})
                for handle in self._handles
            )
        )
        combined: list[dict] = []
        seen: set[object] = set()
        for retained in local:
            seen.add(retained.trace_id)
            combined.append(retained.to_dict())
        for reply in replies:
            if reply is None:
                continue
            worker_traces = reply.get("traces")
            if not isinstance(worker_traces, list):
                continue
            for trace_payload in worker_traces:
                if isinstance(trace_payload, dict):
                    trace_id = trace_payload.get("trace_id")
                    if trace_id not in seen:
                        seen.add(trace_id)
                        combined.append(trace_payload)

        def _started_at(trace_payload: dict) -> float:
            value = trace_payload.get("started_at")
            return float(value) if isinstance(value, (int, float)) else 0.0

        combined.sort(key=_started_at, reverse=True)
        combined = combined[:limit]
        return {
            "status": "ok",
            "count": len(combined),
            "slow": slow,
            "traces": combined,
        }

    async def _healthz_payload(self) -> dict:
        return {
            **self._healthz_base(),
            "workers": self.config.workers,
            "workers_ready": sum(1 for handle in self._handles if handle.state == "ready"),
            "queue_depth": sum(len(handle.pending) for handle in self._handles),
            "max_queue": self.config.workers * self.config.max_queue,
        }

    async def _stats_payload(self) -> dict:
        worker_stats = await asyncio.gather(
            *(self._query_worker(handle, "stats") for handle in self._handles)
        )
        totals = {
            "requests_total": 0,
            "cache_hits_total": 0,
            "coalesced_total": 0,
            "scheduled_total": 0,
            "batches_total": 0,
            "rejected_total": 0,
            "deadline_exceeded_total": 0,
            "solves": 0,
            "cache_size": 0,
            "cache_spills": 0,
            "cache_spilled_entries": 0,
            "cache_loads": 0,
            "cache_loaded_entries": 0,
        }
        shards: list[dict] = []
        for handle, stats in zip(self._handles, worker_stats):
            entry: dict = {
                "shard": handle.shard,
                "state": handle.state,
                "restarts": handle.restarts,
                "routed_total": handle.routed_total,
                "pending": len(handle.pending),
            }
            if stats is not None:
                stats = dict(stats)
                # The registry dump rides the same pipe reply but belongs to
                # /metrics; /stats keeps its established JSON shape.
                stats.pop("metrics", None)
                entry["scheduler"] = stats
                for counter in (
                    "requests_total",
                    "cache_hits_total",
                    "coalesced_total",
                    "scheduled_total",
                    "batches_total",
                    "rejected_total",
                    "deadline_exceeded_total",
                ):
                    totals[counter] += int(stats.get(counter, 0))
                cache_stats = stats.get("cache", {})
                totals["solves"] += int(cache_stats.get("solves", 0))
                totals["cache_size"] += int(cache_stats.get("size", 0))
                totals["cache_spills"] += int(cache_stats.get("spills", 0))
                totals["cache_spilled_entries"] += int(cache_stats.get("spilled_entries", 0))
                totals["cache_loads"] += int(cache_stats.get("loads", 0))
                totals["cache_loaded_entries"] += int(cache_stats.get("loaded_entries", 0))
            shards.append(entry)
        return {
            "status": "ok",
            "started_at": self._started_wallclock,
            "uptime_seconds": round(time.monotonic() - (self._started_monotonic or 0.0), 3),
            "workers": self.config.workers,
            "responses_total": self._responses_total,
            "errors_total": self._errors_total,
            "errors_by_code": dict(self._errors_by_code),
            "shedding": {
                "shed_total": self._shed_total,
                "by_tier": dict(self._shed_by_tier),
                "tier_order": list(SHED_TIER_ORDER),
                "thresholds": list(self.config.shed_thresholds),
                "capacity": self.config.workers * self.config.max_queue,
            },
            "shards": shards,
            "totals": totals,
            "slo": self.slo.snapshot(),
        }

    async def _metrics_payload(self) -> str:
        """The sharded ``GET /metrics``: every shard's registry, merged exactly.

        Each worker ships its scheduler's histogram registry inside its stats
        reply; bucket-wise summation makes the aggregated histograms identical
        to a single process having recorded every observation.  Shard counters
        are derived from the same stats integers ``/stats`` totals, plus the
        pool's own series (worker restarts, readiness, shed tiers).
        """
        worker_stats = await asyncio.gather(
            *(self._query_worker(handle, "stats") for handle in self._handles)
        )
        registry = MetricsRegistry()
        for handle, stats in zip(self._handles, worker_stats):
            registry.counter(
                "repro_worker_restarts_total",
                "Times this shard's worker process was respawned.",
                labels={"shard": str(handle.shard)},
            ).inc(float(handle.restarts))
            registry.counter(
                "repro_routed_total",
                "Requests routed to this shard by the ring.",
                labels={"shard": str(handle.shard)},
            ).inc(float(handle.routed_total))
            if stats is None:
                continue
            metrics_payload = stats.get("metrics")
            if isinstance(metrics_payload, dict):
                registry.merge_dict(metrics_payload)
            merge_shard_stats_metrics(registry, handle.shard, stats)
        registry.gauge(
            "repro_workers_ready", "Shard workers currently in the ready state."
        ).set(float(sum(1 for handle in self._handles if handle.state == "ready")))
        registry.counter("repro_shed_total", "Requests shed by tiered admission.").inc(
            float(self._shed_total)
        )
        for tier, count in self._shed_by_tier.items():
            registry.counter(
                "repro_shed_by_tier_total",
                "Requests shed by tiered admission, by query tier.",
                labels={"tier": tier},
            ).inc(float(count))
        self._front_metrics(registry)
        return registry.render()
