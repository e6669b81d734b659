"""The asyncio HTTP front end of the solver service.

A deliberately small HTTP/1.1 implementation over
:func:`asyncio.start_server` — no frameworks, no new dependencies — serving
these endpoints:

``POST /solve``
    The work endpoint: one JSON query in, one JSON answer out (see
    :mod:`.protocol` for the schema).  The answer names the ``shard`` that
    computed it.
``GET /healthz``
    Liveness: ``{"status": "ok", "uptime_seconds": ..., "version": ...}``
    plus the shard count and how many shards are ready, the in-flight
    request count against its bound (so load balancers can shed before the
    admission controller has to), and the ``runtime`` block of
    :func:`repro.blas.blas_runtime` (CPUs and the BLAS thread counts).
``GET /stats``
    The full observability payload: uptime, HTTP counters, the ``shedding``
    block, one ``shards[]`` entry per shard (state, restarts, routed and
    pending requests, scheduler and cache counters) and their ``totals``.
``GET /metrics``
    The same telemetry in Prometheus text exposition format (0.0.4): every
    shard's latency histograms merged exactly, plus counter and gauge series
    derived from the stats counters — what a scraper ingests without knowing
    the JSON schema.
``GET /traces/<id>`` and ``GET /traces``
    The trace query API, served from the :class:`~repro.obs.TraceRecorder`
    rings: one retained trace's span tree by id, or the newest retained
    traces (``?slow=1`` filters to the slow ring, ``?limit=N`` bounds the
    listing).  Lookups fan out to the shards and merge their spans.

:class:`SolverService` is the only front, whatever the worker count: it owns
HTTP, routing over the consistent-hash ring, tiered admission
(:func:`~repro.service.scheduler.shed_decision` with the
:class:`~repro.obs.slo.SloTracker`'s latency pressure), trace re-basing and
the aggregation behind the observability endpoints.  ``workers`` only picks
the shard transport (:mod:`.sharding`): one shard on the front's own event
loop, or one spawned worker process per shard.

Every request is assigned a trace id, echoed as ``trace_id`` in JSON
payloads and as an ``X-Trace-Id`` response header; ``/solve`` requests
additionally build a full span trace through the owning shard's scheduler,
kept in a bounded in-memory ring with slow requests emitted to the
structured log.

Connections are persistent (HTTP/1.1 keep-alive) and each *connection* is
served by its own task, so one slow solve never blocks the accept loop or
other connections; requests on a single connection are answered in order
(no pipelining), which is what the stdlib sync client expects anyway —
concurrency-hungry clients open concurrent connections, as
:class:`~repro.service.client.AsyncServiceClient` does.

:class:`ThreadedService` runs a service on a private event loop in a
background thread — the harness the tests, the benchmark load generator and
embedding applications use.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
import urllib.parse
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from .. import package_version
from ..blas import blas_runtime
from ..obs import (
    MetricsRegistry,
    TraceBuilder,
    TraceRecorder,
    configure_logging,
    get_logger,
    new_trace_id,
)
from ..obs.slo import (
    DEFAULT_QUEUE_WAIT_TARGET_SECONDS,
    DEFAULT_SOLVE_LATENCY_TARGET_SECONDS,
    SloTargets,
    SloTracker,
)
from ..solvers.cache import solution_cache_key
from . import protocol
from .errors import (
    BadRequestError,
    LoadShedError,
    MethodNotAllowedError,
    NotFoundError,
    PayloadTooLargeError,
    ServiceError,
    SolveFailedError,
    WorkerCrashedError,
)
from .scheduler import (
    DEFAULT_BATCH_WINDOW,
    DEFAULT_CACHE_MAXSIZE,
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_QUEUE,
    DEFAULT_SHED_THRESHOLDS,
    SHED_TIER_ORDER,
    shed_decision,
)
from .sharding import (
    RESTART_RETRY_AFTER,
    ConsistentHashRing,
    LocalShard,
    ProcessShard,
)
from .worker import DEFAULT_SPILL_INTERVAL, ShardWorkerConfig

#: Largest declared over-bound body the server drains before answering 413.
_MAX_DRAIN_BYTES = 16_000_000

#: Seconds the front waits for every shard's ready handshake.
_STARTUP_TIMEOUT = 120.0

#: Seconds ``stop()`` waits for connection handlers to return on their own.
_CLOSE_TIMEOUT = 10.0

#: Reason phrases for the status codes the service emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`SolverService` instance.

    ``port=0`` binds an ephemeral port (what the tests use); the bound port
    is available as :attr:`SolverService.port` after ``start()``.

    ``workers`` is the shard count and picks the shard transport: ``1`` runs
    the one shard on the front's event loop, ``> 1`` spawns one worker
    process per shard.  ``max_queue`` bounds each shard's in-flight requests
    (tiered shedding starts below it).  ``cache_dir`` enables cache
    persistence — each shard loads its snapshot on startup and spills it
    every ``spill_interval`` seconds and on graceful shutdown.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 1
    batch_window: float = DEFAULT_BATCH_WINDOW
    max_queue: int = DEFAULT_MAX_QUEUE
    max_batch: int = DEFAULT_MAX_BATCH
    cache_maxsize: int = DEFAULT_CACHE_MAXSIZE
    max_body_bytes: int = 1_000_000
    cache_dir: str | None = None
    spill_interval: float = DEFAULT_SPILL_INTERVAL
    shed_thresholds: tuple[float, ...] = field(default=DEFAULT_SHED_THRESHOLDS)
    #: Log rendering: ``"text"`` or ``"json"`` (``repro serve --log-format``).
    log_format: str = "text"
    #: Completed traces at least this slow are emitted to the log in full.
    slow_request_seconds: float = 1.0
    #: Bound on the in-memory ring of recent request traces.
    trace_ring: int = 256
    #: Every Nth trace is retained as an exemplar regardless of latency
    #: (``0`` disables exemplar sampling).
    trace_exemplar_interval: int = 32
    #: Rolling-p99 queue-wait SLO target in seconds (``0`` disables the
    #: objective and its latency-pressure shedding).
    slo_queue_wait_seconds: float = DEFAULT_QUEUE_WAIT_TARGET_SECONDS
    #: Rolling-p99 end-to-end solve-latency SLO target in seconds.
    slo_solve_latency_seconds: float = DEFAULT_SOLVE_LATENCY_TARGET_SECONDS

    def __post_init__(self) -> None:
        # Checked here, not only by each shard's scheduler: a process shard
        # would otherwise report a bad tunable as a dead worker.
        for name in ("workers", "max_queue", "max_batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.batch_window < 0.0:
            raise ValueError(f"batch_window must be >= 0, got {self.batch_window}")


class SolverService:
    """The solver service front: HTTP, routing, admission, observability."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.slo = SloTracker(
            SloTargets(
                queue_wait_p99_seconds=self.config.slo_queue_wait_seconds,
                solve_latency_p99_seconds=self.config.slo_solve_latency_seconds,
            )
        )
        self._log = get_logger("repro.service")
        self.traces = TraceRecorder(
            self.config.trace_ring,
            slow_threshold_seconds=self.config.slow_request_seconds,
            exemplar_interval=self.config.trace_exemplar_interval,
            logger=self._log,
        )
        self._ring = ConsistentHashRing(self.config.workers)
        transport = LocalShard if self.config.workers == 1 else ProcessShard
        self._shards = [
            transport(
                ShardWorkerConfig(
                    shard=index,
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
            )
            for index in range(self.config.workers)
        ]
        self._capacity = self.config.workers * self.config.max_queue
        self._server: asyncio.Server | None = None
        #: Connection handler tasks, and the writers of those waiting for
        #: their next request — what ``stop()`` closes and waits for.
        self._handlers: set[asyncio.Task] = set()
        self._idle: set[asyncio.StreamWriter] = set()
        self._closing = False
        self._started_monotonic: float | None = None
        self._started_wallclock: float | None = None
        self._responses_total = 0
        self._errors_total = 0
        self._errors_by_code: dict[str, int] = {}
        self._shed_total = 0
        self._shed_by_tier: dict[str, int] = {}

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (meaningful once started)."""
        if self._server is None:
            raise RuntimeError("the service is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self.config.host

    async def start(self) -> None:
        """Bring every shard up, then bind the listening socket.

        The service never accepts a request it has no shard for.  A shard
        that cannot start fails the whole start-up and stops the others.
        """
        if self._server is not None:
            raise RuntimeError("the service is already started")
        self._closing = False
        try:
            await asyncio.gather(*(shard.start() for shard in self._shards))
            await asyncio.wait_for(
                asyncio.gather(*(shard.wait_ready() for shard in self._shards)),
                timeout=_STARTUP_TIMEOUT,
            )
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.config.host, port=self.config.port
            )
        except BaseException as error:
            await asyncio.gather(*(shard.stop() for shard in self._shards))
            if isinstance(error, TimeoutError):
                raise RuntimeError(
                    f"shard workers failed the ready handshake within {_STARTUP_TIMEOUT:g}s"
                ) from None
            raise
        self._started_monotonic = time.monotonic()
        self._started_wallclock = time.time()

    async def stop(self) -> None:
        """Stop accepting, drain the shards, close every client connection.

        Idle keep-alive connections close at once; a connection with a
        request in flight closes after its answer (the shards drain what they
        can and fail the rest).  Handlers return normally, so no cancelled
        handler task is left for asyncio to report.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
        for writer in tuple(self._idle):
            writer.close()
        await asyncio.gather(*(shard.stop() for shard in self._shards))
        if self._handlers:
            _, stuck = await asyncio.wait(tuple(self._handlers), timeout=_CLOSE_TIMEOUT)
            for task in stuck:  # pragma: no cover - a client that never reads
                task.cancel()
            await asyncio.gather(*stuck, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)
        try:
            while not self._closing:
                self._idle.add(writer)
                try:
                    request = await self._read_request(reader)
                except asyncio.IncompleteReadError:
                    break
                except ServiceError as error:
                    # Pre-routing failures (an oversized body that was never
                    # read) still deserve a structured answer; the connection
                    # cannot be reused because the body is still on the wire.
                    status, payload, extra_headers = self._error_response(error)
                    writer.write(self._render_response(status, payload, extra_headers, False))
                    await writer.drain()
                    break
                finally:
                    self._idle.discard(writer)
                if request is None:
                    break
                method, target, headers, body = request
                status, payload, extra_headers = await self._dispatch(method, target, body)
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                writer.write(self._render_response(status, payload, extra_headers, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, TimeoutError):
            pass
        finally:
            # The handler must end normally: on Python 3.11 asyncio logs an
            # "Exception in callback" traceback for every handler task that
            # ends cancelled, which is why stop() closes connections instead
            # of leaving them to loop teardown.  A CancelledError still
            # propagates (absorbing it would turn "shut down now" into "keep
            # serving") — but only after the transport is released below.
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, TimeoutError):
                # Teardown race: the peer vanished mid-close.
                pass

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        """One header line, treating an over-limit line as a dropped client.

        ``StreamReader.readline`` raises :class:`ValueError` when a line
        exceeds the reader's buffer limit (64 KiB by default); re-raising it
        as the incomplete-read signal makes the handler drop the connection
        quietly instead of spraying an unhandled-exception traceback per
        oversized (or malicious) request.
        """
        try:
            return await reader.readline()
        except ValueError as exc:
            raise asyncio.IncompleteReadError(b"", None) from exc

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        """Parse one HTTP/1.1 request; ``None`` on a cleanly closed socket."""
        request_line = await self._read_line(reader)
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise asyncio.IncompleteReadError(request_line, None)
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await self._read_line(reader)
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                return None
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise asyncio.IncompleteReadError(line, None) from None
        if length > self.config.max_body_bytes:
            # Drain moderate overruns before answering: closing a socket with
            # unread data sends an RST that can destroy the 413 response
            # in-flight.  Absurd declared lengths are not worth draining —
            # the structured answer is then best-effort.
            if length <= _MAX_DRAIN_BYTES:
                try:
                    await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    pass
            raise PayloadTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte bound"
            )
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    def _render_response(
        self,
        status: int,
        payload: dict | bytes,
        extra_headers: dict[str, str] | None,
        keep_alive: bool,
    ) -> bytes:
        headers = dict(extra_headers or {})
        if isinstance(payload, bytes):
            # A pre-encoded body (the /metrics text exposition); the handler
            # supplies its Content-Type through the extra headers.
            body = payload
            content_type = headers.pop("Content-Type", "text/plain; charset=utf-8")
        else:
            body = protocol.encode_response(payload)
            content_type = "application/json"
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self._responses_total += 1
        if status >= 400:
            self._errors_total += 1
        return head + body

    # -- routing -----------------------------------------------------------

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict | bytes, dict[str, str] | None]:
        """Route one request; every failure becomes a structured error.

        A trace id is minted here for every request and travels with it:
        ``/solve`` builds a full span trace through the owning shard, the
        other endpoints simply echo the id (payload ``trace_id`` +
        ``X-Trace-Id`` header) so any answer can be matched to a log line.
        """
        target, _, query_string = target.partition("?")
        trace = TraceBuilder()
        headers = {"X-Trace-Id": trace.trace_id}
        try:
            if target == "/traces" or target.startswith("/traces/"):
                if method != "GET":
                    raise MethodNotAllowedError("/traces accepts GET only")
                if target == "/traces":
                    slow, limit = _parse_traces_query(query_string)
                    payload = await self._traces_payload(slow=slow, limit=limit)
                else:
                    payload = await self._trace_payload(target[len("/traces/") :])
                payload["trace_id"] = trace.trace_id
                return 200, payload, headers
            if target == "/solve":
                if method != "POST":
                    raise MethodNotAllowedError("/solve accepts POST only")
                return await self._solve(body, trace)
            if target == "/healthz":
                if method != "GET":
                    raise MethodNotAllowedError("/healthz accepts GET only")
                payload = self._healthz_payload()
                payload["trace_id"] = trace.trace_id
                return 200, payload, headers
            if target == "/stats":
                if method != "GET":
                    raise MethodNotAllowedError("/stats accepts GET only")
                payload = await self._stats_payload()
                payload["trace_id"] = trace.trace_id
                return 200, payload, headers
            if target == "/metrics":
                if method != "GET":
                    raise MethodNotAllowedError("/metrics accepts GET only")
                text = await self._metrics_payload()
                return 200, text.encode("utf-8"), {
                    **headers,
                    "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
                }
            raise NotFoundError(
                f"no such endpoint {target!r}; "
                "available: /solve, /healthz, /stats, /metrics, /traces, /traces/<id>"
            )
        except ServiceError as error:
            return self._error_response(error, trace_id=trace.trace_id)
        except Exception as error:  # noqa: BLE001 - last-resort 500, never a dropped socket
            return self._error_response(
                ServiceError(f"internal error: {type(error).__name__}: {error}"),
                trace_id=trace.trace_id,
            )

    def _error_response(
        self, error: ServiceError, trace_id: str | None = None
    ) -> tuple[int, dict, dict[str, str] | None]:
        self._errors_by_code[error.code] = self._errors_by_code.get(error.code, 0) + 1
        trace_id = trace_id if trace_id else new_trace_id()
        headers: dict[str, str] = {"X-Trace-Id": trace_id}
        if error.retry_after is not None:
            headers["Retry-After"] = f"{error.retry_after:g}"
        payload = {"status": "error", "trace_id": trace_id, "error": error.payload()}
        return error.http_status, payload, headers

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
            shard = self._shards[self._ring.shard_for(key)]
            self._admit(request.query, shard.shard)
            trace.add(
                "admission",
                admission_started,
                time.perf_counter(),
                shard=shard.shard,
                query=request.query,
            )
            shard.routed_total += 1
            shard.inflight += 1
            try:
                result = await shard.submit(
                    request.model, request.policy, request.deadline, trace
                )
            finally:
                shard.inflight -= 1
            for span in trace.spans:
                if span.name == "queue-wait":
                    self.slo.observe_queue_wait(span.duration_ms / 1e3)
            self.slo.observe_solve_latency(time.perf_counter() - started)
            if result["solver"] is None:
                raise SolveFailedError(result["error"] or "no solver succeeded")
        except ServiceError as error:
            # Failed requests leave a trace too — a shed or timed-out request
            # is exactly the one worth a where-did-the-time-go record.
            self.traces.record(trace.finish(error.code))
            raise
        self.traces.record(trace.finish("ok"))
        payload = {
            "status": "ok",
            "trace_id": trace.trace_id,
            "query": request.query,
            "shard": shard.shard,
            "solver": result["solver"],
            "stable": result["stable"],
            "metrics": result["metrics"],
            "cached": result["cached"],
            "coalesced": result["coalesced"],
            "elapsed_ms": round((time.perf_counter() - started) * 1e3, 3),
        }
        return 200, payload, {"X-Trace-Id": trace.trace_id}

    def _admit(self, query: str, shard_id: int) -> None:
        """Admission: shard availability, then tiered shedding.

        The load is the *worse* of in-flight requests over the total capacity
        (``workers × max_queue``) and the SLO tracker's measured latency
        pressure; cheapest-to-recompute query kinds shed first.  A full
        shard sheds likewise even when the others have room, so a hot key
        range cannot monopolise the global budget.
        """
        shard = self._shards[shard_id]
        if shard.state != "ready":
            raise WorkerCrashedError(
                f"the worker process of shard {shard_id} is restarting; retry shortly",
                shard=shard_id,
                retry_after=RESTART_RETRY_AFTER,
            )
        pending_total = sum(each.inflight for each in self._shards)
        tier = shed_decision(
            query,
            pending_total,
            self._capacity,
            self.config.shed_thresholds,
            latency_pressure=self.slo.pressure(),
        )
        if tier is None and shard.inflight >= self.config.max_queue:
            tier = query
        if tier is not None:
            self._shed_total += 1
            self._shed_by_tier[tier] = self._shed_by_tier.get(tier, 0) + 1
            raise LoadShedError(
                f"overloaded: shedding {tier!r} requests "
                f"({pending_total}/{self._capacity} pending); retry shortly",
                shard=shard_id,
                tier=tier,
                retry_after=round(0.1 * (1.0 + pending_total / self._capacity), 3),
            )

    # -- observability -----------------------------------------------------

    async def _query_shards(self, kind: str, *args: object) -> list[dict | None]:
        return list(await asyncio.gather(*(shard.query(kind, *args) for shard in self._shards)))

    async def _trace_payload(self, trace_id: str) -> dict:
        """``GET /traces/<id>``: the front's copy merged with the shards' spans.

        The front's retained copy is authoritative — it already carries the
        shard's spans re-based onto the front clock.  The fan-out merges any
        shard-retained spans the front copy lacks (deduplicated by span id)
        and covers traces the front ring has already evicted while a shard
        ring still holds them; a shard-only trace keeps its shard-relative
        offsets (durations are exact).
        """
        found = self.traces.find(trace_id)
        shard_traces = [
            reply["trace"]
            for reply in await self._query_shards("trace", trace_id)
            if reply is not None and reply["trace"] is not None
        ]
        if found is not None:
            payload = found.to_dict()
            spans = [span.to_dict() for span in found.spans]
            seen = {span.span_id for span in found.spans}
            for shard_trace in shard_traces:
                for span_payload in shard_trace["spans"]:
                    if span_payload["span_id"] not in seen:
                        seen.add(span_payload["span_id"])
                        spans.append(span_payload)
            payload["spans"] = spans
            return {"status": "ok", "trace": payload}
        if shard_traces:
            return {"status": "ok", "trace": shard_traces[0]}
        raise NotFoundError(
            f"no retained trace {trace_id!r} on the front or any shard; "
            f"it may have fallen off the rings (capacity {self.traces.capacity})"
        )

    async def _traces_payload(self, *, slow: bool, limit: int) -> dict:
        """``GET /traces``: the front's listing plus the shards', newest first.

        Front-retained traces win the per-id deduplication (their spans are
        merged and re-based); shard-only traces fill in behind them.
        """
        combined = [retained.to_dict() for retained in self.traces.query(slow=slow, limit=limit)]
        seen = {entry["trace_id"] for entry in combined}
        for reply in await self._query_shards("traces", {"slow": slow, "limit": limit}):
            for entry in reply["traces"] if reply is not None else ():
                if entry["trace_id"] not in seen:
                    seen.add(entry["trace_id"])
                    combined.append(entry)
        combined.sort(key=lambda entry: entry["started_at"], reverse=True)
        combined = combined[:limit]
        return {"status": "ok", "count": len(combined), "slow": slow, "traces": combined}

    def _uptime(self) -> float:
        return time.monotonic() - (self._started_monotonic or time.monotonic())

    def _healthz_payload(self) -> dict:
        """Liveness, version, shard readiness, load and the BLAS runtime."""
        return {
            "status": "ok",
            "version": package_version(),
            "uptime_seconds": round(self._uptime(), 3),
            "runtime": blas_runtime(),
            "workers": self.config.workers,
            "workers_ready": self._workers_ready(),
            "queue_depth": sum(shard.inflight for shard in self._shards),
            "max_queue": self._capacity,
        }

    def _workers_ready(self) -> int:
        return sum(1 for shard in self._shards if shard.state == "ready")

    async def _stats_payload(self) -> dict:
        totals = dict.fromkeys((*_SCHEDULER_COUNTERS, *_CACHE_TOTALS.values()), 0)
        shards: list[dict] = []
        for shard, stats in zip(self._shards, await self._query_shards("stats")):
            entry: dict = {
                "shard": shard.shard,
                "state": shard.state,
                "restarts": shard.restarts,
                "routed_total": shard.routed_total,
                "pending": shard.inflight,
            }
            if stats is not None:
                # The registry dump belongs to /metrics.
                stats.pop("metrics")
                entry["scheduler"] = stats
                for counter in _SCHEDULER_COUNTERS:
                    totals[counter] += stats[counter]
                for cache_key, total_key in _CACHE_TOTALS.items():
                    totals[total_key] += stats["cache"][cache_key]
            shards.append(entry)
        return {
            "status": "ok",
            "started_at": self._started_wallclock,
            "uptime_seconds": round(self._uptime(), 3),
            "workers": self.config.workers,
            "responses_total": self._responses_total,
            "errors_total": self._errors_total,
            "errors_by_code": dict(self._errors_by_code),
            "shedding": {
                "shed_total": self._shed_total,
                "by_tier": dict(self._shed_by_tier),
                "tier_order": list(SHED_TIER_ORDER),
                "thresholds": list(self.config.shed_thresholds),
                "capacity": self._capacity,
            },
            "shards": shards,
            "totals": totals,
            "slo": self.slo.snapshot(),
        }

    async def _metrics_payload(self) -> str:
        """The ``GET /metrics`` body: a fresh snapshot registry, rendered.

        Built per scrape rather than kept live.  Each shard hands over its
        scheduler's histogram registry with its stats; bucket-wise summation
        makes the merged histograms identical to one process having recorded
        every observation.  Counter and gauge series are derived from the
        same stats integers ``/stats`` reports — one source of truth, two
        encodings — plus the front's own series.
        """
        registry = MetricsRegistry()
        for shard, stats in zip(self._shards, await self._query_shards("stats")):
            labels = {"shard": str(shard.shard)}
            registry.counter(
                "repro_worker_restarts_total",
                "Times this shard's worker process was respawned.",
                labels=labels,
            ).inc(float(shard.restarts))
            registry.counter(
                "repro_routed_total", "Requests routed to this shard by the ring.", labels=labels
            ).inc(float(shard.routed_total))
            if stats is not None:
                registry.merge_dict(stats.pop("metrics"))
                merge_shard_stats_metrics(registry, shard.shard, stats)
        registry.gauge(
            "repro_workers_ready", "Shards currently in the ready state."
        ).set(float(self._workers_ready()))
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

    def _front_metrics(self, registry: MetricsRegistry) -> None:
        """Front-process series: HTTP, uptime, traces, SLO, runtime."""
        registry.counter("repro_http_responses_total", "HTTP responses written.").inc(
            float(self._responses_total)
        )
        registry.counter("repro_http_errors_total", "HTTP error responses written.").inc(
            float(self._errors_total)
        )
        for code, count in self._errors_by_code.items():
            registry.counter(
                "repro_http_errors_by_code_total",
                "HTTP error responses by structured error code.",
                labels={"code": code},
            ).inc(float(count))
        registry.gauge(
            "repro_uptime_seconds", "Seconds since the service started."
        ).set(self._uptime())
        registry.counter(
            "repro_traces_recorded_total", "Request traces recorded in the ring."
        ).inc(float(self.traces.recorded_total))
        registry.counter(
            "repro_traces_slow_total", "Traces over the slow-request threshold."
        ).inc(float(self.traces.slow_total))
        registry.counter(
            "repro_traces_exemplars_total",
            "Traces retained as periodic exemplars regardless of latency.",
        ).inc(float(self.traces.exemplar_total))
        self.slo.export_into(registry)
        runtime = blas_runtime()
        for library in runtime["libraries"]:
            registry.gauge(
                "repro_runtime_info",
                "BLAS libraries whose threads the spectral solves control (always 1).",
                labels={"library": library["library"], "config": library["config"]},
            ).set(1.0)
        solve = runtime["solve_threads"]
        if solve is not None:
            ambient = max(library["threads"] for library in runtime["libraries"])
            for scope, count in (("ambient", ambient), ("solve", solve)):
                registry.gauge(
                    "repro_blas_threads",
                    "BLAS threads outside (ambient) and inside (solve) spectral solves.",
                    labels={"scope": scope},
                ).set(float(count))


def _parse_traces_query(query_string: str) -> tuple[bool, int]:
    """The ``(slow, limit)`` pair of a ``GET /traces`` query string."""
    params = urllib.parse.parse_qs(query_string, keep_blank_values=True)
    slow_text = params.get("slow", ["0"])[-1].strip().lower()
    slow = slow_text in ("1", "true", "yes", "")
    limit_text = params.get("limit", ["32"])[-1]
    try:
        limit = int(limit_text)
    except ValueError:
        raise BadRequestError(f"limit must be an integer, got {limit_text!r}") from None
    if limit < 1:
        raise BadRequestError(f"limit must be >= 1, got {limit}")
    return slow, limit


#: Scheduler counters, summed into ``/stats`` totals and exported as
#: Prometheus counter families per shard.
_SCHEDULER_COUNTERS: dict[str, tuple[str, str]] = {
    "requests_total": (
        "repro_requests_total",
        "Requests admitted by the scheduler.",
    ),
    "cache_hits_total": (
        "repro_cache_hits_total",
        "Requests answered straight from the solution cache.",
    ),
    "coalesced_total": (
        "repro_coalesced_total",
        "Requests attached to an identical in-flight computation.",
    ),
    "scheduled_total": (
        "repro_scheduled_total",
        "Distinct computations scheduled.",
    ),
    "batches_total": (
        "repro_batches_total",
        "Solve batches dispatched.",
    ),
    "rejected_total": (
        "repro_rejected_total",
        "Requests rejected by a full scheduler queue.",
    ),
    "deadline_exceeded_total": (
        "repro_deadline_exceeded_total",
        "Requests whose deadline expired before the solution was ready.",
    ),
}

#: Solution-cache counters summed into ``/stats`` totals, by total name.
_CACHE_TOTALS = {
    "solves": "solves",
    "size": "cache_size",
    "spills": "cache_spills",
    "spilled_entries": "cache_spilled_entries",
    "loads": "cache_loads",
    "loaded_entries": "cache_loaded_entries",
}

#: Solution-cache counters exported per shard.
_CACHE_COUNTERS: dict[str, tuple[str, str]] = {
    "hits": ("repro_cache_lookup_hits_total", "Solution-cache lookup hits."),
    "misses": ("repro_cache_lookup_misses_total", "Solution-cache lookup misses."),
    "solves": ("repro_cache_solves_total", "Fresh solves recorded by the cache."),
    "evictions": ("repro_cache_evictions_total", "Cache entries evicted by the LRU bound."),
    "spills": ("repro_cache_spills_total", "Cache snapshots spilled to disk."),
    "spilled_entries": (
        "repro_cache_spilled_entries_total",
        "Entries written across all cache spills.",
    ),
    "loads": ("repro_cache_loads_total", "Cache snapshots loaded from disk."),
    "loaded_entries": (
        "repro_cache_loaded_entries_total",
        "Entries restored across all cache loads.",
    ),
}


def merge_shard_stats_metrics(
    registry: MetricsRegistry, shard: int, stats: Mapping[str, Any]
) -> None:
    """Derive one shard's counter/gauge series from its ``/stats`` section.

    The integers are the very ones ``/stats`` reports (scheduler counters and
    the cache's hit/miss/solve/eviction totals), re-encoded as labelled
    Prometheus series.
    """
    labels = {"shard": str(shard)}
    for stats_key, (name, help_text) in _SCHEDULER_COUNTERS.items():
        registry.counter(name, help_text, labels=labels).inc(float(stats[stats_key]))
    registry.gauge(
        "repro_queue_depth", "Distinct computations queued or executing.", labels=labels
    ).set(float(stats["queue_depth"]))
    cache_stats = stats["cache"]
    for stats_key, (name, help_text) in _CACHE_COUNTERS.items():
        registry.counter(name, help_text, labels=labels).inc(float(cache_stats[stats_key]))
    registry.gauge(
        "repro_cache_entries", "Entries in the solution cache.", labels=labels
    ).set(float(cache_stats["size"]))


def run_service(config: ServiceConfig | None = None) -> int:
    """Run a service until interrupted (the ``repro serve`` entry point).

    SIGTERM (the fleet-orchestrator stop signal) and Ctrl-C both shut the
    service down gracefully — in-flight work is answered where possible and
    caches spill to ``cache_dir`` before the process exits.
    """

    async def _main() -> None:
        service = SolverService(config)
        configure_logging(service.config.log_format)
        await service.start()
        stopped = asyncio.Event()
        try:
            asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stopped.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-unix
            pass
        get_logger("repro.service").info(
            "service-started",
            url=f"http://{service.host}:{service.port}",
            workers=service.config.workers,
            endpoints=(
                "POST /solve, GET /healthz, GET /stats, GET /metrics, "
                "GET /traces, GET /traces/<id>"
            ),
            stop="Ctrl-C or SIGTERM",
        )
        try:
            await stopped.wait()
        finally:
            await service.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    get_logger("repro.service").info("service-stopped")
    return 0


class ThreadedService:
    """A :class:`SolverService` on a private event loop in a daemon thread.

    The synchronous harness everything outside asyncio uses: tests, the
    benchmark load generator, interactive sessions.  Usable as a context
    manager::

        with ThreadedService(ServiceConfig(port=0)) as service:
            client = ServiceClient(service.host, service.port)
            client.solve({...})
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self._config = config if config is not None else ServiceConfig(port=0)
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._service: SolverService | None = None
        self._startup_error: BaseException | None = None
        self.host: str = self._config.host
        self.port: int | None = None

    def start(self) -> "ThreadedService":
        if self._thread is not None:
            raise RuntimeError("the service thread is already started")
        self._thread = threading.Thread(target=self._run, name="repro-service", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):  # pragma: no cover - hang guard
            raise RuntimeError("the service thread failed to start within 30s")
        if self._startup_error is not None:
            self._thread.join()
            raise RuntimeError("the service failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    @property
    def service(self) -> SolverService:
        """The underlying service object (meaningful once started)."""
        if self._service is None:
            raise RuntimeError("the service is not started")
        return self._service

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        service = SolverService(self._config)
        try:
            await service.start()
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            self._startup_error = exc
            self._ready.set()
            if isinstance(exc, asyncio.CancelledError):
                raise
            return
        self._service = service
        self.port = service.port
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            await service.stop()

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30.0)
        self._thread = None

    @property
    def address(self) -> str:
        """The service's base URL."""
        if self.port is None:
            raise RuntimeError("the service is not started")
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "ThreadedService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
