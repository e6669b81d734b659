"""The asyncio HTTP front end of the solver service.

A deliberately small HTTP/1.1 implementation over
:func:`asyncio.start_server` — no frameworks, no new dependencies — serving
these endpoints:

``POST /solve``
    The work endpoint: one JSON query in, one JSON answer out (see
    :mod:`.protocol` for the schema).
``GET /healthz``
    Liveness: ``{"status": "ok", "uptime_seconds": ..., "version": ...}``
    plus the current queue depth, so load balancers can shed before the
    admission controller has to, and the ``runtime`` block of
    :func:`repro.blas.blas_runtime` (CPUs and the BLAS thread counts).
``GET /stats``
    The full observability payload: uptime, scheduler counters (queue depth,
    coalesced/batched/rejected totals) and the solution-cache statistics.
``GET /metrics``
    The same telemetry in Prometheus text exposition format (0.0.4):
    per-shard latency histograms recorded by the scheduler plus counter and
    gauge series derived from the stats counters — what a scraper ingests
    without knowing the JSON schema.
``GET /traces/<id>`` and ``GET /traces``
    The trace query API, served from the :class:`~repro.obs.TraceRecorder`
    rings: one retained trace's span tree by id, or the newest retained
    traces (``?slow=1`` filters to the slow ring, ``?limit=N`` bounds the
    listing).  The sharded front additionally fans lookups out to its shard
    workers and merges their spans.

Every request is assigned a trace id, echoed as ``trace_id`` in JSON
payloads and as an ``X-Trace-Id`` response header; ``/solve`` requests
additionally build a full span trace through the scheduler, kept in a
bounded in-memory ring (:class:`~repro.obs.TraceRecorder`) with slow
requests emitted to the structured log.

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
from pathlib import Path

from .. import package_version
from ..blas import blas_runtime
from ..exceptions import CachePersistenceError
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
from ..solvers import SolutionCache
from . import protocol
from .errors import (
    BadRequestError,
    MethodNotAllowedError,
    NotFoundError,
    PayloadTooLargeError,
    ServiceError,
    SolveFailedError,
)
from .scheduler import (
    DEFAULT_BATCH_WINDOW,
    DEFAULT_CACHE_MAXSIZE,
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_QUEUE,
    DEFAULT_SHED_THRESHOLDS,
    BatchScheduler,
)
from .worker import DEFAULT_SPILL_INTERVAL, shard_cache_path

#: Largest declared over-bound body the server drains before answering 413.
_MAX_DRAIN_BYTES = 16_000_000

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

    ``workers`` selects the serving tier: ``1`` is the single-process
    service, ``> 1`` makes :func:`build_service` construct the sharded
    multi-process front (:class:`~repro.service.sharding.ShardedService`)
    with one worker process per shard.  ``cache_dir`` enables cache
    persistence — snapshots are loaded on startup, spilled every
    ``spill_interval`` seconds and on graceful shutdown.
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


class SolverService:
    """The long-running solver service: HTTP front end + batching scheduler."""

    def __init__(
        self, config: ServiceConfig | None = None, *, cache: SolutionCache | None = None
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        if cache is None:
            cache = SolutionCache(maxsize=self.config.cache_maxsize)
        self.slo = SloTracker(
            SloTargets(
                queue_wait_p99_seconds=self.config.slo_queue_wait_seconds,
                solve_latency_p99_seconds=self.config.slo_solve_latency_seconds,
            )
        )
        self.scheduler = BatchScheduler(
            batch_window=self.config.batch_window,
            max_queue=self.config.max_queue,
            max_batch=self.config.max_batch,
            workers=self.config.workers,
            cache=cache,
            shard=0,
            slo=self.slo,
            shed_thresholds=self.config.shed_thresholds,
        )
        self._log = get_logger("repro.service")
        self.traces = TraceRecorder(
            self.config.trace_ring,
            slow_threshold_seconds=self.config.slow_request_seconds,
            exemplar_interval=self.config.trace_exemplar_interval,
            logger=self._log,
        )
        self._server: asyncio.Server | None = None
        self._spill_task: asyncio.Task | None = None
        self._started_monotonic: float | None = None
        self._started_wallclock: float | None = None
        self._responses_total = 0
        self._errors_total = 0
        self._errors_by_code: dict[str, int] = {}

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
        """Bind the listening socket and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("the service is already started")
        await self._load_cache_snapshot()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self._started_monotonic = time.monotonic()
        self._started_wallclock = time.time()
        if self._snapshot_path() is not None and self.config.spill_interval > 0:
            self._spill_task = asyncio.get_running_loop().create_task(self._spill_periodically())

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("call start() before serve_forever()")
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections and fail queued (unstarted) work."""
        if self._spill_task is not None:
            self._spill_task.cancel()
            await asyncio.gather(self._spill_task, return_exceptions=True)
            self._spill_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.close()
        await self._spill_cache_snapshot()

    # -- cache persistence (single-process mode; shards handle their own) ---

    def _snapshot_path(self) -> Path | None:
        """Where this service's cache spills, or ``None`` when not persisted.

        The sharded tier persists per worker process instead (each shard owns
        ``shard-<i>.json``), so this path exists only in single-process mode;
        the single process is "shard 0" of a one-shard deployment, keeping
        snapshots interchangeable when a deployment later scales out.
        """
        if self.config.cache_dir is None or self.config.workers != 1:
            return None
        return shard_cache_path(self.config.cache_dir, 0)

    async def _load_cache_snapshot(self) -> None:
        path = self._snapshot_path()
        if path is None:
            return
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(None, self.scheduler.cache.load, path)
        except CachePersistenceError:
            # A torn or incompatible snapshot means a cold start, not an
            # outage; the next spill overwrites it.
            pass

    async def _spill_cache_snapshot(self) -> None:
        path = self._snapshot_path()
        if path is None:
            return
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.scheduler.cache.spill, path)

    async def _spill_periodically(self) -> None:
        while True:
            await asyncio.sleep(self.config.spill_interval)
            await self._spill_cache_snapshot()

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
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
            # Loop teardown cancels connection handlers mid-read; the
            # CancelledError must propagate (a cancelled task ending with
            # CancelledError is silent, and absorbing it would turn "shut
            # down now" into "keep serving") — but only after the transport
            # is released below.
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
        ``/solve`` builds a full span trace through the scheduler, the other
        endpoints simply echo the id (payload ``trace_id`` + ``X-Trace-Id``
        header) so any answer can be matched to a log line.
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
                payload = await self._healthz_payload()
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

    async def _solve(
        self, body: bytes, trace: TraceBuilder
    ) -> tuple[int, dict, dict[str, str]]:
        started = time.perf_counter()
        try:
            if not body:
                raise BadRequestError("POST /solve requires a JSON body")
            with trace.timed("admission"):
                request = protocol.parse_solve_request(protocol.parse_body(body))
            result = await self.scheduler.submit(
                request.model,
                request.policy,
                deadline=request.deadline,
                trace=trace,
                query=request.query,
            )
            outcome = result.outcome
            if outcome.solver is None:
                raise SolveFailedError(outcome.error or "no solver succeeded")
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
            "solver": outcome.solver,
            "stable": outcome.stable,
            "metrics": dict(outcome.metrics),
            "cached": result.cached,
            "coalesced": result.coalesced,
            "elapsed_ms": round((time.perf_counter() - started) * 1e3, 3),
        }
        return 200, payload, {"X-Trace-Id": trace.trace_id}

    async def _trace_payload(self, trace_id: str) -> dict:
        """``GET /traces/<id>``: the retained trace's full span tree."""
        found = self.traces.find(trace_id)
        if found is None:
            raise NotFoundError(
                f"no retained trace {trace_id!r}; it may have fallen off the ring "
                f"(capacity {self.traces.capacity})"
            )
        return {"status": "ok", "trace": found.to_dict()}

    async def _traces_payload(self, *, slow: bool, limit: int) -> dict:
        """``GET /traces``: retained traces newest-first (``?slow=1`` filters)."""
        listed = self.traces.query(slow=slow, limit=limit)
        return {
            "status": "ok",
            "count": len(listed),
            "slow": slow,
            "traces": [retained.to_dict() for retained in listed],
        }

    def _healthz_base(self) -> dict:
        """The ``/healthz`` keys every tier reports: liveness, version, runtime."""
        return {
            "status": "ok",
            "version": package_version(),
            "uptime_seconds": round(time.monotonic() - (self._started_monotonic or 0.0), 3),
            "runtime": blas_runtime(),
        }

    async def _healthz_payload(self) -> dict:
        """The liveness payload (async so the sharded tier can poll workers)."""
        return {
            **self._healthz_base(),
            "queue_depth": self.scheduler.queue_depth,
            "max_queue": self.scheduler.max_queue,
        }

    async def _stats_payload(self) -> dict:
        """The observability payload (async so the sharded tier can aggregate)."""
        return {
            "status": "ok",
            "started_at": self._started_wallclock,
            "uptime_seconds": round(time.monotonic() - (self._started_monotonic or 0.0), 3),
            "responses_total": self._responses_total,
            "errors_total": self._errors_total,
            "errors_by_code": dict(self._errors_by_code),
            "scheduler": self.scheduler.stats(),
            "slo": self.slo.snapshot(),
        }

    async def _metrics_payload(self) -> str:
        """The ``GET /metrics`` body: a fresh snapshot registry, rendered.

        Built per scrape rather than kept live: histogram series come from
        the scheduler's registry (exact copies), counter/gauge series are
        derived from the same stats integers ``/stats`` reports — one source
        of truth, two encodings.
        """
        registry = MetricsRegistry()
        registry.merge_dict(self.scheduler.metrics_snapshot())
        merge_shard_stats_metrics(registry, 0, self.scheduler.stats())
        self._front_metrics(registry)
        return registry.render()

    def _front_metrics(self, registry: MetricsRegistry) -> None:
        """Front-process series every tier exposes: HTTP, uptime, traces, runtime."""
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
        ).set(time.monotonic() - (self._started_monotonic or time.monotonic()))
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


#: ``/stats`` scheduler counters exported as Prometheus counter families —
#: the mapping both serving tiers use, so metric names cannot drift by tier.
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
        "Requests rejected by admission control.",
    ),
    "deadline_exceeded_total": (
        "repro_deadline_exceeded_total",
        "Requests whose deadline expired before the solution was ready.",
    ),
}

#: Solution-cache counters exported per shard, same contract.
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
    registry: MetricsRegistry, shard: int, stats: Mapping[str, object]
) -> None:
    """Derive one shard's counter/gauge series from its ``/stats`` section.

    The integers are the very ones ``/stats`` reports (scheduler counters and
    the cache's hit/miss/solve/eviction totals), re-encoded as labelled
    Prometheus series; missing or non-numeric entries are skipped so an older
    worker's stats payload degrades instead of failing the scrape.
    """
    labels = {"shard": str(shard)}
    for stats_key, (name, help_text) in _SCHEDULER_COUNTERS.items():
        value = stats.get(stats_key)
        if isinstance(value, (int, float)):
            registry.counter(name, help_text, labels=labels).inc(float(value))
    shed = stats.get("shed_total")
    if isinstance(shed, (int, float)):
        registry.counter(
            "repro_shed_total", "Requests shed by tiered admission control.", labels=labels
        ).inc(float(shed))
    shed_by_tier = stats.get("shed_by_tier")
    if isinstance(shed_by_tier, Mapping):
        for tier, count in sorted(shed_by_tier.items()):
            if isinstance(count, (int, float)):
                registry.counter(
                    "repro_shed_by_tier_total",
                    "Requests shed, by query tier.",
                    labels={**labels, "tier": str(tier)},
                ).inc(float(count))
    depth = stats.get("queue_depth")
    if isinstance(depth, (int, float)):
        registry.gauge(
            "repro_queue_depth",
            "Distinct computations queued or executing.",
            labels=labels,
        ).set(float(depth))
    cache_stats = stats.get("cache")
    if isinstance(cache_stats, Mapping):
        for stats_key, (name, help_text) in _CACHE_COUNTERS.items():
            value = cache_stats.get(stats_key)
            if isinstance(value, (int, float)):
                registry.counter(name, help_text, labels=labels).inc(float(value))
        size = cache_stats.get("size")
        if isinstance(size, (int, float)):
            registry.gauge(
                "repro_cache_entries", "Entries in the solution cache.", labels=labels
            ).set(float(size))


def build_service(
    config: ServiceConfig | None = None, *, cache: SolutionCache | None = None
) -> SolverService:
    """The service matching ``config``: sharded when ``workers > 1``.

    The sharded tier is imported lazily so single-process deployments (and
    the spawned shard workers themselves, which import this module) never pay
    for — or recurse into — the multiprocessing front.
    """
    config = config if config is not None else ServiceConfig()
    if config.workers > 1:
        from .sharding import ShardedService

        return ShardedService(config, cache=cache)
    return SolverService(config, cache=cache)


def run_service(config: ServiceConfig | None = None) -> int:
    """Run a service until interrupted (the ``repro serve`` entry point).

    SIGTERM (the fleet-orchestrator stop signal) and Ctrl-C both shut the
    service down gracefully — in-flight work is answered where possible and
    caches spill to ``cache_dir`` before the process exits.
    """

    async def _main() -> None:
        service = build_service(config)
        configure_logging(service.config.log_format)
        await service.start()
        stopped = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, stopped.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-unix
            pass
        workers = service.config.workers
        get_logger("repro.service").info(
            "service-started",
            url=f"http://{service.host}:{service.port}",
            mode="sharded" if workers > 1 else "single-process",
            workers=workers,
            endpoints=(
                "POST /solve, GET /healthz, GET /stats, GET /metrics, "
                "GET /traces, GET /traces/<id>"
            ),
            stop="Ctrl-C or SIGTERM",
        )
        serve_task = loop.create_task(service.serve_forever())
        stop_task = loop.create_task(stopped.wait())
        try:
            await asyncio.wait({serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED)
        finally:
            serve_task.cancel()
            stop_task.cancel()
            await asyncio.gather(serve_task, stop_task, return_exceptions=True)
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

    def __init__(
        self, config: ServiceConfig | None = None, *, cache: SolutionCache | None = None
    ) -> None:
        self._config = config if config is not None else ServiceConfig(port=0)
        self._cache = cache
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
        service = build_service(self._config, cache=self._cache)
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
