"""The shard core: one slice of the key space, whatever carries its messages.

:class:`ShardCore` owns everything a shard keeps — a
:class:`~repro.service.scheduler.BatchScheduler` with its
:class:`~repro.solvers.SolutionCache`, a trace ring and the cache snapshot —
and answers the shard's messages.  Because the front routes every solution
key to exactly one shard, single-flight coalescing and LRU locality keep
working *per shard*: 100 identical concurrent requests still cost one solve,
no matter which front connection carried them.

The core runs in one of two places (see :mod:`.sharding`): on the front's own
event loop when the service has one shard, or in a spawned worker process,
one per shard, running :func:`worker_main`.  The front talks to a worker
process over one :class:`multiprocessing.connection.Connection`.  Messages
front → worker::

    ("solve", request_id, model, policy, deadline, trace_id)
    ("stats", request_id)       # scheduler + cache counters for this shard
    ("spill", request_id)       # snapshot the shard cache to disk now
    ("trace", request_id, trace_id)   # look one trace up in the shard's ring
    ("traces", request_id, params)    # list retained traces ({"slow","limit"})
    ("shutdown",)               # graceful: drain, spill, exit

and worker → front::

    ("ready", shard)                      # startup handshake
    (request_id, "ok", result_dict)       # includes the worker's "spans"
    (request_id, "error", error_dict)     # structured ServiceError fields
    (request_id, "stats", stats_dict)     # includes a "metrics" registry dump
    (request_id, "spilled", entry_count)
    (request_id, "trace", {"trace": ...}) # the retained trace dict, or None
    (request_id, "traces", {"traces": [...]})

The in-process shard calls the same :meth:`ShardCore.submit` and
:meth:`ShardCore.control` directly and gets the same replies; its spans land
in the front's own trace, so only the pipe carries span payloads.

Blocking pipe I/O never touches the worker's event loop: a reader thread
feeds incoming messages to the loop via ``call_soon_threadsafe`` and a writer
thread drains an outbox queue.  ``worker_main`` also runs inside a *thread*
(the protocol tests do this), so signal handling is installed only when the
worker is a real process's main thread.

Cache persistence is per shard: with ``cache_dir`` set, the core loads
``shard-<i>.json`` on startup (a corrupt snapshot serves cold rather than
failing), spills every ``spill_interval`` seconds, and spills once more on
graceful shutdown — a restarted shard answers yesterday's popular queries
from memory without re-solving.
"""

from __future__ import annotations

import asyncio
import queue
import signal
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..exceptions import CachePersistenceError
from ..obs import TraceBuilder, TraceRecorder
from ..solvers import SolutionCache
from .errors import ServiceError
from .scheduler import (
    DEFAULT_BATCH_WINDOW,
    DEFAULT_CACHE_MAXSIZE,
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_QUEUE,
    BatchScheduler,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

#: Default seconds between periodic shard-cache spills.
DEFAULT_SPILL_INTERVAL = 30.0


@dataclass(frozen=True)
class ShardWorkerConfig:
    """Everything one shard needs to run (picklable for spawn)."""

    shard: int
    batch_window: float = DEFAULT_BATCH_WINDOW
    max_queue: int = DEFAULT_MAX_QUEUE
    max_batch: int = DEFAULT_MAX_BATCH
    cache_maxsize: int = DEFAULT_CACHE_MAXSIZE
    cache_dir: str | None = None
    spill_interval: float = DEFAULT_SPILL_INTERVAL
    trace_ring: int = 256
    slow_request_seconds: float = 1.0
    trace_exemplar_interval: int = 32


def shard_cache_path(cache_dir: str | Path, shard: int) -> Path:
    """The snapshot file of one shard's cache inside ``cache_dir``."""
    return Path(cache_dir) / f"shard-{shard}.json"


class ShardCore:
    """One shard's scheduler, cache, trace ring and snapshot, plus its replies."""

    def __init__(self, config: ShardWorkerConfig) -> None:
        self.config = config
        self.scheduler = BatchScheduler(
            batch_window=config.batch_window,
            max_queue=config.max_queue,
            max_batch=config.max_batch,
            cache=SolutionCache(maxsize=config.cache_maxsize),
            shard=config.shard,
        )
        # The shard keeps its own trace ring so the front can fan ``/traces``
        # lookups out to it.  No logger: the front records the full merged
        # trace and owns slow-request log emission.
        self.traces = TraceRecorder(
            config.trace_ring,
            slow_threshold_seconds=config.slow_request_seconds,
            exemplar_interval=config.trace_exemplar_interval,
            logger=None,
        )
        self._snapshot = (
            None if config.cache_dir is None else shard_cache_path(config.cache_dir, config.shard)
        )
        self._spill_task: asyncio.Task | None = None

    def load(self) -> None:
        """Restore the shard's cache snapshot, if persistence is on (blocking)."""
        if self._snapshot is None:
            return
        try:
            self.scheduler.cache.load(self._snapshot)
        except CachePersistenceError as exc:
            # A torn or stale snapshot must not keep the shard down; serving
            # cold is strictly better than not serving.
            warnings.warn(
                f"shard {self.config.shard} serves cold: {exc}", RuntimeWarning, stacklevel=1
            )

    def spill(self) -> int:
        """Write the cache snapshot now (blocking); the entry count written."""
        return 0 if self._snapshot is None else self.scheduler.cache.spill(self._snapshot)

    def start_spilling(self) -> None:
        """Spill every ``spill_interval`` seconds on the running loop."""
        if self._snapshot is not None and self.config.spill_interval > 0:
            self._spill_task = asyncio.get_running_loop().create_task(self._spill_periodically())

    async def _spill_periodically(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.spill_interval)
            await loop.run_in_executor(None, self.spill)

    async def submit(
        self, model: object, policy: object, deadline: float | None, trace: TraceBuilder
    ) -> tuple[str, dict]:
        """Answer one solve: ``("ok", result)`` or ``("error", error_fields)``.

        The scheduler records its spans on ``trace``, and the shard's ring
        keeps the trace as it stands when the answer is ready.
        """
        try:
            result = await self.scheduler.submit(
                model, policy, deadline=deadline, trace=trace  # type: ignore[arg-type]
            )
        except ServiceError as error:
            self.traces.record(trace.finish(error.code))
            return "error", {
                "code": error.code,
                "message": str(error),
                "http_status": error.http_status,
                "retry_after": error.retry_after,
            }
        except Exception as error:  # noqa: BLE001 - reported, never a hung waiter
            self.traces.record(trace.finish("internal-error"))
            return "error", {
                "code": "internal-error",
                "message": f"{type(error).__name__}: {error}",
                "http_status": 500,
                "retry_after": None,
            }
        outcome = result.outcome
        self.traces.record(trace.finish("ok"))
        return "ok", {
            "solver": outcome.solver,
            "stable": outcome.stable,
            "metrics": dict(outcome.metrics),
            "error": outcome.error,
            "cached": result.cached,
            "coalesced": result.coalesced,
        }

    async def control(self, kind: str, *args: object) -> tuple[str, object] | None:
        """Answer one control-plane message; ``None`` for an unknown kind."""
        if kind == "stats":
            stats = dict(self.scheduler.stats())
            stats["shard"] = self.config.shard
            stats["metrics"] = self.scheduler.metrics_snapshot()
            return "stats", stats
        if kind == "spill":
            return "spilled", await asyncio.get_running_loop().run_in_executor(None, self.spill)
        if kind == "trace":
            found = self.traces.find(str(args[0]))
            return "trace", {"trace": found.to_dict() if found is not None else None}
        if kind == "traces":
            params = args[0]
            assert isinstance(params, dict)
            listed = self.traces.query(slow=bool(params["slow"]), limit=int(params["limit"]))
            return "traces", {"traces": [retained.to_dict() for retained in listed]}
        return None

    async def close(self) -> None:
        """Stop spilling, fail the backlog, drain running batches, spill once more."""
        if self._spill_task is not None:
            self._spill_task.cancel()
            await asyncio.gather(self._spill_task, return_exceptions=True)
            self._spill_task = None
        await self.scheduler.close()
        await asyncio.get_running_loop().run_in_executor(None, self.spill)


def worker_main(config: ShardWorkerConfig, conn: "Connection") -> None:
    """Run one shard worker until told to shut down (process entry point)."""
    asyncio.run(_serve_pipe(ShardCore(config), conn))


async def _serve_pipe(core: ShardCore, conn: "Connection") -> None:
    loop = asyncio.get_running_loop()
    core.load()
    core.start_spilling()
    inbox: asyncio.Queue[tuple] = asyncio.Queue()
    outbox: queue.Queue[tuple | None] = queue.Queue()
    answer_tasks: set[asyncio.Task] = set()

    sigterm_installed = False
    if threading.current_thread() is threading.main_thread():
        # A worker process dies gracefully on SIGTERM: the handler enqueues
        # the same shutdown message the front would send onto the worker's
        # *own* inbox, so the cache still spills.  Inside a thread (the
        # protocol tests) signals belong to the host process and are left
        # alone.
        try:
            loop.add_signal_handler(signal.SIGTERM, inbox.put_nowait, ("shutdown",))
            sigterm_installed = True
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-Unix
            signal.signal(
                signal.SIGTERM,
                lambda _signum, _frame: loop.call_soon_threadsafe(
                    inbox.put_nowait, ("shutdown",)
                ),
            )

    def _read_loop() -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                message = ("shutdown",)
            try:
                loop.call_soon_threadsafe(inbox.put_nowait, message)
            except RuntimeError:  # pragma: no cover - loop already closed
                return
            if message[0] == "shutdown":
                return

    def _write_loop() -> None:
        while True:
            message = outbox.get()
            if message is None:
                return
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):  # pragma: no cover - front died
                return

    shard = core.config.shard
    reader = threading.Thread(target=_read_loop, name=f"shard-{shard}-read", daemon=True)
    writer = threading.Thread(target=_write_loop, name=f"shard-{shard}-write", daemon=True)
    reader.start()
    writer.start()

    async def _answer(
        request_id: int, model: object, policy: object, deadline: float | None, trace_id: str
    ) -> None:
        # The spans are offsets from this worker's trace start; the front
        # re-bases them onto its own clock.
        trace = TraceBuilder(trace_id=trace_id)
        kind, payload = await core.submit(model, policy, deadline, trace)
        if kind == "ok":
            payload["spans"] = [span.to_dict() for span in trace.spans]
        outbox.put((request_id, kind, payload))

    outbox.put(("ready", shard))
    try:
        while True:
            message = await inbox.get()
            kind = message[0]
            if kind == "shutdown":
                break
            if kind == "solve":
                task = loop.create_task(_answer(*message[1:]))
                answer_tasks.add(task)
                task.add_done_callback(answer_tasks.discard)
                continue
            reply = await core.control(kind, *message[2:])
            # Unknown message kinds get no reply and never kill the shard.
            if reply is not None:
                outbox.put((message[1], *reply))
    finally:
        if sigterm_installed:
            loop.remove_signal_handler(signal.SIGTERM)
        if answer_tasks:
            await asyncio.gather(*tuple(answer_tasks), return_exceptions=True)
        await core.close()
        outbox.put(None)
        await loop.run_in_executor(None, writer.join)
