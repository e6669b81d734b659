"""Consistent-hash sharding: the ring and the two shard transports.

The front (:class:`~repro.service.server.SolverService`) routes every request
by consistent-hashing its solution key
(:func:`~repro.solvers.cache.solution_cache_key`) onto the ring, so a given
``(model, policy)`` always lands on the same shard — which is what keeps the
per-shard :class:`~repro.solvers.SolutionCache` hot and per-shard
single-flight coalescing exact: 100 identical concurrent requests arriving on
100 connections still cost one solve, because they all route to one shard.

:class:`ConsistentHashRing`
    ``replicas`` virtual nodes per shard on a 64-bit ring built from
    :func:`stable_key_digest` — deterministic across processes and runs
    (``hash()`` is salted per process and would scatter a key's shard
    assignment across restarts).

:class:`LocalShard`
    The one shard of a ``workers == 1`` service: a
    :class:`~repro.service.worker.ShardCore` called directly on the front's
    event loop — no process, no pipe, no pickling.

:class:`ProcessShard`
    One spawned worker process per shard (see :mod:`.worker`), a pipe to it,
    a sender thread draining an outbox queue and a reader thread delivering
    answers back onto the event loop.  Worker processes are spawned and
    joined in *sync* helpers invoked off-loop — creating multiprocessing
    primitives on the event loop blocks it for the whole fork/exec handshake
    (lint rule RPR009).

Both transports hand the front the same replies, so admission, tracing and
the observability endpoints never know which one they talk to.

Crash recovery (process shards)
    A worker EOF (crash, kill, OOM) fails that shard's in-flight requests
    with the retryable ``worker-crashed`` error, then respawns the worker
    under the same shard id — the ring never changes, so "rehash" is the
    identity and no other shard's keys move.  A periodic health check backs
    up the EOF signal.  A worker that dies before its first ready handshake
    is broken, not crashed: it is not respawned, and the front's ``start()``
    fails at once.
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

from ..obs import Span, TraceBuilder
from .errors import ServiceClosedError, ServiceError, WorkerCrashedError
from .worker import ShardCore, ShardWorkerConfig, worker_main

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

__all__ = [
    "ConsistentHashRing",
    "LocalShard",
    "ProcessShard",
    "stable_key_digest",
]

#: Seconds between liveness checks of a worker process.
_HEALTH_INTERVAL = 1.0

#: Seconds a crashed worker's waiters are told to back off before retrying.
RESTART_RETRY_AFTER = 0.5


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
        if self.shards == 1:
            return 0
        index = bisect.bisect_right(self._positions, stable_key_digest(key))
        if index == len(self._positions):
            index = 0
        return self._owners[index]


class _ShardError(ServiceError):
    """A structured failure reported by a shard core, relayed verbatim.

    The core serialises the original :class:`ServiceError`'s stable fields
    (code, message, status, retry hint); this shim carries them to the HTTP
    layer, whichever transport delivered them.  ``code``/``http_status`` are
    instance attributes on purpose: they mirror whatever the core pinned,
    they are not a new code.
    """

    def __init__(self, fields: dict) -> None:
        super().__init__(fields["message"], retry_after=fields["retry_after"])
        self.code = fields["code"]
        self.http_status = fields["http_status"]


class _Shard:
    """Front-side state of one shard, whatever transport carries its messages.

    ``inflight`` counts the front's ``/solve`` requests awaiting this shard —
    the load admission and ``/healthz`` see; control-plane queries never
    count, so observability polling cannot push real traffic over a shed
    threshold.
    """

    def __init__(self, config: ShardWorkerConfig) -> None:
        self.config = config
        self.shard = config.shard
        self.state = "starting"
        self.restarts = 0
        self.routed_total = 0
        self.inflight = 0

    async def start(self) -> None:
        """Bring the shard up without waiting for it to become ready."""
        raise NotImplementedError

    async def wait_ready(self) -> None:
        """Return once the shard can take requests; raise if it never will."""

    async def submit(
        self, model: object, policy: object, deadline: float | None, trace: TraceBuilder
    ) -> dict:
        """The core's ``ok`` result, its spans added to ``trace`` on the
        front's clock; a :class:`ServiceError` otherwise."""
        raise NotImplementedError

    async def query(self, kind: str, *args: object) -> dict | None:
        """A control-plane answer (``stats``/``spill``/``trace``/``traces``);
        ``None`` when the shard is unavailable."""
        raise NotImplementedError

    async def stop(self) -> None:
        """Drain and spill the shard; fail whatever it cannot answer."""
        raise NotImplementedError


def _reply_dict(payload: object) -> dict:
    return dict(payload) if isinstance(payload, dict) else {"value": payload}


class LocalShard(_Shard):
    """A shard core on the front's own event loop (the ``workers == 1`` shard)."""

    def __init__(self, config: ShardWorkerConfig) -> None:
        super().__init__(config)
        self.core = ShardCore(config)

    async def start(self) -> None:
        await asyncio.get_running_loop().run_in_executor(None, self.core.load)
        self.core.start_spilling()
        self.state = "ready"

    async def submit(
        self, model: object, policy: object, deadline: float | None, trace: TraceBuilder
    ) -> dict:
        kind, payload = await self.core.submit(model, policy, deadline, trace)
        if kind == "error":
            raise _ShardError(payload)
        return payload

    async def query(self, kind: str, *args: object) -> dict | None:
        reply = await self.core.control(kind, *args)
        return None if reply is None else _reply_dict(reply[1])

    async def stop(self) -> None:
        if self.state == "ready":
            await self.core.close()
        self.state = "stopped"


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


class ProcessShard(_Shard):
    """A shard core in its own spawned worker process, behind a pipe."""

    def __init__(self, config: ShardWorkerConfig) -> None:
        super().__init__(config)
        self.process: multiprocessing.process.BaseProcess | None = None
        self.send_queue: queue.Queue[tuple | None] | None = None
        self.generation = 0
        #: Futures of every request awaiting this worker, solve and control.
        self.waiters: dict[int, asyncio.Future] = {}
        self._request_ids = itertools.count(1)
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Resolves ``True`` at the first ready handshake, ``False`` when the
        #: first worker dies before it.
        self._first_ready: asyncio.Future[bool] | None = None
        self._health_task: asyncio.Task | None = None
        self._respawn_tasks: set[asyncio.Task] = set()
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._first_ready = self._loop.create_future()
        await self._loop.run_in_executor(None, self._spawn)

    async def wait_ready(self) -> None:
        assert self._loop is not None and self._first_ready is not None
        if await self._first_ready:
            self._health_task = self._loop.create_task(self._health_loop())
            return
        process = self.process
        assert process is not None
        await self._loop.run_in_executor(None, process.join, 5.0)
        raise RuntimeError(
            f"the worker process of shard {self.shard} exited with code "
            f"{process.exitcode} before its ready handshake"
        )

    async def stop(self) -> None:
        self._stopping = True
        tasks = [*self._respawn_tasks, *filter(None, [self._health_task])]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._health_task = None
        if self._first_ready is not None and not self._first_ready.done():
            self._first_ready.cancel()
        if self._loop is not None:
            await self._loop.run_in_executor(None, self._shutdown)
        self._fail_waiters(ServiceClosedError("the service shut down before answering"))

    # -- process management (sync; always invoked off-loop) ----------------

    def _spawn(self) -> None:
        """Spawn (or respawn) the worker and its pipe-bridging threads.

        Spawn, not fork: the front runs an event loop and threads, which fork
        would duplicate into a corrupt child.  The child connection is closed
        on the parent side so a worker death surfaces as EOF on the reader.
        """
        previous = self.process
        if previous is not None:
            # Reap the dead generation before replacing it: nobody else joins
            # a crashed worker, and unreaped children pile up as zombies for
            # the life of the front.
            previous.join(timeout=5.0)
        context = multiprocessing.get_context("spawn")
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=worker_main,
            args=(self.config, child_conn),
            name=f"repro-shard-{self.shard}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.generation += 1
        self.process = process
        self.send_queue = queue.Queue()
        self.state = "starting"
        threading.Thread(
            target=_send_loop,
            args=(parent_conn, self.send_queue),
            name=f"shard-{self.shard}-send",
            daemon=True,
        ).start()
        threading.Thread(
            target=self._read_loop,
            args=(parent_conn, self.generation),
            name=f"shard-{self.shard}-recv",
            daemon=True,
        ).start()

    def _shutdown(self) -> None:
        process = self.process
        if process is None or self.send_queue is None:
            return
        self.send_queue.put(("shutdown",))
        process.join(timeout=15.0)
        if process.is_alive():  # pragma: no cover - wedged worker
            process.terminate()
            process.join(timeout=5.0)
        self.state = "stopped"
        self.send_queue.put(None)

    def _read_loop(self, conn: "Connection", generation: int) -> None:
        """Reader thread: deliver the worker's answers onto the event loop."""
        loop = self._loop
        assert loop is not None
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            try:
                loop.call_soon_threadsafe(self._on_message, generation, message)
            except RuntimeError:  # pragma: no cover - loop already closed
                return
        try:
            loop.call_soon_threadsafe(self._on_down, generation)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    # -- loop-side worker events -------------------------------------------

    def _on_message(self, generation: int, message: tuple) -> None:
        if generation != self.generation:
            return  # a stale reader thread from before a respawn
        if message[0] == "ready":
            self.state = "ready"
            if self._first_ready is not None and not self._first_ready.done():
                self._first_ready.set_result(True)
            return
        request_id, kind, payload = message
        future = self.waiters.pop(request_id, None)
        if future is None or future.done():
            return
        if kind == "error":
            future.set_exception(_ShardError(payload))
        else:
            future.set_result(payload)

    def _on_down(self, generation: int) -> None:
        if generation != self.generation or self._stopping:
            return
        # Retire the dead generation here, on the loop: the health check and
        # the reader thread's EOF can both report the same death, and the
        # _spawn bump happens later in an executor — too late to stop the
        # second report from scheduling a second respawn.
        self.generation += 1
        if self._first_ready is not None and not self._first_ready.done():
            # Never ready: respawning would only repeat the failure.
            self.state = "failed"
            self._first_ready.set_result(False)
            return
        self.state = "dead"
        self.restarts += 1
        self._fail_waiters(
            WorkerCrashedError(
                f"the worker process of shard {self.shard} died mid-request and is "
                "being restarted; the request is safe to retry",
                shard=self.shard,
                retry_after=RESTART_RETRY_AFTER,
            )
        )
        if self._loop is not None:
            task = self._loop.create_task(self._respawn())
            self._respawn_tasks.add(task)
            task.add_done_callback(self._respawn_tasks.discard)

    def _fail_waiters(self, error: ServiceError) -> None:
        waiters = list(self.waiters.values())
        self.waiters.clear()
        for future in waiters:
            if not future.done():
                future.set_exception(error)
                # Mark retrieved: a waiter that already gave up would
                # otherwise trigger "exception was never retrieved" noise.
                future.exception()

    async def _respawn(self) -> None:
        """Restart a crashed worker under its original shard id.

        The ring is a function of the shard *count*, which never changes, so
        the replacement worker owns exactly the key range its predecessor did
        — restart-and-rehash is the identity rehash, and no other shard's
        cache locality is disturbed.  The replacement reloads the shard's
        cache snapshot on startup when ``cache_dir`` is set.
        """
        if self._loop is None or self._stopping:
            return
        await self._loop.run_in_executor(None, self._spawn)

    async def _health_loop(self) -> None:
        """Back up the pipe-EOF crash signal with a periodic liveness check."""
        while True:
            await asyncio.sleep(_HEALTH_INTERVAL)
            process = self.process
            if self.state == "ready" and process is not None and not process.is_alive():
                self._on_down(self.generation)

    # -- requests ------------------------------------------------------------

    def _send(self, kind: str, *args: object) -> tuple[int, asyncio.Future]:
        if self.send_queue is None or self._loop is None:  # pragma: no cover - defensive
            raise ServiceClosedError("the shard worker is not running")
        request_id = next(self._request_ids)
        future = self._loop.create_future()
        self.waiters[request_id] = future
        self.send_queue.put((kind, request_id, *args))
        return request_id, future

    async def submit(
        self, model: object, policy: object, deadline: float | None, trace: TraceBuilder
    ) -> dict:
        sent_at = time.perf_counter()
        _, future = self._send("solve", model, policy, deadline, trace.trace_id)
        result = await future
        # The worker's spans are offsets from *its* trace start; perf_counter
        # is not comparable across processes, so re-base them by the send
        # instant — exact durations, offsets off by one pipe hop.
        shift_ms = trace.offset_ms(sent_at)
        for span_payload in result.pop("spans"):
            trace.add_span(Span.from_dict(span_payload), shift_ms=shift_ms)
        return result

    async def query(self, kind: str, *args: object, timeout: float = 5.0) -> dict | None:
        if self.state != "ready":
            return None
        request_id, future = self._send(kind, *args)
        try:
            payload = await asyncio.wait_for(asyncio.shield(future), timeout)
        except (TimeoutError, ServiceError):
            self.waiters.pop(request_id, None)
            return None
        return _reply_dict(payload)
