"""repro.service — the async solver service.

Turns the library into a long-running, multi-tenant surface: an asyncio HTTP
server (``repro serve``) that answers concurrent steady-state, scenario and
transient queries as JSON, scheduling them onto the existing
:mod:`repro.solvers` facade through a batching scheduler with single-flight
request coalescing and admission-control backpressure.

The moving parts, each in its own module:

:mod:`~repro.service.protocol`
    The JSON request/response schema around the :mod:`repro.query` validator.
:mod:`~repro.service.scheduler`
    :class:`BatchScheduler` — coalescing, batch windows, bounded queue,
    per-request deadlines.
:mod:`~repro.service.server`
    :class:`SolverService` — the one HTTP front end for every worker count:
    consistent-hash routing of solution keys onto shards, tiered load
    shedding, trace re-basing and the aggregated ``/healthz``, ``/stats``
    and ``/metrics`` — plus :class:`ServiceConfig`, :func:`run_service` and
    the thread-hosted :class:`ThreadedService`.
:mod:`~repro.service.sharding`
    The consistent-hash ring and the two shard transports: one shard on the
    front's own event loop (``workers == 1``) or one spawned worker process
    per shard, with crash recovery.
:mod:`~repro.service.worker`
    The shard core (one scheduler, cache, trace ring and snapshot per shard)
    and the worker-process entry point.
:mod:`~repro.service.client`
    :class:`ServiceClient` (sync) and :class:`AsyncServiceClient`.
:mod:`~repro.service.errors`
    The structured error vocabulary (machine-readable ``error.code``).

Example
-------

>>> from repro.service import ServiceClient, ServiceConfig, ThreadedService
>>> with ThreadedService(ServiceConfig(port=0)) as service:
...     client = ServiceClient(service.host, service.port)
...     payload = client.solve_ok(
...         {"model": {"servers": 4, "arrival_rate": 2.0}}
...     )
>>> payload["solver"]
'spectral'
"""

from .client import AsyncServiceClient, ServiceCallError, ServiceClient, ServiceResponse
from .errors import (
    BadJSONError,
    BadRequestError,
    DeadlineExceededError,
    LoadShedError,
    MethodNotAllowedError,
    NotFoundError,
    PayloadTooLargeError,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
    SolveFailedError,
    UnknownPresetError,
    UnknownSolverError,
    UnstableModelError,
    WorkerCrashedError,
)
from ..query import DEFAULT_SOLVER_ORDERS, QUERY_KINDS, SolveRequest
from .protocol import parse_body, parse_solve_request
from .scheduler import (
    DEFAULT_SHED_THRESHOLDS,
    SHED_TIER_ORDER,
    BatchScheduler,
    ScheduledResult,
    shed_decision,
)
from .server import ServiceConfig, SolverService, ThreadedService, run_service
from .sharding import ConsistentHashRing, stable_key_digest
from .worker import ShardWorkerConfig, shard_cache_path, worker_main

__all__ = [
    "AsyncServiceClient",
    "BadJSONError",
    "BadRequestError",
    "BatchScheduler",
    "ConsistentHashRing",
    "DEFAULT_SHED_THRESHOLDS",
    "DEFAULT_SOLVER_ORDERS",
    "DeadlineExceededError",
    "LoadShedError",
    "MethodNotAllowedError",
    "NotFoundError",
    "PayloadTooLargeError",
    "QUERY_KINDS",
    "QueueFullError",
    "SHED_TIER_ORDER",
    "ScheduledResult",
    "ServiceCallError",
    "ServiceClient",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceError",
    "ServiceResponse",
    "ShardWorkerConfig",
    "SolveFailedError",
    "SolveRequest",
    "SolverService",
    "ThreadedService",
    "UnknownPresetError",
    "UnknownSolverError",
    "UnstableModelError",
    "WorkerCrashedError",
    "parse_body",
    "parse_solve_request",
    "run_service",
    "shard_cache_path",
    "shed_decision",
    "stable_key_digest",
    "worker_main",
]
