"""The shared solution cache, keyed by full model parameterisation + policy.

One :class:`SolutionCache` can back every call site that evaluates models —
the :func:`repro.solvers.solve` facade, :func:`repro.solvers.solve_many`
batches, :class:`~repro.sweeps.SweepRunner` instances and the optimisation
helpers — so a configuration solved anywhere is never solved again.

Process safety
--------------
The cache is *parent-owned*: worker processes never see it.  During parallel
fan-out, :func:`~repro.solvers.facade.solve_many` deduplicates pending work
by cache key before submitting tasks, workers return picklable
:class:`~repro.solvers.base.SolveOutcome` records, and the parent merges them
back into the cache.  Repeated grid points therefore cost one solve even when
the batch is spread over a :class:`~concurrent.futures.ProcessPoolExecutor`.
A :class:`threading.Lock` additionally makes the cache safe to share between
threads in the parent.

Keys
----
:func:`distribution_key` turns a period distribution into a hashable,
*value-based* stand-in.  Library distributions implement
:meth:`~repro.distributions.base.Distribution.parameter_key`, so the key is
``(type name, parameter tuple)`` — two distributions of different types, or
of the same type with different parameters, never share a key (the old
``repr``-based fallback collided for distinct parameterisations with equal
mean and SCV).  Unknown third-party distributions fall back to the instance
itself when hashable, else to a type-qualified repr fortified with the first
three moments.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from collections.abc import Mapping
from pathlib import Path
from typing import TYPE_CHECKING

from ..exceptions import CachePersistenceError
from .base import SolveOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..queueing.model import UnreliableQueueModel
    from .policy import SolverPolicy

#: A cache key: hashable tuple identifying one (model, policy) evaluation.
CacheKey = tuple


def distribution_key(distribution: object) -> object:
    """A hashable, value-based stand-in for a period distribution."""
    key_method = getattr(distribution, "parameter_key", None)
    if key_method is not None:
        try:
            return (type(distribution).__qualname__, tuple(key_method()))
        except NotImplementedError:
            pass
    try:
        hash(distribution)
    except TypeError:
        # Unhashable and without a parameter_key: a bare repr can collide for
        # distinct parameterisations (the default Distribution repr shows only
        # mean and SCV), so fortify the key with the first three moments.
        moments = tuple(distribution.moment(k) for k in (1, 2, 3))
        return (type(distribution).__qualname__, repr(distribution), moments)
    return distribution


def solution_cache_key(model: "UnreliableQueueModel", policy: "SolverPolicy") -> CacheKey:
    """The memoisation key of one evaluation: full model parameters + policy.

    Models that define ``solution_key()`` (e.g.
    :class:`~repro.scenarios.ScenarioModel`, whose parameterisation is a group
    structure rather than the homogeneous field set) provide their own
    value-based key; the homogeneous model is keyed by its five fields.
    """
    key_method = getattr(model, "solution_key", None)
    if key_method is not None:
        return (*key_method(), policy)
    return (
        model.num_servers,
        model.arrival_rate,
        model.service_rate,
        distribution_key(model.operative),
        distribution_key(model.inoperative),
        policy,
    )


#: Snapshot format version written by :meth:`SolutionCache.spill`; bumped on
#: any incompatible change to the key/outcome encoding.
SPILL_FORMAT_VERSION = 1


class _UnspillableKeyError(Exception):
    """A cache key contains a value the JSON snapshot codec cannot represent."""


def _encode_key_part(value: object) -> object:
    """One key component as a tagged, JSON-representable value.

    Cache keys are hashable trees of value types (numbers, strings, tuples,
    :class:`~repro.solvers.policy.SolverPolicy` instances); the tags make the
    round trip exact — ``["t", ...]`` decodes back to a tuple, never a list,
    so a loaded key is *equal* to the key it was spilled from.  Third-party
    objects that fall back to instance keying are unspillable: the entry is
    skipped rather than persisted under a key that could never match again.
    """
    from .policy import SolverPolicy

    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return ["f", value]
    if isinstance(value, tuple):
        return ["t", [_encode_key_part(item) for item in value]]
    if isinstance(value, SolverPolicy):
        return [
            "p",
            {
                "order": list(value.order),
                "simulate_horizon": value.simulate_horizon,
                "simulate_seed": value.simulate_seed,
                "simulate_num_batches": value.simulate_num_batches,
                "simulate_warmup_fraction": value.simulate_warmup_fraction,
                "transient_times": list(value.transient_times),
            },
        ]
    raise _UnspillableKeyError(f"cannot persist key component of type {type(value).__name__}")


def _decode_key_part(value: object) -> object:
    """The inverse of :func:`_encode_key_part` (raises on malformed input)."""
    from .policy import SolverPolicy

    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, list) and len(value) == 2 and value[0] == "f":
        return float(value[1])
    if isinstance(value, list) and len(value) == 2 and value[0] == "t":
        return tuple(_decode_key_part(item) for item in value[1])
    if isinstance(value, list) and len(value) == 2 and value[0] == "p":
        options = dict(value[1])
        options["order"] = tuple(options.get("order", ()))
        options["transient_times"] = tuple(options.get("transient_times", ()))
        return SolverPolicy(**options)
    raise _UnspillableKeyError(f"unrecognised encoded key component {value!r}")


class SolutionCache:
    """A thread-safe, optionally size-bounded memo of :class:`SolveOutcome` records.

    Parameters
    ----------
    enabled:
        A disabled cache keeps counting lookups (every one a miss) but never
        stores anything; it exists so callers can switch memoisation off
        without changing their control flow.
    maxsize:
        Upper bound on the number of memoised outcomes; the least recently
        *used* entry (lookups and stores both refresh recency) is evicted
        when the bound is exceeded, and :meth:`stats` counts the evictions.
        ``None`` (the default) keeps the cache unbounded — the historical
        behaviour — but long-running sweep workloads over large grids should
        set a bound, since every distinct configuration otherwise stays
        resident forever.
    """

    def __init__(self, *, enabled: bool = True, maxsize: int | None = None) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be None or >= 1, got {maxsize}")
        self._enabled = bool(enabled)
        self._maxsize = maxsize
        self._data: OrderedDict[CacheKey, SolveOutcome] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._solves = 0
        self._evictions = 0
        self._spills = 0
        self._spilled_entries = 0
        self._loads = 0
        self._loaded_entries = 0

    @property
    def enabled(self) -> bool:
        """Whether the cache stores outcomes at all."""
        return self._enabled

    @property
    def maxsize(self) -> int | None:
        """The eviction bound (``None`` = unbounded)."""
        return self._maxsize

    def key(self, model: "UnreliableQueueModel", policy: "SolverPolicy") -> CacheKey:
        """The cache key of one ``(model, policy)`` evaluation."""
        return solution_cache_key(model, policy)

    @staticmethod
    def _isolated(outcome: SolveOutcome) -> SolveOutcome:
        """A copy whose metrics dict is private to the receiver.

        Outcomes are handed to many independent callers; without this, one
        caller mutating ``outcome.metrics`` (e.g. annotating a result) would
        silently rewrite the cached entry for everyone else.
        """
        return outcome._replace(metrics=dict(outcome.metrics))

    def _evict_over_bound(self) -> None:
        """Drop least-recently-used entries until the bound holds (lock held)."""
        if self._maxsize is None:
            return
        while len(self._data) > self._maxsize:
            self._data.popitem(last=False)
            self._evictions += 1

    def lookup(self, key: CacheKey) -> SolveOutcome | None:
        """The cached outcome for ``key``, counting a hit or a miss."""
        with self._lock:
            outcome = self._data.get(key) if self._enabled else None
            if outcome is None:
                self._misses += 1
                return None
            self._hits += 1
            self._data.move_to_end(key)
            return self._isolated(outcome)

    def probe(self, key: CacheKey) -> SolveOutcome | None:
        """A speculative lookup that counts a hit when found, but never a miss.

        The serving scheduler probes the cache before *scheduling* work; when
        the probe misses, the very same key is looked up again (and missed
        again) by :func:`~repro.solvers.solve_many` as the batch executes.
        Counting both would double every miss and halve the reported hit
        rate, so the probe contributes only its hits and leaves the
        authoritative miss to the evaluation path.
        """
        with self._lock:
            outcome = self._data.get(key) if self._enabled else None
            if outcome is None:
                return None
            self._hits += 1
            self._data.move_to_end(key)
            return self._isolated(outcome)

    def store(self, key: CacheKey, outcome: SolveOutcome) -> None:
        """Memoise one outcome (no-op when disabled)."""
        if not self._enabled:
            return
        with self._lock:
            self._data[key] = self._isolated(outcome)
            self._data.move_to_end(key)
            self._evict_over_bound()

    def merge(self, outcomes: Mapping[CacheKey, SolveOutcome]) -> None:
        """Merge worker-computed outcomes back into the parent cache."""
        if not self._enabled:
            return
        with self._lock:
            for key, outcome in outcomes.items():
                self._data[key] = self._isolated(outcome)
                self._data.move_to_end(key)
            self._evict_over_bound()

    def record_solves(self, count: int) -> None:
        """Record that ``count`` actual solver evaluations were performed."""
        with self._lock:
            self._solves += count

    def stats(self) -> dict[str, int | float | None]:
        """Hit/miss/solve/eviction counters, current size/bound and hit rate.

        This is the payload the service's ``/stats`` endpoint and the
        ``repro cache-stats`` subcommand report verbatim, so the keys are
        part of the serving protocol: ``hits``, ``misses``, ``hit_rate``
        (``0.0`` before the first lookup), ``size``, ``maxsize`` (``None``
        = unbounded), ``solves``, ``evictions``, and the persistence
        counters ``spills``/``spilled_entries``/``loads``/``loaded_entries``.
        """
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": self._hits / lookups if lookups else 0.0,
                "size": len(self._data),
                "maxsize": self._maxsize,
                "solves": self._solves,
                "evictions": self._evictions,
                "spills": self._spills,
                "spilled_entries": self._spilled_entries,
                "loads": self._loads,
                "loaded_entries": self._loaded_entries,
            }

    # -- persistence -------------------------------------------------------

    def spill(self, path: str | Path) -> int:
        """Snapshot the memoised outcomes to ``path`` as JSON, atomically.

        The snapshot is written to a sibling temporary file first and moved
        into place with :func:`os.replace`, so a reader (or a crash mid-write)
        never observes a torn file.  Entries whose key cannot be represented
        in JSON (third-party objects without ``parameter_key()``) are skipped
        — persistence is best-effort by design.  Returns the number of
        entries written.  Counters are *not* persisted: a loaded cache starts
        its statistics fresh, recording only what this process observes.
        """
        path = Path(path)
        with self._lock:
            items = list(self._data.items())
        entries: list[dict[str, object]] = []
        for key, outcome in items:
            try:
                encoded = _encode_key_part(key)
            except _UnspillableKeyError:
                continue
            entries.append(
                {
                    "key": encoded,
                    "outcome": {
                        "solver": outcome.solver,
                        "stable": outcome.stable,
                        "metrics": dict(outcome.metrics),
                        "error": outcome.error,
                    },
                }
            )
        payload = {"version": SPILL_FORMAT_VERSION, "entries": entries}
        path.parent.mkdir(parents=True, exist_ok=True)
        temporary = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        temporary.write_text(json.dumps(payload) + "\n")
        os.replace(temporary, path)
        with self._lock:
            self._spills += 1
            self._spilled_entries += len(entries)
        return len(entries)

    def load(self, path: str | Path) -> int:
        """Merge a :meth:`spill` snapshot back in; returns the entries loaded.

        A missing file is a cold start, not an error (returns ``0``).  A
        corrupt or incompatible snapshot raises
        :class:`~repro.exceptions.CachePersistenceError` so the caller can
        decide whether to serve cold or abort.  Entries referencing solvers
        absent from this process's registry are skipped individually.
        """
        path = Path(path)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return 0
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CachePersistenceError(f"cache snapshot {path} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("version") != SPILL_FORMAT_VERSION:
            raise CachePersistenceError(
                f"cache snapshot {path} has version {payload.get('version')!r}; "
                f"this build reads version {SPILL_FORMAT_VERSION}"
            )
        entries = payload.get("entries")
        if not isinstance(entries, list):
            raise CachePersistenceError(f"cache snapshot {path} has no entry list")
        loaded: dict[CacheKey, SolveOutcome] = {}
        from ..exceptions import ParameterError

        for entry in entries:
            try:
                key = _decode_key_part(entry["key"])
                record = entry["outcome"]
                outcome = SolveOutcome(
                    solver=record["solver"],
                    stable=bool(record["stable"]),
                    metrics={str(name): value for name, value in record["metrics"].items()},
                    error=record["error"],
                )
            except (_UnspillableKeyError, ParameterError, KeyError, TypeError, AttributeError):
                # One bad entry (an unknown solver name in a policy, a
                # hand-edited file) must not poison the rest of the snapshot.
                continue
            if not isinstance(key, tuple):
                continue
            loaded[key] = outcome
        self.merge(loaded)
        with self._lock:
            self._loads += 1
            self._loaded_entries += len(loaded)
        return len(loaded)

    def clear(self) -> None:
        """Drop all memoised outcomes and reset every counter."""
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0
            self._solves = 0
            self._evictions = 0
            self._spills = 0
            self._spilled_entries = 0
            self._loads = 0
            self._loaded_entries = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._data


#: Eviction bound of the process-wide shared cache.  Far above any single
#: workload's working set, but it keeps a long-lived process that sweeps many
#: large grids from accumulating solutions without limit.
SHARED_CACHE_MAXSIZE = 10_000

#: The process-wide cache used by the facade when no cache is passed.
_SHARED_CACHE = SolutionCache(maxsize=SHARED_CACHE_MAXSIZE)


def shared_cache() -> SolutionCache:
    """The process-wide :class:`SolutionCache` shared across call sites."""
    return _SHARED_CACHE
