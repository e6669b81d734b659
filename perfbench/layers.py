"""Per-layer measurement from outside the program.

Two sources, both driven from the benchmark's own files:

* :class:`Recorder` wraps public functions of the program's layers and
  times every call.  :func:`instrumented` rebinds each wrapped function in
  every ``repro`` module that imported it, and restores the originals on
  exit; nothing inside ``src/`` changes.
* :func:`counter_total` and :func:`histogram_quantile` read the program's
  own Prometheus exposition (the service's ``/metrics`` or the in-process
  numerical-health registry) as deltas between two snapshots.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections.abc import Callable, Iterator

from common import median, percentile

#: Parsed exposition: metric name -> {sorted label pairs -> value}.
Exposition = dict[str, dict[tuple, float]]


class Recorder:
    """Call durations (seconds) of instrumented functions, by label."""

    def __init__(self) -> None:
        self.calls: dict[str, list[float]] = {}

    def add(self, label: str, seconds: float) -> None:
        self.calls.setdefault(label, []).append(seconds)

    def count(self, label: str) -> int:
        return len(self.calls.get(label, ()))

    def timed(self, label: str, func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args: object, **kwargs: object) -> object:
            started = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.add(label, time.perf_counter() - started)

        return wrapper

    def spectral_solve(self, func: Callable) -> Callable:
        """Wrap ``solve_spectral``: the boundary stage is its own time minus
        the matrix construction and eigen-solve it made."""

        @functools.wraps(func)
        def wrapper(*args: object, **kwargs: object) -> object:
            before = {label: self.count(label) for label in ("spectral.matrices", "spectral.eigen")}
            started = time.perf_counter()
            result = func(*args, **kwargs)
            elapsed = time.perf_counter() - started
            inner = sum(
                sum(self.calls.get(label, [])[count:]) for label, count in before.items()
            )
            self.add("spectral.boundary", elapsed - inner)
            return result

        return wrapper

    def matrices_class(self, cls: type) -> type:
        """A subclass of ``ModulatedQueueMatrices`` whose construction
        includes the (cached) ``q0``/``q1``/``q2`` blocks the solver reads next."""
        recorder = self

        class TimedMatrices(cls):  # type: ignore[misc, valid-type]
            def __init__(self, *args: object, **kwargs: object) -> None:
                started = time.perf_counter()
                super().__init__(*args, **kwargs)
                self.q0, self.q1, self.q2  # noqa: B018 - built here, reused by the solver
                recorder.add("spectral.matrices", time.perf_counter() - started)

        TimedMatrices.__name__ = TimedMatrices.__qualname__ = cls.__name__
        return TimedMatrices


def _rebind(original: object, replacement: object) -> list[tuple[object, str]]:
    """Point every ``repro`` module global bound to ``original`` at
    ``replacement``; returns what to undo."""
    patched: list[tuple[object, str]] = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                patched.append((module, attribute))
    return patched


#: The instrumented layer functions: (label, module, attribute).
TARGETS = (
    ("spectral.eigen", "repro.spectral.eigen", "eigenvalues_inside_unit_disk"),
    ("spectral.solve", "repro.spectral.solution", "solve_spectral"),
    ("spectral.matrices", "repro.spectral.qbd", "ModulatedQueueMatrices"),
    ("geometric.solve", "repro.spectral.approximation", "solve_geometric"),
    ("kernels.assemble", "repro.markov.kernels", "assemble_level_mode_generator"),
    ("kernels.steady_state", "repro.markov.kernels", "steady_state_csr"),
    ("transient.uniformization", "repro.transient.uniformization", "transient_distributions"),
    ("facade.pool_spawn", "repro.solvers.facade", "ProcessPoolExecutor"),
)


@contextlib.contextmanager
def instrumented(recorder: Recorder) -> Iterator[Recorder]:
    """Install timing wrappers on every layer in :data:`TARGETS`."""
    undo: list[tuple[object, str, object]] = []
    try:
        for label, module_name, attribute in TARGETS:
            original = getattr(importlib.import_module(module_name), attribute)
            if label == "spectral.matrices":
                replacement = recorder.matrices_class(original)
            elif label == "spectral.solve":
                replacement = recorder.spectral_solve(original)
            elif label == "facade.pool_spawn":
                replacement = _counting_pool(recorder, original)
            else:
                replacement = recorder.timed(label, original)
            undo.extend((module, name, original) for module, name in _rebind(original, replacement))
        yield recorder
    finally:
        for module, name, original in reversed(undo):
            setattr(module, name, original)


def _counting_pool(recorder: Recorder, cls: type) -> type:
    class CountingPool(cls):  # type: ignore[misc, valid-type]
        def __init__(self, *args: object, **kwargs: object) -> None:
            recorder.add("facade.pool_spawn", 0.0)
            super().__init__(*args, **kwargs)

    return CountingPool


def per_call_ms(recorder: Recorder, label: str, quantile: float = 0.5) -> float:
    """A quantile of one label's call durations, in ms (0 if never called)."""
    calls = recorder.calls.get(label)
    return percentile(calls, quantile) * 1e3 if calls else 0.0


def replay_us(func: Callable, arguments: list, weights: list[int] | None = None) -> float:
    """Mean per-call microseconds of ``func`` over ``arguments``: each
    argument is timed three times (its median counts), weighted by how often
    the workload sent it."""
    if not arguments:
        return 0.0
    weights = weights if weights is not None else [1] * len(arguments)
    total = 0.0
    for argument, weight in zip(arguments, weights):
        timings = []
        for _ in range(3):
            started = time.perf_counter()
            func(argument)
            timings.append(time.perf_counter() - started)
        total += weight * median(timings)
    return total / sum(weights) * 1e6


# -- Prometheus exposition deltas ----------------------------------------------------


def parse(text: str) -> Exposition:
    from repro.obs import parse_prometheus_text

    return parse_prometheus_text(text)


def counter_total(before: Exposition, after: Exposition, name: str, **match: str) -> float:
    """The increase of a counter summed over the series whose labels
    include ``match``."""

    def total(snapshot: Exposition) -> float:
        return sum(
            value
            for labels, value in snapshot.get(name, {}).items()
            if all((key, wanted) in labels for key, wanted in match.items())
        )

    return total(after) - total(before)


def per_label(before: Exposition, after: Exposition, name: str, label: str) -> dict[str, float]:
    """A counter's increase per value of one label (e.g. per shard)."""
    deltas: dict[str, float] = {}
    for snapshot, sign in ((after, 1.0), (before, -1.0)):
        for labels, value in snapshot.get(name, {}).items():
            key = dict(labels).get(label)
            if key is not None:
                deltas[key] = deltas.get(key, 0.0) + sign * value
    return deltas


def histogram_quantile(before: Exposition, after: Exposition, name: str, quantile: float) -> float:
    """A quantile (seconds) of a histogram's new observations between two
    snapshots, pooled over shards by the dashboard's own interpolation."""
    from repro.obs.dashboard import histogram_quantile as pooled_quantile

    family = f"{name}_bucket"
    earlier = before.get(family, {})
    delta = {
        labels: value - earlier.get(labels, 0.0) for labels, value in after.get(family, {}).items()
    }
    return pooled_quantile({family: delta}, name, quantile)
