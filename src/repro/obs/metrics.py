"""Process-safe metrics: counters, gauges, exact-merge latency histograms.

The design constraint is the sharded serving tier: each shard worker records
into its own registry, serialises it to a plain dict over the existing stats
pipe, and the front **sums** the per-shard payloads.  Summing is only exact
when every process uses *identical, fixed* histogram bucket bounds — so the
bounds are part of a histogram's identity (:meth:`Histogram.merge` refuses a
mismatch) and the defaults are log-spaced constants, not adaptive.

Merging is associative and commutative (bucket-wise integer sums plus a
float ``sum``), which is what makes the aggregated numbers independent of
worker count and arrival order: ``merge(a, b) == merge(b, a)``, and a
histogram merged across pickled pipe round-trips equals one recorded in a
single process.  The benchmark harness reuses :class:`Histogram` for its
percentiles, so the numbers CI gates on and the numbers the server reports
come from one implementation.

:meth:`MetricsRegistry.render` emits the Prometheus text exposition format
(``# HELP``/``# TYPE`` comments, cumulative ``_bucket{le=...}`` series,
``_sum``/``_count``) served by ``GET /metrics``.
"""

from __future__ import annotations

import bisect
import threading
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from ..exceptions import ParameterError

#: Fixed log-spaced latency bucket upper bounds, in seconds: eighth-decade
#: steps from 100 µs to 100 s.  Fine enough that an in-bucket interpolated
#: p99 is within ~±15% of the true value, coarse enough that a histogram is
#: ~50 integers on the wire.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = tuple(
    round(10.0 ** (exponent / 8.0 - 4.0), 10) for exponent in range(49)
)

_LabelItems = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, str] | None) -> _LabelItems:
    """The canonical (sorted) form of a label set, used as the series key."""
    if not labels:
        return ()
    return tuple(sorted((str(name), str(value)) for name, value in labels.items()))


def _format_value(value: float) -> str:
    """A Prometheus-friendly number: integral floats render without ``.0``."""
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.10g}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(items: _LabelItems, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [f'{name}="{_escape_label(value)}"' for name, value in (*items, *extra)]
    return "{" + ",".join(pairs) + "}" if pairs else ""


class Counter:
    """A monotonically increasing count (thread-safe)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ParameterError(f"counters only go up; got increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (thread-safe).

    Across processes gauges are *summed* by :meth:`MetricsRegistry.merge_dict`
    — every gauge in this codebase (queue depth, cache entries) is additive
    over shards, which is also what an aggregated ``/metrics`` view wants.
    """

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A fixed-bucket latency histogram with exact cross-process merge.

    ``upper_bounds`` are inclusive bucket upper bounds in ascending order; an
    implicit overflow bucket (``+Inf``) catches everything beyond the last
    bound.  Because the bounds are fixed at construction, merging two
    histograms is a bucket-wise integer sum — exact, associative and
    commutative — rather than an approximation.
    """

    __slots__ = ("_lock", "bounds", "counts", "total", "count")

    def __init__(self, upper_bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(bound) for bound in upper_bounds)
        if not bounds:
            raise ParameterError("a histogram needs at least one bucket bound")
        if any(later <= earlier for earlier, later in zip(bounds, bounds[1:])):
            raise ParameterError("histogram bucket bounds must be strictly increasing")
        self._lock = threading.Lock()
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # trailing slot = +Inf overflow
        self.total = 0.0  # sum of observed values
        self.count = 0

    # -- recording and merging --------------------------------------------

    def observe(self, value: float) -> None:
        """Record one observation (clamped into the overflow bucket if huge)."""
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.total += value
            self.count += 1

    def merge(self, other: "Histogram") -> None:
        """Add ``other``'s buckets into this histogram, exactly.

        Raises :class:`~repro.exceptions.ParameterError` on a bucket-bound
        mismatch: summing differently-bucketed histograms would silently
        corrupt percentiles, and fixed shared bounds are the whole design.
        """
        if other.bounds != self.bounds:
            raise ParameterError(
                f"cannot merge histograms with different bucket bounds "
                f"({len(other.bounds)} vs {len(self.bounds)} buckets)"
            )
        snapshot = other.snapshot()
        with self._lock:
            for index, bucket_count in enumerate(snapshot.counts):
                self.counts[index] += bucket_count
            self.total += snapshot.total
            self.count += snapshot.count

    def snapshot(self) -> "Histogram":
        """A consistent point-in-time copy (safe to read without the lock)."""
        with self._lock:
            copy = Histogram(self.bounds)
            copy.counts = list(self.counts)
            copy.total = self.total
            copy.count = self.count
            return copy

    # -- reading -----------------------------------------------------------

    def percentile(self, quantile: float) -> float:
        """The ``quantile`` (in ``[0, 1]``) estimated by in-bucket interpolation.

        The estimate interpolates linearly between a bucket's lower and upper
        bound; observations in the overflow bucket report the last finite
        bound (the histogram cannot know how far beyond it they landed).
        Exact to within one bucket's width — which the log-spaced defaults
        keep proportional to the value itself.
        """
        if not 0.0 <= quantile <= 1.0:
            raise ParameterError(f"quantile must be within [0, 1], got {quantile}")
        with self._lock:
            if self.count == 0:
                return 0.0
            target = quantile * self.count
            cumulative = 0
            for index, bucket_count in enumerate(self.counts):
                if bucket_count == 0:
                    continue
                previous = cumulative
                cumulative += bucket_count
                if cumulative >= target:
                    if index >= len(self.bounds):
                        return self.bounds[-1]
                    lower = self.bounds[index - 1] if index > 0 else 0.0
                    upper = self.bounds[index]
                    fraction = (target - previous) / bucket_count
                    return lower + (upper - lower) * min(1.0, max(0.0, fraction))
            return self.bounds[-1]  # pragma: no cover - unreachable when count > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        ours, theirs = self.snapshot(), other.snapshot()
        return (
            ours.bounds == theirs.bounds
            and ours.counts == theirs.counts
            and ours.count == theirs.count
            and abs(ours.total - theirs.total) <= 1e-9 * max(1.0, abs(ours.total))
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    # -- serialization (the pipe format) ------------------------------------

    def to_dict(self) -> dict[str, object]:
        snapshot = self.snapshot()
        return {
            "bounds": list(snapshot.bounds),
            "counts": list(snapshot.counts),
            "sum": snapshot.total,
            "count": snapshot.count,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Histogram":
        bounds = payload.get("bounds")
        counts = payload.get("counts")
        if not isinstance(bounds, list) or not isinstance(counts, list):
            raise ParameterError("histogram payload needs 'bounds' and 'counts' lists")
        histogram = cls(tuple(float(bound) for bound in bounds))
        if len(counts) != len(histogram.counts):
            raise ParameterError(
                f"histogram payload has {len(counts)} counts for "
                f"{len(histogram.counts)} buckets"
            )
        histogram.counts = [int(item) for item in counts]
        histogram.total = float(payload.get("sum", 0.0))  # type: ignore[arg-type]
        histogram.count = int(payload.get("count", 0))  # type: ignore[arg-type]
        return histogram

    # Pickle support: the lock is recreated, the data travels.  Spawned shard
    # workers send histograms through multiprocessing pipes, which pickle.

    def __getstate__(self) -> dict[str, object]:
        return self.to_dict()

    def __setstate__(self, state: dict[str, object]) -> None:
        restored = Histogram.from_dict(state)
        self._lock = threading.Lock()
        self.bounds = restored.bounds
        self.counts = restored.counts
        self.total = restored.total
        self.count = restored.count


_KINDS = ("counter", "gauge", "histogram")


@dataclass
class _Family:
    """One metric family: a name, a kind, help text and its labelled series."""

    name: str
    kind: str
    help: str
    buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    series: dict[_LabelItems, Counter | Gauge | Histogram] = field(default_factory=dict)


class MetricsRegistry:
    """A named collection of metric families, serialisable and mergeable.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    fixes the family's kind (and help text), later calls with the same name
    return the existing series for the given labels.  Asking for an existing
    name under a different kind is a programming error and raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _family(
        self, name: str, kind: str, help_text: str, buckets: tuple[float, ...]
    ) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name=name, kind=kind, help=help_text, buckets=buckets)
                self._families[name] = family
            elif family.kind != kind:
                raise ParameterError(
                    f"metric {name!r} is registered as a {family.kind}, not a {kind}"
                )
            return family

    def counter(
        self, name: str, help_text: str = "", *, labels: Mapping[str, str] | None = None
    ) -> Counter:
        family = self._family(name, "counter", help_text, ())
        key = _label_key(labels)
        with self._lock:
            series = family.series.get(key)
            if series is None:
                series = Counter()
                family.series[key] = series
            assert isinstance(series, Counter)
            return series

    def gauge(
        self, name: str, help_text: str = "", *, labels: Mapping[str, str] | None = None
    ) -> Gauge:
        family = self._family(name, "gauge", help_text, ())
        key = _label_key(labels)
        with self._lock:
            series = family.series.get(key)
            if series is None:
                series = Gauge()
                family.series[key] = series
            assert isinstance(series, Gauge)
            return series

    def histogram(
        self,
        name: str,
        help_text: str = "",
        *,
        labels: Mapping[str, str] | None = None,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        bounds = tuple(float(bound) for bound in buckets)
        family = self._family(name, "histogram", help_text, bounds)
        key = _label_key(labels)
        with self._lock:
            series = family.series.get(key)
            if series is None:
                series = Histogram(family.buckets)
                family.series[key] = series
            assert isinstance(series, Histogram)
            return series

    # -- serialization and exact merge --------------------------------------

    def to_dict(self) -> dict[str, object]:
        """A plain-dict snapshot (what shard workers put on the stats pipe)."""
        with self._lock:
            families = [
                _Family(f.name, f.kind, f.help, f.buckets, dict(f.series))
                for f in self._families.values()
            ]
        payload: dict[str, object] = {}
        for family in families:
            entries: list[dict[str, object]] = []
            for key, series in list(family.series.items()):
                data: dict[str, object]
                if isinstance(series, Histogram):
                    data = series.to_dict()
                else:
                    data = {"value": series.value}
                entries.append({"labels": dict(key), "data": data})
            payload[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "series": entries,
            }
        return payload

    def merge_dict(
        self, payload: Mapping[str, object], *, extra_labels: Mapping[str, str] | None = None
    ) -> None:
        """Sum a :meth:`to_dict` payload into this registry, exactly.

        Counters and gauges add, histograms merge bucket-wise.  Malformed
        families are skipped (a newer worker talking to an older front must
        degrade, not crash the aggregation), mirroring the pipe protocol's
        unknown-message tolerance.
        """
        for name, family_payload in payload.items():
            if not isinstance(family_payload, Mapping):
                continue
            kind = family_payload.get("kind")
            if kind not in _KINDS:
                continue
            help_text = str(family_payload.get("help", ""))
            entries = family_payload.get("series")
            if not isinstance(entries, list):
                continue
            for entry in entries:
                if not isinstance(entry, Mapping):
                    continue
                raw_labels = entry.get("labels")
                labels = dict(raw_labels) if isinstance(raw_labels, Mapping) else {}
                if extra_labels:
                    labels.update(extra_labels)
                data = entry.get("data")
                if not isinstance(data, Mapping):
                    continue
                try:
                    if kind == "histogram":
                        incoming = Histogram.from_dict(data)
                        target = self.histogram(
                            str(name), help_text, labels=labels, buckets=incoming.bounds
                        )
                        target.merge(incoming)
                    elif kind == "counter":
                        self.counter(str(name), help_text, labels=labels).inc(
                            float(data.get("value", 0.0))  # type: ignore[arg-type]
                        )
                    else:
                        self.gauge(str(name), help_text, labels=labels).inc(
                            float(data.get("value", 0.0))  # type: ignore[arg-type]
                        )
                except (ParameterError, TypeError, ValueError):
                    continue

    # -- Prometheus text exposition ------------------------------------------

    def render(self) -> str:
        """The registry in Prometheus text exposition format (version 0.0.4)."""
        with self._lock:
            families = sorted(
                (
                    _Family(f.name, f.kind, f.help, f.buckets, dict(f.series))
                    for f in self._families.values()
                ),
                key=lambda family: family.name,
            )
        lines: list[str] = []
        for family in families:
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key in sorted(family.series):
                series = family.series[key]
                if isinstance(series, Histogram):
                    snapshot = series.snapshot()
                    cumulative = 0
                    for bound, bucket_count in zip(snapshot.bounds, snapshot.counts):
                        cumulative += bucket_count
                        labels = _render_labels(key, (("le", _format_value(bound)),))
                        lines.append(f"{family.name}_bucket{labels} {cumulative}")
                    cumulative += snapshot.counts[-1]
                    labels = _render_labels(key, (("le", "+Inf"),))
                    lines.append(f"{family.name}_bucket{labels} {cumulative}")
                    lines.append(
                        f"{family.name}_sum{_render_labels(key)} "
                        f"{_format_value(snapshot.total)}"
                    )
                    lines.append(f"{family.name}_count{_render_labels(key)} {snapshot.count}")
                else:
                    lines.append(
                        f"{family.name}{_render_labels(key)} {_format_value(series.value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""


#: The process-global registry for numerical-health metrics.  The solver
#: facade and the Markov kernels record here (IAD sweeps, residuals,
#: truncation growth, fallback attempts) without any service plumbing; the
#: scheduler folds this registry into its metrics snapshot, so the numbers
#: ride the existing stats pipe from shard workers and surface on
#: ``/metrics`` in both serving tiers.
_NUMERICS_REGISTRY = MetricsRegistry()

#: Bucket bounds for iteration-count histograms (IAD sweeps, logarithmic-
#: reduction steps): small integer counts up to the kernel's
#: ``MAX_IAD_SWEEPS`` cap.
SWEEP_COUNT_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0,
)

#: Bucket bounds for residual histograms: log-spaced from convergence-level
#: (1e-16) up to hopeless (1.0).
RESIDUAL_BUCKETS: tuple[float, ...] = tuple(10.0**exponent for exponent in range(-16, 1))


def numerics_registry() -> MetricsRegistry:
    """The process-global numerical-health :class:`MetricsRegistry`."""
    return _NUMERICS_REGISTRY
