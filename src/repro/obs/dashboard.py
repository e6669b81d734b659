"""The ``repro top`` dashboard: parse ``/metrics`` + ``/stats``, render a table.

Three cleanly separated layers so the interesting parts are unit-testable
without a terminal or a server:

:func:`parse_prometheus_text`
    A tolerant parser for the Prometheus 0.0.4 text exposition the service
    emits — every sample line becomes ``name → {label-set → value}``, with
    histogram ``_bucket`` series kept cumulative exactly as rendered, so
    :func:`histogram_quantile` can re-interpolate p50/p99 the same way
    :meth:`repro.obs.metrics.Histogram.percentile` computed them.

:class:`DashboardSnapshot` / :func:`summarize` / :func:`render_dashboard`
    A snapshot pairs one scrape of ``/metrics`` with one ``/stats`` payload
    and a caller-supplied monotonic stamp; ``summarize`` reduces one or two
    snapshots (rates need a predecessor) to a JSON-safe summary — per-shard
    RPS, p50/p99, queue depth, cache hit rate, shed tiers, SLO budget — and
    ``render_dashboard`` turns that summary into fixed-width lines.

:func:`run_dashboard`
    The live loop: stdlib ``curses`` (imported lazily so headless use never
    touches the terminal), redrawing every ``interval`` seconds until ``q``.

This module never prints and never reads the wall clock for durations; the
CLI owns I/O and supplies ``time.monotonic()`` stamps (lint rules RPR010,
RPR011).
"""

from __future__ import annotations

import math
import re
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    import curses

#: One parsed label set, sorted for canonical comparison.
LabelKey = tuple[tuple[str, str], ...]

#: ``name{labels} value`` — the only sample shape the service renders.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)

_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(text: str) -> dict[str, dict[LabelKey, float]]:
    """Parse a text exposition body into ``name → {label-set → value}``.

    Comment/``HELP``/``TYPE`` lines are skipped; unparseable sample lines are
    ignored rather than fatal (the dashboard must degrade when scraping a
    newer or older service).  Label values keep Prometheus escaping undone
    for the simple escapes the service emits.
    """
    parsed: dict[str, dict[LabelKey, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            continue
        try:
            value = float(match.group("value"))
        except ValueError:
            continue
        labels_text = match.group("labels") or ""
        labels = tuple(
            sorted(
                (name, raw.replace('\\"', '"').replace("\\\\", "\\").replace("\\n", "\n"))
                for name, raw in _LABEL_RE.findall(labels_text)
            )
        )
        parsed.setdefault(match.group("name"), {})[labels] = value
    return parsed


def metric_value(
    parsed: Mapping[str, Mapping[LabelKey, float]],
    name: str,
    match: Mapping[str, str] | None = None,
    default: float = 0.0,
) -> float:
    """The sum of a family's series whose labels are a superset of ``match``.

    With no ``match`` the whole family sums — the natural reading for
    counters split per shard.  ``default`` is returned when nothing matches
    (absent family or label set).
    """
    series = parsed.get(name)
    if not series:
        return default
    total = 0.0
    matched = False
    for key, value in series.items():
        labels = dict(key)
        if match is not None and any(labels.get(k) != v for k, v in match.items()):
            continue
        total += value
        matched = True
    return total if matched else default


def histogram_quantile(
    parsed: Mapping[str, Mapping[LabelKey, float]],
    name: str,
    quantile: float,
    match: Mapping[str, str] | None = None,
) -> float:
    """Re-interpolate a quantile from a family's cumulative ``_bucket`` lines.

    Matching label sets (e.g. all shards) are summed bucket-wise before
    interpolating, which is exactly the registry's exact-merge algebra — the
    pooled quantile equals what a single process would have reported.
    Returns ``0.0`` when the histogram is absent or empty.
    """
    series = parsed.get(f"{name}_bucket")
    if not series:
        return 0.0
    cumulative: dict[float, float] = {}
    for key, value in series.items():
        labels = dict(key)
        le_text = labels.pop("le", None)
        if le_text is None:
            continue
        if match is not None and any(labels.get(k) != v for k, v in match.items()):
            continue
        bound = math.inf if le_text == "+Inf" else float(le_text)
        cumulative[bound] = cumulative.get(bound, 0.0) + value
    if not cumulative:
        return 0.0
    bounds = sorted(cumulative)
    total = cumulative[bounds[-1]]
    if total <= 0:
        return 0.0
    target = quantile * total
    previous_cum = 0.0
    previous_bound = 0.0
    last_finite = max((b for b in bounds if math.isfinite(b)), default=0.0)
    for bound in bounds:
        bucket_cum = cumulative[bound]
        if bucket_cum >= target and bucket_cum > previous_cum:
            if not math.isfinite(bound):
                return last_finite
            fraction = (target - previous_cum) / (bucket_cum - previous_cum)
            return previous_bound + (bound - previous_bound) * min(1.0, max(0.0, fraction))
        previous_cum = max(previous_cum, bucket_cum)
        if math.isfinite(bound):
            previous_bound = bound
    return last_finite


@dataclass(frozen=True)
class DashboardSnapshot:
    """One poll of the service: parsed ``/metrics``, raw ``/stats``, a stamp.

    ``at`` is a ``time.monotonic()`` instant supplied by the poller — rates
    between two snapshots divide counter deltas by the stamp difference.
    """

    at: float
    metrics: dict[str, dict[LabelKey, float]]
    stats: dict[str, object]

    @classmethod
    def from_payloads(
        cls, metrics_text: str, stats: Mapping[str, object], *, at: float
    ) -> "DashboardSnapshot":
        return cls(at=float(at), metrics=parse_prometheus_text(metrics_text), stats=dict(stats))


def _label_values(
    parsed: Mapping[str, Mapping[LabelKey, float]], name: str, label: str
) -> list[str]:
    values = {
        value
        for key in parsed.get(name, {})
        for key_name, value in key
        if key_name == label
    }
    return sorted(values, key=lambda text: (len(text), text))


def _grouped(
    parsed: Mapping[str, Mapping[LabelKey, float]], name: str, label: str
) -> dict[str, float]:
    grouped: dict[str, float] = {}
    for key, value in parsed.get(name, {}).items():
        labels = dict(key)
        group = labels.get(label)
        if group is not None:
            grouped[group] = grouped.get(group, 0.0) + value
    return grouped


def summarize(
    current: DashboardSnapshot, previous: DashboardSnapshot | None = None
) -> dict[str, object]:
    """Reduce one or two snapshots to the JSON-safe dashboard summary.

    Rates (``rps`` fields) need a predecessor snapshot and are ``None``
    without one — the ``--once`` mode reports absolute counters only.
    """
    metrics = current.metrics
    elapsed = None
    if previous is not None and current.at > previous.at:
        elapsed = current.at - previous.at

    def rate(name: str, match: Mapping[str, str] | None = None) -> float | None:
        if previous is None or elapsed is None:
            return None
        delta = metric_value(metrics, name, match) - metric_value(
            previous.metrics, name, match
        )
        return round(max(0.0, delta) / elapsed, 3)

    shard_states: dict[str, str] = {}
    shards_stats = current.stats.get("shards")
    if isinstance(shards_stats, list):
        for entry in shards_stats:
            if isinstance(entry, dict):
                shard_states[str(entry.get("shard"))] = str(entry.get("state", "?"))

    shards: list[dict[str, object]] = []
    for shard in _label_values(metrics, "repro_requests_total", "shard"):
        match = {"shard": shard}
        hits = metric_value(metrics, "repro_cache_lookup_hits_total", match)
        misses = metric_value(metrics, "repro_cache_lookup_misses_total", match)
        lookups = hits + misses
        shards.append(
            {
                "shard": int(shard),
                "state": shard_states.get(shard, "?"),
                "requests_total": metric_value(metrics, "repro_requests_total", match),
                "rps": rate("repro_requests_total", match),
                "p50_ms": round(
                    histogram_quantile(metrics, "repro_solve_latency_seconds", 0.5, match)
                    * 1e3,
                    3,
                ),
                "p99_ms": round(
                    histogram_quantile(metrics, "repro_solve_latency_seconds", 0.99, match)
                    * 1e3,
                    3,
                ),
                "queue_depth": metric_value(metrics, "repro_queue_depth", match),
                "cache_hit_rate": round(hits / lookups, 4) if lookups else 0.0,
                "cache_entries": metric_value(metrics, "repro_cache_entries", match),
                "restarts": metric_value(metrics, "repro_worker_restarts_total", match),
            }
        )

    return {
        "uptime_seconds": round(metric_value(metrics, "repro_uptime_seconds"), 3),
        "responses_total": metric_value(metrics, "repro_http_responses_total"),
        "errors_total": metric_value(metrics, "repro_http_errors_total"),
        "rps": rate("repro_http_responses_total"),
        "workers_ready": metric_value(metrics, "repro_workers_ready"),
        "p50_ms": round(
            histogram_quantile(metrics, "repro_solve_latency_seconds", 0.5) * 1e3, 3
        ),
        "p99_ms": round(
            histogram_quantile(metrics, "repro_solve_latency_seconds", 0.99) * 1e3, 3
        ),
        "shed_total": metric_value(metrics, "repro_shed_total"),
        "shed_by_tier": _grouped(metrics, "repro_shed_by_tier_total", "tier"),
        "slo": {
            "pressure": metric_value(metrics, "repro_slo_pressure"),
            "queue_wait_p99_seconds": metric_value(
                metrics, "repro_slo_queue_wait_p99_seconds"
            ),
            "queue_wait_target_seconds": metric_value(
                metrics, "repro_slo_queue_wait_target_seconds"
            ),
            "solve_latency_p99_seconds": metric_value(
                metrics, "repro_slo_solve_latency_p99_seconds"
            ),
            "solve_latency_target_seconds": metric_value(
                metrics, "repro_slo_solve_latency_target_seconds"
            ),
            "error_budget": _grouped(metrics, "repro_slo_error_budget_total", "slo"),
        },
        "traces_recorded_total": metric_value(metrics, "repro_traces_recorded_total"),
        "traces_slow_total": metric_value(metrics, "repro_traces_slow_total"),
        "shards": shards,
    }


def _fmt_rate(value: object) -> str:
    return f"{value:8.1f}" if isinstance(value, (int, float)) else f"{'-':>8}"


def render_dashboard(
    current: DashboardSnapshot, previous: DashboardSnapshot | None = None
) -> list[str]:
    """The fixed-width dashboard lines for one (pair of) snapshot(s)."""
    summary = summarize(current, previous)
    slo = summary["slo"]
    assert isinstance(slo, dict)
    shed_by_tier = summary["shed_by_tier"]
    assert isinstance(shed_by_tier, dict)
    budget = slo["error_budget"]
    assert isinstance(budget, dict)
    lines = [
        (
            "repro top — "
            f"up {summary['uptime_seconds']:.0f}s · "
            f"{int(float(str(summary['workers_ready'])))} worker(s) ready · "
            f"{summary['responses_total']:.0f} responses "
            f"({_fmt_rate(summary['rps']).strip()} rps) · "
            f"p50 {summary['p50_ms']:.1f}ms · p99 {summary['p99_ms']:.1f}ms"
        ),
        (
            "slo      — "
            f"pressure {slo['pressure']:.2f} · "
            f"queue-wait p99 {slo['queue_wait_p99_seconds']:.3f}s"
            f"/{slo['queue_wait_target_seconds']:g}s · "
            f"solve p99 {slo['solve_latency_p99_seconds']:.3f}s"
            f"/{slo['solve_latency_target_seconds']:g}s · "
            "budget burned "
            + (
                ", ".join(f"{name} {count:.0f}" for name, count in sorted(budget.items()))
                or "none"
            )
        ),
        (
            "shedding — "
            f"total {summary['shed_total']:.0f}"
            + (
                " ("
                + ", ".join(
                    f"{tier} {count:.0f}" for tier, count in sorted(shed_by_tier.items())
                )
                + ")"
                if shed_by_tier
                else ""
            )
            + f" · traces {summary['traces_recorded_total']:.0f} recorded, "
            f"{summary['traces_slow_total']:.0f} slow"
        ),
        "",
        f"{'shard':>5}  {'state':<8}  {'requests':>9}  {'rps':>8}  "
        f"{'p50 ms':>8}  {'p99 ms':>8}  {'queue':>5}  {'hit%':>6}  {'restarts':>8}",
    ]
    shards = summary["shards"]
    assert isinstance(shards, list)
    for shard in shards:
        assert isinstance(shard, dict)
        hit_rate = shard["cache_hit_rate"]
        assert isinstance(hit_rate, float)
        lines.append(
            f"{shard['shard']:>5}  {str(shard['state']):<8}  "
            f"{shard['requests_total']:>9.0f}  {_fmt_rate(shard['rps'])}  "
            f"{shard['p50_ms']:>8.1f}  {shard['p99_ms']:>8.1f}  "
            f"{shard['queue_depth']:>5.0f}  {hit_rate * 100:>6.1f}  "
            f"{shard['restarts']:>8.0f}"
        )
    if not shards:
        lines.append("  (no per-shard series yet — has the service answered a request?)")
    return lines


def run_dashboard(
    fetch: Callable[[], DashboardSnapshot],
    *,
    interval: float = 2.0,
    iterations: int | None = None,
) -> None:
    """The live curses loop: redraw every ``interval`` seconds until ``q``.

    ``fetch`` polls the service and returns a stamped snapshot (the CLI wires
    it to :class:`~repro.service.client.ServiceClient`); ``iterations`` bounds
    the redraw count for tests.  Curses is imported here, not at module
    scope, so ``--once`` mode and the test-suite never require a terminal.
    """
    import curses

    def _loop(screen: "curses.window") -> None:
        curses.curs_set(0)
        screen.nodelay(True)
        previous: DashboardSnapshot | None = None
        current = fetch()
        redraws = 0
        while True:
            lines = render_dashboard(current, previous)
            screen.erase()
            max_y, max_x = screen.getmaxyx()
            for row, line in enumerate(lines[: max_y - 1]):
                screen.addnstr(row, 0, line, max(1, max_x - 1))
            screen.addnstr(
                min(len(lines), max_y - 1),
                0,
                f"(refresh {interval:g}s — q quits)",
                max(1, max_x - 1),
            )
            screen.refresh()
            redraws += 1
            if iterations is not None and redraws >= iterations:
                return
            deadline = time.monotonic() + interval
            while time.monotonic() < deadline:
                pressed = screen.getch()
                if pressed in (ord("q"), ord("Q")):
                    return
                curses.napms(50)
            previous, current = current, fetch()

    curses.wrapper(_loop)
