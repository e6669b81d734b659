"""Tests of the observability substrate and its wiring through the service.

Unit coverage of :mod:`repro.obs` (exact histogram merging across pickled
pipe round-trips, the Prometheus text exposition, structured logging, trace
assembly, profiling capture) plus the integration contracts the tentpole
promises: 100 identical concurrent requests produce traces that all
reference the *same* solve span, and a live service's ``/metrics`` histogram
count equals its ``/stats`` request total — single-process and sharded.
"""

from __future__ import annotations

import asyncio
import io
import json
import pickle
import random
import re
import threading
import time

import pytest

from repro import package_version
from repro.blas import blas_runtime
from repro.exceptions import ParameterError
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    Span,
    TraceBuilder,
    TraceRecorder,
    capture_attempts,
    configure_logging,
    get_logger,
    logging_config,
    record_attempt,
)
from repro.obs.dashboard import (
    DashboardSnapshot,
    histogram_quantile,
    metric_value,
    parse_prometheus_text,
    render_dashboard,
    summarize,
)
from repro.obs.slo import SloTargets, SloTracker
from repro.obs.tracing import Trace, new_trace_id
from repro.distributions import Exponential
from repro.queueing import UnreliableQueueModel
from repro.service import (
    BatchScheduler,
    ServiceClient,
    ServiceConfig,
    ThreadedService,
    parse_solve_request,
)
from repro.solvers import evaluate


def _model(servers: int = 4, arrival_rate: float = 2.0) -> UnreliableQueueModel:
    return UnreliableQueueModel(
        num_servers=servers,
        arrival_rate=arrival_rate,
        service_rate=1.0,
        operative=Exponential(rate=1.0 / 34.62),
        inoperative=Exponential(rate=25.0),
    )


@pytest.fixture(autouse=True)
def _reset_logging_config():
    """Restore the process-wide logging config after every test."""
    config = logging_config()
    yield
    configure_logging(config.format, config.stream)


# --------------------------------------------------------------------------- #
# Histograms: exact merging, percentiles, pickling
# --------------------------------------------------------------------------- #


def _random_histogram(seed: int, samples: int = 500) -> Histogram:
    rng = random.Random(seed)
    histogram = Histogram()
    for _ in range(samples):
        # Log-uniform over the bucket range plus some overflow beyond 100s.
        histogram.observe(10.0 ** rng.uniform(-4.5, 2.5))
    return histogram


class TestHistogram:
    def test_default_buckets_are_fixed_log_spaced_constants(self):
        assert len(DEFAULT_LATENCY_BUCKETS) == 49
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-4)
        assert DEFAULT_LATENCY_BUCKETS[-1] == pytest.approx(100.0)
        ratios = [
            DEFAULT_LATENCY_BUCKETS[i + 1] / DEFAULT_LATENCY_BUCKETS[i]
            for i in range(len(DEFAULT_LATENCY_BUCKETS) - 1)
        ]
        assert all(ratio == pytest.approx(10.0 ** (1.0 / 8.0), rel=1e-6) for ratio in ratios)

    def test_observe_counts_and_sum(self):
        histogram = Histogram()
        for value in (0.001, 0.01, 0.01, 1000.0):  # last lands in overflow
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == pytest.approx(1000.021)
        assert sum(histogram.counts) == 4

    def test_merge_is_commutative(self):
        a, b = _random_histogram(1), _random_histogram(2)
        ab = a.snapshot()
        ab.merge(b)
        ba = b.snapshot()
        ba.merge(a)
        assert ab == ba

    def test_merge_is_associative(self):
        a, b, c = _random_histogram(3), _random_histogram(4), _random_histogram(5)
        left = a.snapshot()
        left.merge(b)
        left.merge(c)
        bc = b.snapshot()
        bc.merge(c)
        right = a.snapshot()
        right.merge(bc)
        assert left == right

    def test_pickled_round_trip_merge_matches_single_process(self):
        """The sharded contract: per-worker histograms shipped over a pipe
        (pickled) and merged in the front equal one histogram that saw every
        observation in a single process."""
        rng = random.Random(99)
        values = [10.0 ** rng.uniform(-4.5, 2.5) for _ in range(900)]
        single = Histogram()
        for value in values:
            single.observe(value)
        shards = [Histogram() for _ in range(3)]
        for index, value in enumerate(values):
            shards[index % 3].observe(value)
        merged = Histogram()
        for shard in shards:
            merged.merge(pickle.loads(pickle.dumps(shard)))
        assert merged == single
        assert merged.percentile(0.99) == single.percentile(0.99)

    def test_dict_round_trip(self):
        histogram = _random_histogram(7)
        clone = Histogram.from_dict(json.loads(json.dumps(histogram.to_dict())))
        assert clone == histogram

    def test_merge_refuses_mismatched_bounds(self):
        histogram = Histogram()
        other = Histogram(upper_bounds=(0.1, 1.0, 10.0))
        with pytest.raises(ParameterError, match="bounds"):
            histogram.merge(other)

    def test_percentile_interpolates_within_one_bucket(self):
        histogram = Histogram()
        for _ in range(1000):
            histogram.observe(0.2)
        estimate = histogram.percentile(0.99)
        # 0.2s falls in a bucket whose bounds are within one eighth-decade.
        assert estimate == pytest.approx(0.2, rel=10.0 ** (1.0 / 8.0) - 1.0)

    def test_percentile_bounds_checked(self):
        with pytest.raises(ParameterError, match="quantile"):
            Histogram().percentile(1.5)

    def test_empty_percentile_is_zero(self):
        assert Histogram().percentile(0.99) == 0.0


# --------------------------------------------------------------------------- #
# Registry: series, dict transport, Prometheus rendering
# --------------------------------------------------------------------------- #


class TestMetricsRegistry:
    def test_counter_and_gauge_are_get_or_create(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "X.", labels={"shard": "0"}).inc()
        registry.counter("repro_x_total", labels={"shard": "0"}).inc(2.0)
        registry.gauge("repro_depth", "Depth.").set(7.0)
        payload = registry.to_dict()
        clone = MetricsRegistry()
        clone.merge_dict(payload)
        text = clone.render()
        assert 'repro_x_total{shard="0"} 3' in text
        assert "repro_depth 7" in text

    def test_merge_dict_sums_histograms_exactly(self):
        shard_payloads = []
        singles = Histogram()
        for seed in (11, 12, 13):
            rng = random.Random(seed)
            registry = MetricsRegistry()
            histogram = registry.histogram("repro_lat_seconds", "Lat.")
            for _ in range(200):
                value = 10.0 ** rng.uniform(-4, 2)
                histogram.observe(value)
                singles.observe(value)
            shard_payloads.append(json.loads(json.dumps(registry.to_dict())))
        front = MetricsRegistry()
        for payload in shard_payloads:
            front.merge_dict(payload)
        merged = front.histogram("repro_lat_seconds")
        assert merged.count == singles.count == 600
        assert merged == singles

    def test_render_is_prometheus_text_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", "Requests.", labels={"shard": "1"}).inc(5)
        histogram = registry.histogram(
            "repro_solve_latency_seconds", "Solve latency.", labels={"shard": "1"}
        )
        histogram.observe(0.002)
        histogram.observe(0.5)
        text = registry.render()
        assert "# HELP repro_requests_total Requests.\n" in text
        assert "# TYPE repro_requests_total counter\n" in text
        assert '# TYPE repro_solve_latency_seconds histogram' in text
        assert 'repro_requests_total{shard="1"} 5' in text
        # Cumulative buckets end at +Inf and agree with _count.
        assert 'le="+Inf"' in text
        count_line = [
            line
            for line in text.splitlines()
            if line.startswith("repro_solve_latency_seconds_count")
        ]
        assert count_line == ['repro_solve_latency_seconds_count{shard="1"} 2']
        inf_line = [line for line in text.splitlines() if 'le="+Inf"' in line]
        assert inf_line[0].endswith(" 2")

    def test_every_sample_line_parses(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total", "A.").inc()
        registry.gauge("repro_b", "B.", labels={"kind": 'we"ird\nname'}).set(1.5)
        registry.histogram("repro_c_seconds", "C.").observe(0.01)
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.eE+-]+|[+-]Inf|NaN)$"
        )
        lines = [
            line for line in registry.render().splitlines() if line and not line.startswith("#")
        ]
        assert lines
        for line in lines:
            assert sample.match(line), line


# --------------------------------------------------------------------------- #
# Structured logging
# --------------------------------------------------------------------------- #


class TestStructuredLogger:
    def test_json_lines_carry_bound_trace_id(self):
        sink = io.StringIO()
        configure_logging("json", sink)
        logger = get_logger("repro.service").bind(trace_id="abc123")
        logger.info("request-admitted", shard=3)
        record = json.loads(sink.getvalue())
        assert record["level"] == "INFO"
        assert record["logger"] == "repro.service"
        assert record["event"] == "request-admitted"
        assert record["trace_id"] == "abc123"
        assert record["shard"] == 3
        assert record["ts"].endswith("Z")

    def test_text_format_renders_fields(self):
        sink = io.StringIO()
        configure_logging("text", sink)
        get_logger("repro.service").warning("slow-request", duration_ms=12.5)
        line = sink.getvalue()
        assert "WARNING" in line
        assert "slow-request" in line
        assert "duration_ms=12.5" in line

    def test_config_is_read_at_emit_time(self):
        logger = get_logger("repro.service")  # created before configuration
        sink = io.StringIO()
        configure_logging("json", sink)
        logger.error("late-binding")
        assert json.loads(sink.getvalue())["event"] == "late-binding"

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="log format"):
            configure_logging("yaml")


# --------------------------------------------------------------------------- #
# Traces
# --------------------------------------------------------------------------- #


class TestTracing:
    def test_builder_records_ordered_spans(self):
        trace = TraceBuilder()
        with trace.timed("admission"):
            pass
        with trace.timed("solve", solver="spectral"):
            pass
        sealed = trace.finish("ok")
        assert [span.name for span in sealed.spans] == ["admission", "solve"]
        assert sealed.status == "ok"
        assert sealed.duration_ms >= 0.0
        assert sealed.spans[1].annotations == {"solver": "spectral"}

    def test_add_span_rebases_worker_offsets(self):
        """The cross-process assembly rule: a worker span at offset t within
        its own trace lands at (pipe-send offset + t) in the front's trace."""
        front = TraceBuilder()
        worker_span = Span(name="solve", span_id="beef0001", start_ms=2.0, duration_ms=5.0)
        front.add_span(worker_span, shift_ms=10.0)
        adopted = front.spans[0]
        assert adopted.start_ms == pytest.approx(12.0)
        assert adopted.duration_ms == pytest.approx(5.0)
        assert adopted.span_id == "beef0001"

    def test_span_dict_round_trip(self):
        span = Span(
            name="backend:spectral",
            span_id="cafe0002",
            start_ms=1.25,
            duration_ms=3.5,
            annotations={"ok": True},
        )
        assert Span.from_dict(json.loads(json.dumps(span.to_dict()))) == span

    def test_recorder_ring_is_bounded(self):
        recorder = TraceRecorder(4, slow_threshold_seconds=10.0)
        for _ in range(10):
            recorder.record(TraceBuilder().finish("ok"))
        assert recorder.recorded_total == 10
        assert len(recorder.snapshot()) == 4

    def test_find_by_trace_id(self):
        recorder = TraceRecorder(8, slow_threshold_seconds=10.0)
        trace = TraceBuilder().finish("ok")
        recorder.record(trace)
        assert recorder.find(trace.trace_id) is trace
        assert recorder.find("missing") is None

    def test_slow_traces_are_emitted_to_the_log(self):
        sink = io.StringIO()
        configure_logging("json", sink)
        recorder = TraceRecorder(
            8, slow_threshold_seconds=0.0, logger=get_logger("repro.service")
        )
        builder = TraceBuilder()
        with builder.timed("solve"):
            pass
        recorder.record(builder.finish("ok"))
        assert recorder.slow_total == 1
        record = json.loads(sink.getvalue())
        assert record["event"] == "slow-request"
        assert record["trace_id"] == builder.trace_id
        assert record["spans"][0]["name"] == "solve"


# --------------------------------------------------------------------------- #
# Profiling capture through the solver facade
# --------------------------------------------------------------------------- #


class TestProfilingCapture:
    def test_record_attempt_is_a_no_op_without_capture(self):
        record_attempt("spectral", 0.001, ok=True)  # must not raise

    def test_facade_records_fallback_chain_attempts(self):
        model = _model()
        with capture_attempts() as attempts:
            outcome = evaluate(model)
        assert outcome.solver == "spectral"
        assert [attempt.solver for attempt in attempts] == ["spectral"]
        assert attempts[0].ok is True
        assert attempts[0].seconds > 0.0
        payload = attempts[0].to_dict()
        assert payload["solver"] == "spectral"
        assert payload["ok"] is True

    def test_nested_captures_innermost_wins(self):
        with capture_attempts() as outer:
            with capture_attempts() as inner:
                record_attempt("geometric", 0.002, ok=False, error="boom")
            record_attempt("spectral", 0.001, ok=True)
        assert [attempt.solver for attempt in inner] == ["geometric"]
        assert inner[0].error == "boom"
        assert [attempt.solver for attempt in outer] == ["spectral"]


# --------------------------------------------------------------------------- #
# Scheduler integration: trace propagation and histogram/counter agreement
# --------------------------------------------------------------------------- #


class TestSchedulerObservability:
    def test_coalesced_requests_share_one_solve_span(self):
        """100 identical concurrent requests must produce traces that all
        reference the SAME solve span id — proof they shared one solve."""
        scheduler = BatchScheduler(batch_window=0.01, shard=0)
        request = parse_solve_request({"model": {"servers": 4, "arrival_rate": 2.0}})
        traces = [TraceBuilder() for _ in range(100)]

        async def run():
            try:
                await asyncio.gather(
                    *(
                        scheduler.submit(request.model, request.policy, trace=trace)
                        for trace in traces
                    )
                )
            finally:
                await scheduler.close()

        asyncio.run(run())
        solve_spans = []
        for trace in traces:
            spans = {span.name: span for span in trace.spans}
            assert "cache-lookup" in spans
            assert "solve" in spans
            solve_spans.append(spans["solve"])
        assert len({span.span_id for span in solve_spans}) == 1
        coalesced_flags = [span.annotations["coalesced"] for span in solve_spans]
        assert coalesced_flags.count(False) == 1
        assert coalesced_flags.count(True) == 99

    def test_solve_latency_count_equals_requests_total(self):
        scheduler = BatchScheduler(batch_window=0.0, shard=3)
        requests = [
            parse_solve_request({"model": {"servers": servers, "arrival_rate": 1.0}})
            for servers in (3, 4, 5)
        ]

        async def run():
            try:
                for request in requests:
                    await scheduler.submit(request.model, request.policy)
                    # A cache hit must count toward the histogram too.
                    await scheduler.submit(request.model, request.policy)
            finally:
                await scheduler.close()

        asyncio.run(run())
        stats = scheduler.stats()
        payload = scheduler.metrics_snapshot()
        registry = MetricsRegistry()
        registry.merge_dict(payload)
        histogram = registry.histogram(
            "repro_solve_latency_seconds", labels={"shard": "3"}
        )
        assert stats["requests_total"] == 6
        assert histogram.count == 6

    def test_backend_attempt_spans_are_recorded(self):
        scheduler = BatchScheduler(batch_window=0.0, shard=0)
        request = parse_solve_request({"model": {"servers": 4, "arrival_rate": 2.0}})
        trace = TraceBuilder()

        async def run():
            try:
                await scheduler.submit(request.model, request.policy, trace=trace)
            finally:
                await scheduler.close()

        asyncio.run(run())
        backends = [span for span in trace.spans if span.name.startswith("backend:")]
        assert backends
        assert backends[0].name == "backend:spectral"
        assert backends[0].annotations["ok"] is True


# --------------------------------------------------------------------------- #
# Live service: /metrics vs /stats, trace echoes
# --------------------------------------------------------------------------- #


def _metric_values(text: str, name: str) -> dict[str, float]:
    """Map of rendered label-string -> value for one metric name."""
    values: dict[str, float] = {}
    pattern = re.compile(rf"^{re.escape(name)}(\{{[^}}]*\}})? (-?[0-9.eE+]+)$")
    for line in text.splitlines():
        match = pattern.match(line)
        if match:
            values[match.group(1) or ""] = float(match.group(2))
    return values


def _assert_runtime_reported(health: dict, text: str) -> None:
    """The ``/healthz`` keys and ``/metrics`` runtime series every tier shares."""
    runtime = blas_runtime()
    assert health["status"] == "ok"
    assert health["version"] == package_version()
    assert health["uptime_seconds"] >= 0
    assert health["runtime"] == runtime
    info = _metric_values(text, "repro_runtime_info")
    assert len(info) == len(runtime["libraries"])
    for entry in runtime["libraries"]:
        library = entry["library"]
        assert any(f'library="{library}"' in labels for labels in info)
    threads = _metric_values(text, "repro_blas_threads")
    if runtime["controlled"]:
        ambient = max(entry["threads"] for entry in runtime["libraries"])
        assert threads == {'{scope="ambient"}': ambient, '{scope="solve"}': 1.0}
    else:
        assert threads == {}


@pytest.fixture(scope="class")
def metrics_service(request):
    """One live service per test class, with the class's shard count."""
    config = ServiceConfig(port=0, workers=request.cls.workers, batch_window=0.002)
    with ThreadedService(config) as running:
        yield running


class TestServiceMetricsEndpoint:
    """``/metrics`` against ``/stats`` and ``/healthz``; the base class runs
    one in-process shard, :class:`TestServiceMetricsEndpointOnTwoShards` two
    worker processes."""

    workers = 1

    def test_single_process_metrics_agree_with_stats(self, metrics_service):
        with ServiceClient(metrics_service.host, metrics_service.port, timeout=120.0) as client:
            for servers in (3, 4, 5, 4, 3):
                payload = client.solve_ok(
                    {"model": {"servers": servers, "arrival_rate": 1.0}}
                )
                assert re.fullmatch(r"[0-9a-f]{16}", payload["trace_id"])
            stats = client.stats()
            status, text = client.metrics()
            health = client.healthz().payload
        assert status == 200
        _assert_runtime_reported(health, text)
        assert health["queue_depth"] == 0
        requests_total = stats.payload["totals"]["requests_total"]
        counts = _metric_values(text, "repro_solve_latency_seconds_count")
        assert sum(counts.values()) == requests_total
        totals = _metric_values(text, "repro_requests_total")
        assert sum(totals.values()) == requests_total
        assert _metric_values(text, "repro_http_responses_total")
        assert _metric_values(text, "repro_uptime_seconds")

    def test_responses_echo_trace_ids_in_headers_and_payloads(self, metrics_service):
        with ServiceClient(metrics_service.host, metrics_service.port, timeout=120.0) as client:
            solved = client.solve({"model": {"servers": 4, "arrival_rate": 2.0}})
            assert solved.headers["x-trace-id"] == solved.payload["trace_id"]
            health = client.healthz()
            assert health.headers["x-trace-id"] == health.payload["trace_id"]
            assert health.payload["version"]
            stats = client.stats()
            assert stats.headers["x-trace-id"] == stats.payload["trace_id"]
            failed = client.solve({"model": {"servers": 4}})
            assert failed.status == 400
            assert failed.headers["x-trace-id"] == failed.payload["trace_id"]

    def test_sharded_metrics_count_equals_stats_total(self, metrics_service):
        with ServiceClient(metrics_service.host, metrics_service.port, timeout=120.0) as client:
            for index in range(12):
                client.solve_ok(
                    {"model": {"servers": 3 + index % 4, "arrival_rate": 1.1}}
                )
            stats = client.stats()
            status, text = client.metrics()
            health = client.healthz().payload
        assert status == 200
        _assert_runtime_reported(health, text)
        assert health["workers_ready"] == self.workers
        assert stats.payload["workers"] == self.workers
        requests_total = stats.payload["totals"]["requests_total"]
        counts = _metric_values(text, "repro_solve_latency_seconds_count")
        assert len(counts) == self.workers  # one histogram per shard
        assert sum(counts.values()) == requests_total
        shards = _metric_values(text, "repro_workers_ready")
        assert shards[""] == float(self.workers)


class TestServiceMetricsEndpointOnTwoShards(TestServiceMetricsEndpoint):
    workers = 2


# --------------------------------------------------------------------------- #
# Trace recorder rings: exemplar sampling, queries, thread-safety
# --------------------------------------------------------------------------- #


def _sealed_trace(duration_ms: float, started_at: float) -> Trace:
    """A minimal completed trace with controlled duration and start stamp."""
    return Trace(
        trace_id=new_trace_id(),
        started_at=started_at,
        status="ok",
        duration_ms=duration_ms,
        spans=(),
    )


class TestTraceRecorderRings:
    def test_exemplars_survive_recent_ring_churn(self):
        recorder = TraceRecorder(4, slow_threshold_seconds=10.0, exemplar_interval=4)
        traces = [_sealed_trace(duration_ms=1.0, started_at=float(i)) for i in range(12)]
        for trace in traces:
            recorder.record(trace)
        assert recorder.exemplar_total == 3  # the 1st, 5th and 9th
        # The first trace fell off the recent ring long ago but its exemplar
        # copy keeps it findable; its non-exemplar neighbour is gone.
        assert recorder.find(traces[0].trace_id) is traces[0]
        assert recorder.find(traces[1].trace_id) is None
        listed = {trace.trace_id for trace in recorder.query(limit=12)}
        assert traces[4].trace_id in listed
        assert traces[8].trace_id in listed

    def test_zero_interval_disables_exemplar_sampling(self):
        recorder = TraceRecorder(4, slow_threshold_seconds=10.0, exemplar_interval=0)
        for index in range(10):
            recorder.record(_sealed_trace(duration_ms=1.0, started_at=float(index)))
        assert recorder.exemplar_total == 0
        assert recorder.recorded_total == 10

    def test_query_slow_filter_limit_and_ordering(self):
        recorder = TraceRecorder(8, slow_threshold_seconds=0.5, exemplar_interval=0)
        fast = [_sealed_trace(duration_ms=1.0, started_at=float(i)) for i in range(3)]
        slow = [_sealed_trace(duration_ms=900.0, started_at=10.0 + i) for i in range(2)]
        for trace in fast + slow:
            recorder.record(trace)
        assert recorder.slow_total == 2
        listed = recorder.query(slow=True, limit=8)
        assert [t.trace_id for t in listed] == [slow[1].trace_id, slow[0].trace_id]
        newest = recorder.query(limit=2)
        assert [t.trace_id for t in newest] == [slow[1].trace_id, slow[0].trace_id]

    def test_concurrent_record_and_query_is_safe(self):
        """The satellite pin: writers and readers share one lock — concurrent
        appends must neither corrupt the rings nor lose a count."""
        recorder = TraceRecorder(32, slow_threshold_seconds=0.0, exemplar_interval=3)
        per_thread = 200
        writers = 4
        errors: list[Exception] = []

        def write(worker: int) -> None:
            try:
                for index in range(per_thread):
                    recorder.record(
                        _sealed_trace(duration_ms=1.0, started_at=worker * 1e3 + index)
                    )
            except Exception as exc:  # pragma: no cover - the failure signal
                errors.append(exc)

        def read() -> None:
            try:
                for _ in range(200):
                    recorder.query(slow=True, limit=8)
                    recorder.query(limit=8)
                    recorder.find("no-such-trace")
                    recorder.snapshot()
            except Exception as exc:  # pragma: no cover - the failure signal
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
        threads += [threading.Thread(target=read) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert recorder.recorded_total == writers * per_thread
        assert recorder.slow_total == writers * per_thread
        assert recorder.exemplar_total == (writers * per_thread + 2) // 3
        assert len(recorder.snapshot()) == 32

    def test_invalid_shapes_are_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            TraceRecorder(0)
        with pytest.raises(ValueError, match="exemplar_interval"):
            TraceRecorder(4, exemplar_interval=-1)


# --------------------------------------------------------------------------- #
# SLO tracker: rolling percentiles, pressure, error budgets
# --------------------------------------------------------------------------- #


class TestSloTracker:
    def test_disabled_targets_are_inert(self):
        tracker = SloTracker(
            SloTargets(queue_wait_p99_seconds=0.0, solve_latency_p99_seconds=0.0)
        )
        tracker.observe_queue_wait(100.0)
        tracker.observe_solve_latency(100.0)
        assert tracker.enabled is False
        assert tracker.pressure() == 0.0
        assert tracker.error_budget() == {"queue-wait": 0, "solve-latency": 0}

    def test_pressure_is_the_max_ratio_over_objectives(self):
        tracker = SloTracker(
            SloTargets(queue_wait_p99_seconds=1.0, solve_latency_p99_seconds=100.0)
        )
        for _ in range(20):
            tracker.observe_queue_wait(2.0)
            tracker.observe_solve_latency(2.0)
        # The queue-wait ratio (~2/1) dominates the solve ratio (~2/100).
        assert tracker.pressure() == pytest.approx(tracker.queue_wait_p99() / 1.0)
        assert tracker.pressure() >= 1.0

    def test_error_budget_counts_exact_violations(self):
        tracker = SloTracker(
            SloTargets(queue_wait_p99_seconds=1.0, solve_latency_p99_seconds=1.0)
        )
        tracker.observe_queue_wait(0.5)
        tracker.observe_queue_wait(1.5)
        tracker.observe_solve_latency(2.0)
        assert tracker.error_budget() == {"queue-wait": 1, "solve-latency": 1}

    def test_snapshot_is_json_safe(self):
        tracker = SloTracker()
        tracker.observe_queue_wait(0.01)
        snapshot = json.loads(json.dumps(tracker.snapshot()))
        assert set(snapshot) == {
            "queue_wait_p99_seconds",
            "solve_latency_p99_seconds",
            "queue_wait_target_seconds",
            "solve_latency_target_seconds",
            "pressure",
            "error_budget",
        }
        assert snapshot["queue_wait_target_seconds"] == 2.0

    def test_export_into_renders_the_slo_families(self):
        tracker = SloTracker(
            SloTargets(queue_wait_p99_seconds=0.001, solve_latency_p99_seconds=30.0)
        )
        for _ in range(5):
            tracker.observe_queue_wait(0.5)
        registry = MetricsRegistry()
        tracker.export_into(registry)
        text = registry.render()
        budget = _metric_values(text, "repro_slo_error_budget_total")
        assert budget['{slo="queue-wait"}'] == 5.0
        assert budget['{slo="solve-latency"}'] == 0.0
        assert _metric_values(text, "repro_slo_pressure")[""] >= 1.0
        assert _metric_values(text, "repro_slo_queue_wait_target_seconds")[""] == 0.001
        assert _metric_values(text, "repro_slo_queue_wait_p99_seconds")[""] > 0.0

    def test_rolling_window_forgets_old_observations(self):
        tracker = SloTracker(
            SloTargets(queue_wait_p99_seconds=1.0, solve_latency_p99_seconds=1.0),
            window_seconds=0.2,
            tick_seconds=0.05,
        )
        tracker.observe_queue_wait(50.0)
        assert tracker.pressure() >= 1.0
        deadline = time.monotonic() + 10.0
        while tracker.pressure() >= 1.0 and time.monotonic() < deadline:
            time.sleep(0.05)
        # The spike rolled out of the window; a cumulative histogram would
        # have pinned the p99 at 50 s forever.
        assert tracker.pressure() < 1.0


# --------------------------------------------------------------------------- #
# Dashboard: exposition parsing, quantiles, summaries, rendering
# --------------------------------------------------------------------------- #


class TestDashboard:
    def test_parse_prometheus_text_reads_labels_and_values(self):
        text = (
            "# HELP repro_requests_total Requests.\n"
            "# TYPE repro_requests_total counter\n"
            'repro_requests_total{shard="0"} 5\n'
            'repro_requests_total{shard="1"} 7\n'
            "repro_uptime_seconds 12.5\n"
        )
        parsed = parse_prometheus_text(text)
        assert metric_value(parsed, "repro_requests_total") == 12.0
        assert metric_value(parsed, "repro_requests_total", {"shard": "1"}) == 7.0
        assert metric_value(parsed, "repro_uptime_seconds") == 12.5
        assert metric_value(parsed, "missing_series", default=3.0) == 3.0

    def test_histogram_quantile_matches_the_source_histogram(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_solve_latency_seconds", "Latency.")
        rng = random.Random(11)
        for _ in range(300):
            histogram.observe(10.0 ** rng.uniform(-3.0, 1.0))
        parsed = parse_prometheus_text(registry.render())
        for quantile in (0.5, 0.9, 0.99):
            assert histogram_quantile(
                parsed, "repro_solve_latency_seconds", quantile
            ) == pytest.approx(histogram.percentile(quantile), rel=1e-9)

    @staticmethod
    def _metrics_text(responses: float, requests: float) -> str:
        return (
            f"repro_http_responses_total {responses}\n"
            f'repro_requests_total{{shard="0"}} {requests}\n'
            "repro_uptime_seconds 42.0\n"
            "repro_workers_ready 2\n"
            'repro_queue_depth{shard="0"} 3\n'
            "repro_slo_pressure 0.25\n"
            'repro_slo_error_budget_total{slo="queue-wait"} 2\n'
            'repro_cache_lookup_hits_total{shard="0"} 3\n'
            'repro_cache_lookup_misses_total{shard="0"} 1\n'
        )

    def test_summarize_reports_rates_against_a_predecessor(self):
        stats = {"shards": [{"shard": 0, "state": "ready"}]}
        earlier = DashboardSnapshot.from_payloads(self._metrics_text(10, 4), stats, at=1.0)
        later = DashboardSnapshot.from_payloads(self._metrics_text(30, 8), stats, at=3.0)
        summary = summarize(later, earlier)
        assert summary["rps"] == pytest.approx(10.0)
        assert summary["responses_total"] == 30.0
        assert summary["workers_ready"] == 2.0
        assert summary["slo"]["pressure"] == 0.25
        assert summary["slo"]["error_budget"] == {"queue-wait": 2.0}
        (shard,) = summary["shards"]
        assert shard["shard"] == 0
        assert shard["state"] == "ready"
        assert shard["rps"] == pytest.approx(2.0)
        assert shard["queue_depth"] == 3.0
        assert shard["cache_hit_rate"] == pytest.approx(0.75)

    def test_summarize_without_a_predecessor_has_no_rates(self):
        snapshot = DashboardSnapshot.from_payloads(self._metrics_text(10, 4), {}, at=1.0)
        summary = summarize(snapshot)
        assert summary["rps"] is None
        assert summary["shards"][0]["rps"] is None

    def test_render_dashboard_lines(self):
        snapshot = DashboardSnapshot.from_payloads(self._metrics_text(10, 4), {}, at=1.0)
        lines = render_dashboard(snapshot)
        assert lines[0].startswith("repro top — ")
        assert "pressure 0.25" in lines[1]
        assert "queue-wait 2" in lines[1]
        assert any(line.lstrip().startswith("0") for line in lines[5:])

    def test_render_dashboard_without_shard_series_hints(self):
        snapshot = DashboardSnapshot.from_payloads("repro_uptime_seconds 1\n", {}, at=0.0)
        lines = render_dashboard(snapshot)
        assert any("no per-shard series yet" in line for line in lines)


# --------------------------------------------------------------------------- #
# Live service: the trace query API
# --------------------------------------------------------------------------- #


class TestTraceQueryEndpoints:
    def test_trace_lookup_returns_the_span_tree(self):
        config = ServiceConfig(port=0, batch_window=0.0, slow_request_seconds=0.0)
        with ThreadedService(config) as service:
            with ServiceClient(service.host, service.port, timeout=120.0) as client:
                payload = client.solve_ok({"model": {"servers": 4, "arrival_rate": 2.0}})
                trace_id = payload["trace_id"]

                found = client.trace(trace_id)
                assert found.status == 200
                trace = found.payload["trace"]
                assert trace["trace_id"] == trace_id
                assert trace["status"] == "ok"
                names = [span["name"] for span in trace["spans"]]
                for expected in ("admission", "cache-lookup", "queue-wait", "solve"):
                    assert expected in names
                offsets = [span["start_ms"] for span in trace["spans"]]
                assert offsets == sorted(offsets)  # sealed traces sort spans

                # slow_request_seconds=0 marks everything slow, so the slow
                # listing must contain it; the plain listing must too.
                slow_listing = client.traces(slow=True, limit=10)
                assert slow_listing.status == 200
                assert any(
                    entry["trace_id"] == trace_id
                    for entry in slow_listing.payload["traces"]
                )
                listing = client.traces(limit=5)
                assert listing.payload["count"] >= 1

                missing = client.trace("0" * 16)
                assert missing.status == 404
                assert missing.payload["error"]["code"] == "not-found"


# --------------------------------------------------------------------------- #
# Live service: latency-aware overload control
# --------------------------------------------------------------------------- #


class TestLatencyAwareOverloadControl:
    def test_slow_backend_sheds_while_the_queue_is_shallow(self, monkeypatch):
        """The tentpole pin: a slow backend must engage tiered shedding on
        *measured latency* while queue depth sits far below the depth
        thresholds, and burn the error budget visibly on /metrics."""
        import repro.service.scheduler as scheduler_module

        original = scheduler_module.solve_many_async

        async def sluggish(models, policies, **kwargs):
            await asyncio.sleep(0.3)
            return await original(models, policies, **kwargs)

        monkeypatch.setattr(scheduler_module, "solve_many_async", sluggish)
        config = ServiceConfig(
            port=0,
            batch_window=0.0,
            max_queue=64,
            slo_queue_wait_seconds=0.0,  # isolate the solve-latency objective
            slo_solve_latency_seconds=0.05,  # the sleeping backend blows this
        )
        with ThreadedService(config) as service:
            with ServiceClient(service.host, service.port, timeout=120.0) as client:
                first = client.solve({"model": {"servers": 3, "arrival_rate": 1.0}})
                assert first.status == 200  # no latency signal yet: admitted

                shed = None
                for servers in range(4, 10):
                    response = client.solve(
                        {"model": {"servers": servers, "arrival_rate": 1.0}}
                    )
                    if response.status == 429:
                        shed = response
                        break
                assert shed is not None, "latency pressure never shed a request"
                error = shed.payload["error"]
                assert error["code"] == "load-shed"
                assert error["shed_tier"] == "steady-state"

                stats = client.stats().payload
                scheduler_stats = stats["shards"][0]["scheduler"]
                # The depth thresholds were nowhere near: the queue is all but
                # empty while measured latency does the shedding.
                assert scheduler_stats["queue_depth"] <= 1
                assert scheduler_stats["queue_depth"] < 0.7 * config.max_queue
                assert stats["shedding"]["shed_total"] >= 1
                assert stats["shedding"]["by_tier"].get("steady-state", 0) >= 1
                assert stats["slo"]["pressure"] >= 1.0

                status, text = client.metrics()
        assert status == 200
        budget = _metric_values(text, "repro_slo_error_budget_total")
        assert budget['{slo="solve-latency"}'] >= 1.0
        assert _metric_values(text, "repro_slo_pressure")[""] >= 1.0
        assert _metric_values(text, "repro_slo_solve_latency_target_seconds")[""] == 0.05
