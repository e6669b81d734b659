"""The serving workloads: a ``repro serve --workers <nproc>`` process tree
per run, driven by a closed loop of ``nproc`` keep-alive connections.

Every request is attempted exactly once.  A non-200 answer (429, 5xx), a
timeout or a dropped connection is a failure; after a transport failure the
connection is reopened for the *next* request, never to resend this one.
Response bodies are only stored inside the timed window; decoding, failure
accounting and the correctness checks happen after it.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import workloads as wl
from common import (
    ROOT,
    TAIL_QUANTILE,
    BenchmarkError,
    Tally,
    http_failure_reason,
    median,
    percentile,
    program_env,
    ratio,
    relative_close,
    tail_is_supported,
    tree_cpu_seconds,
    tree_pids,
    tree_rss_mb,
)
from layers import (
    Recorder,
    counter_total,
    histogram_quantile,
    instrumented,
    parse,
    per_call_ms,
    per_label,
    replay_us,
)

#: Client socket timeout: a request slower than this is a failure.
REQUEST_TIMEOUT = 30.0
#: Latency samples a window needs so that p99 has ten beyond it.
MIN_LATENCY_SAMPLES = 1000
#: The window stops growing toward MIN_LATENCY_SAMPLES after this long.
MAX_WINDOW_SECONDS = 50.0
#: Launches per run; setup_s is their median.
SETUP_LAUNCHES = 3
#: In the traced window, every TRACE_EVERY-th request per connection is
#: followed by ``GET /traces/<id>`` on the same connection.
TRACE_EVERY = 8
#: Responses re-solved in-process to check the service's answers.
CHECK_SAMPLE = 16
#: Distinct requests replayed through the protocol, routing and cache-key code.
REPLAY_LIMIT = 400
#: Cold models replayed in-process through the instrumented spectral layer.
SPECTRAL_REPLAY = 24
#: Sampling period of the process-tree probes.
SAMPLE_PERIOD = 0.1


class Connection:
    """One keep-alive HTTP/1.1 connection; transport errors propagate and
    drop the connection (the caller counts them; nothing is resent)."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._http: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        if self._http is None:
            self._http = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            self._http.request(method, path, body=body, headers=headers)
            response = self._http.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if response.will_close:
            self.close()
        return response.status, payload

    def get_json(self, path: str) -> dict:
        status, payload = self.request("GET", path)
        if status != 200:
            raise BenchmarkError(f"GET {path} answered {status}: {payload[:200]!r}")
        return json.loads(payload)

    def close(self) -> None:
        if self._http is not None:
            self._http.close()
            self._http = None


class Server:
    """A ``repro serve`` process tree, launched and stopped by the benchmark."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.process: subprocess.Popen | None = None
        self.port = 0
        self._log = b""

    def start(self, deadline: float = 60.0) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", str(self.workers),
             "--port", "0", "--log-format", "json"],
            cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        os.set_blocking(self.process.stderr.fileno(), False)
        limit = time.monotonic() + deadline
        while not self.port:
            self.drain()
            for line in self._log.splitlines():
                if b'"service-started"' in line:
                    self.port = int(json.loads(line)["url"].rsplit(":", 1)[1])
            if self.process.poll() is not None or time.monotonic() > limit:
                raise BenchmarkError(f"repro serve did not start: {self.log_tail()}")
            time.sleep(0.02)
        with_client = Connection(self.port)
        try:
            while True:
                health = with_client.get_json("/healthz")
                if health.get("workers_ready", self.workers) >= self.workers:
                    break
                if time.monotonic() > limit:
                    raise BenchmarkError(f"workers never became ready: {health}")
                time.sleep(0.02)
        finally:
            with_client.close()

    def drain(self) -> None:
        """Read the service log without blocking, keeping its tail."""
        if self.process is None or self.process.stderr is None:
            return
        try:
            chunk = self.process.stderr.read()
        except (BlockingIOError, ValueError):
            return
        if chunk:
            self._log = (self._log + chunk)[-65536:]

    def log_tail(self) -> str:
        self.drain()
        return self._log[-2000:].decode("utf-8", "replace")

    def stop(self) -> None:
        """SIGTERM the front, wait for it and make sure no worker outlives it."""
        if self.process is None:
            return
        members = tree_pids(self.process.pid)
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            for pid in members:
                _kill(pid)
            self.process.wait(timeout=10)
        limit = time.monotonic() + 10
        while any(os.path.exists(f"/proc/{pid}") and _alive(pid) for pid in members[1:]):
            if time.monotonic() > limit:
                for pid in members[1:]:
                    _kill(pid)
                break
            time.sleep(0.05)
        if self.process.stderr is not None:
            self.process.stderr.close()
        self.process = None


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# -- the closed loop ----------------------------------------------------------------


@dataclass
class Exchange:
    """One attempted request: what was sent and what came back."""

    index: int
    started: float
    ended: float
    status: int  # 0 = transport failure
    body: bytes
    trace: bytes = b""


@dataclass
class Window:
    exchanges: list[Exchange] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0
    peak_rss_mb: float = 0.0


def closed_loop(
    server: Server,
    bodies: list[bytes],
    connections: int,
    seconds: float,
    *,
    min_samples: int = 0,
    trace_every: int = 0,
    first_index: int = 0,
) -> Window:
    """Drive ``connections`` clients, each sending its next request the
    moment the previous answer lands, until ``seconds`` have passed and at
    least ``min_samples`` requests completed.  The calling thread samples
    the server's process tree meanwhile; a request counts when it started
    inside the window."""
    tickets = itertools.count(first_index)
    stop, exhausted = threading.Event(), threading.Event()
    window = Window()
    results: list[list[Exchange]] = [[] for _ in range(connections)]

    def client(slot: int) -> None:
        connection = Connection(server.port)
        local = results[slot]
        sent = 0
        try:
            while not stop.is_set():
                index = next(tickets)
                if index >= len(bodies):
                    exhausted.set()
                    break
                started = time.perf_counter()
                try:
                    status, body = connection.request("POST", "/solve", bodies[index])
                except (OSError, http.client.HTTPException):
                    status, body = 0, b""
                exchange = Exchange(index, started, time.perf_counter(), status, body)
                local.append(exchange)
                sent += 1
                if trace_every and status == 200 and sent % trace_every == 0:
                    exchange.trace = _fetch_trace(connection, body)
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(slot,)) for slot in range(connections)]
    window.started = time.perf_counter()
    for thread in threads:
        thread.start()
    limit = window.started + max(seconds, MAX_WINDOW_SECONDS)
    while not exhausted.wait(SAMPLE_PERIOD):
        server.drain()
        window.peak_rss_mb = max(window.peak_rss_mb, tree_rss_mb(server.process.pid))
        now = time.perf_counter()
        done = sum(len(local) for local in results)
        if now - window.started >= seconds and (done >= min_samples or now >= limit):
            break
    stop.set()
    window.ended = time.perf_counter()
    for thread in threads:
        thread.join(timeout=REQUEST_TIMEOUT + 5)
        if thread.is_alive():
            raise BenchmarkError("a client thread did not finish")
    window.exchanges = sorted(
        (exchange for local in results for exchange in local if exchange.started < window.ended),
        key=lambda exchange: exchange.index,
    )
    return window


def _fetch_trace(connection: Connection, body: bytes) -> bytes:
    try:
        trace_id = json.loads(body)["trace_id"]
        status, trace = connection.request("GET", f"/traces/{trace_id}")
    except (OSError, http.client.HTTPException, ValueError, KeyError):
        return b""
    return trace if status == 200 else b""


def account(window: Window) -> tuple[Tally, list[float], list[dict]]:
    """Failures against attempts, latencies of the successes, and the
    decoded successful payloads (aligned with ``window.exchanges``)."""
    tally = Tally()
    latencies: list[float] = []
    payloads: list[dict] = []
    for exchange in window.exchanges:
        payload: dict = {}
        if exchange.status == 0:
            tally.fail("transport")
        elif exchange.status != 200:
            tally.fail(http_failure_reason(exchange.status))
        else:
            try:
                payload = json.loads(exchange.body)
            except ValueError:
                payload = {}
            if payload.get("status") == "ok":
                tally.ok()
                latencies.append(exchange.ended - exchange.started)
            else:
                tally.fail("bad-payload")
                payload = {}
        payloads.append(payload)
    return tally, latencies, payloads


# -- set-up -----------------------------------------------------------------------------


def _send_all(server: Server, bodies: list[bytes], connections: int) -> list[dict]:
    """Send every body once over ``connections`` clients; all must succeed."""
    window = closed_loop(server, bodies, connections, 0.0, min_samples=len(bodies))
    tally, _, payloads = account(window)
    if tally.attempted != len(bodies) or tally.failed:
        raise BenchmarkError(
            f"warm-up failed: {tally.reasons} over {len(bodies)} requests; {server.log_tail()}"
        )
    return payloads


def encode(requests: list[dict]) -> list[bytes]:
    return [json.dumps(request).encode() for request in requests]


def launch(workload: str, seed: int, workers: int) -> tuple[Server, float]:
    """Start a server and warm it; returns it with the seconds that took."""
    started = time.perf_counter()
    server = Server(workers)
    try:
        server.start()
        _send_all(server, encode(wl.warmup_requests(seed, workers)), workers)
        if workload == "serve_hot":
            hot = encode(wl.hot_set(seed))
            _send_all(server, hot, workers)
            if not all(payload["cached"] for payload in _send_all(server, hot, workers)):
                raise BenchmarkError("the hot set is not cached after warm-up")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def workload_bodies(workload: str, seed: int) -> list[bytes]:
    """The request sequence of one run, long enough for the longest window."""
    if workload == "serve_cold":
        return encode(wl.cold_requests(seed, int(MAX_WINDOW_SECONDS * 400)))
    hot = encode(wl.hot_set(seed))
    return [hot[index] for index in wl.hot_sequence(seed, int(MAX_WINDOW_SECONDS * 4000))]


# -- checks and per-layer metrics ---------------------------------------------------------


def check_answers(
    window: Window, payloads: list[dict], bodies: list[bytes], seed: int
) -> tuple[int, list[str]]:
    """Re-solve a seeded sample of distinct answered keys in-process and
    compare solver and metrics at the reference tolerance."""
    from repro.service.protocol import parse_body, parse_solve_request
    from repro.solvers import solve

    answered: dict[bytes, dict] = {}
    for exchange, payload in zip(window.exchanges, payloads):
        if payload:
            answered.setdefault(bodies[exchange.index], payload)
    keys = sorted(answered)
    sample = random.Random(f"check:{seed}").sample(keys, min(CHECK_SAMPLE, len(keys)))
    wrong, notes = 0, []
    for body in sample:
        payload = answered[body]
        request = parse_solve_request(parse_body(body))
        outcome = solve(request.model, request.policy, cache=False)
        same = outcome.solver == payload.get("solver") and all(
            relative_close(float(payload["metrics"].get(name, float("nan"))), float(value))
            for name, value in outcome.metrics.items()
        )
        if not same:
            wrong += sum(1 for exchange in window.exchanges if bodies[exchange.index] == body)
            notes.append(
                f"{body.decode()}: service {payload.get('solver')} {payload.get('metrics')}, "
                f"in-process {outcome.solver} {outcome.metrics}"
            )
    return wrong, notes


def pipe_hops_ms(window: Window) -> list[float]:
    """Per sampled request: the front's trace duration minus its admission
    span and the extent of the (re-based) worker spans."""
    hops: list[float] = []
    for exchange in window.exchanges:
        if not exchange.trace:
            continue
        trace = json.loads(exchange.trace)["trace"]
        spans = trace["spans"]
        admission = sum(span["duration_ms"] for span in spans if span["name"] == "admission")
        worker = [span for span in spans if span["name"] != "admission"]
        extent = (
            max(span["start_ms"] + span["duration_ms"] for span in worker)
            - min(span["start_ms"] for span in worker)
            if worker
            else 0.0
        )
        hops.append(max(0.0, trace["duration_ms"] - admission - extent))
    return hops


def serving_layers(
    workload: str,
    window: Window,
    payloads: list[dict],
    bodies: list[bytes],
    snapshots: tuple[dict, dict],
    cpu_seconds: float,
    successes: int,
    traced: Window,
    workers: int,
) -> dict[str, float]:
    """The per-layer metrics of a serving run; see README.md for each."""
    from repro.queueing import UnreliableQueueModel
    from repro.service.protocol import encode_response, parse_body, parse_solve_request
    from repro.service.sharding import ConsistentHashRing
    from repro.solvers import solution_cache_key

    before, after = (parse(snapshot["metrics"]) for snapshot in snapshots)
    # Replays run once per distinct request, weighted by how often it was sent.
    sent: dict[bytes, int] = {}
    answered: dict[bytes, dict] = {}
    for exchange, payload in zip(window.exchanges, payloads):
        body = bodies[exchange.index]
        if len(sent) < REPLAY_LIMIT or body in sent:
            sent[body] = sent.get(body, 0) + 1
            if payload:
                answered.setdefault(body, payload)
    weights = list(sent.values())
    requests = [parse_solve_request(parse_body(body)) for body in sent]
    keys = [solution_cache_key(request.model, request.policy) for request in requests]
    ring = ConsistentHashRing(workers)

    def delta(name: str, **match: str) -> float:
        return counter_total(before, after, name, **match)

    routed = list(per_label(before, after, "repro_routed_total", "shard").values())
    handled = delta("repro_requests_total")
    useful = delta("repro_solver_attempts_total", outcome="ok")
    shed = _unlabelled(after, "repro_shed_total") - _unlabelled(before, "repro_shed_total")
    shed += delta("repro_rejected_total")

    def quantile_ms(name: str, quantile: float) -> float:
        return histogram_quantile(before, after, name, quantile) * 1e3

    hops = pipe_hops_ms(traced)
    layers = {
        "protocol.parse_us": replay_us(
            lambda body: parse_solve_request(parse_body(body)), list(sent), weights
        ),
        "protocol.encode_us": replay_us(
            encode_response, list(answered.values()), [sent[body] for body in answered]
        ),
        "sharding.route_us": replay_us(ring.shard_for, keys, weights),
        "sharding.pipe_hop_ms.p50": percentile(hops, 0.5) if hops else 0.0,
        "sharding.pipe_hop_ms.p99": percentile(hops, 0.99) if hops else 0.0,
        "sharding.routed_skew": ratio(max(routed), sum(routed) / len(routed)) if routed else 1.0,
        "scheduler.queue_wait_ms.p50": quantile_ms("repro_queue_wait_seconds", 0.5),
        "scheduler.queue_wait_ms.p99": quantile_ms("repro_queue_wait_seconds", 0.99),
        "scheduler.batch_size": ratio(delta("repro_scheduled_total"), delta("repro_batches_total")),
        "scheduler.shed_share": shed / len(window.exchanges),
        "scheduler.coalesced_share": ratio(delta("repro_coalesced_total"), handled),
        "cache.lookup_ms.p50": quantile_ms("repro_cache_lookup_seconds", 0.5),
        "cache.lookup_ms.p99": quantile_ms("repro_cache_lookup_seconds", 0.99),
        "cache.key_us": replay_us(
            lambda request: solution_cache_key(request.model, request.policy), requests, weights
        ),
        "cache.hit_ratio": ratio(delta("repro_cache_hits_total"), handled),
        "facade.batch_solve_ms.p50": quantile_ms("repro_batch_solve_seconds", 0.5),
        "facade.batch_solve_ms.p99": quantile_ms("repro_batch_solve_seconds", 0.99),
        "facade.attempts_per_solve": ratio(delta("repro_solver_attempts_total"), useful),
        "facade.warm_start_hit_ratio": ratio(delta("repro_solver_warm_start_hits_total"), useful),
        "process.cpu_ms_per_op": cpu_seconds * 1e3 / successes,
    }
    if workload == "serve_cold":
        # Solver stages are replayed in-process on a sample of the window's
        # models: the shard workers' calls cannot be timed from outside.
        import repro.spectral

        recorder = Recorder()
        models = [
            request.model
            for request in requests
            if isinstance(request.model, UnreliableQueueModel)
        ]
        with instrumented(recorder):
            for model in models[:SPECTRAL_REPLAY]:
                repro.spectral.solve_spectral(model)  # looked up inside: the wrapped one
        layers.update(
            {
                "spectral.matrices_ms": per_call_ms(recorder, "spectral.matrices"),
                "spectral.eigen_ms.p50": per_call_ms(recorder, "spectral.eigen"),
                "spectral.eigen_ms.p99": per_call_ms(recorder, "spectral.eigen", 0.99),
                "spectral.boundary_ms.p50": per_call_ms(recorder, "spectral.boundary"),
                "spectral.boundary_ms.p99": per_call_ms(recorder, "spectral.boundary", 0.99),
            }
        )
    return layers


def _unlabelled(snapshot: dict, name: str) -> float:
    return snapshot.get(name, {}).get((), 0.0)


# -- one run ----------------------------------------------------------------------------------


def snapshot(server: Server) -> dict:
    connection = Connection(server.port)
    try:
        status, text = connection.request("GET", "/metrics")
        if status != 200:
            raise BenchmarkError(f"/metrics answered {status}")
        return {
            "metrics": text.decode(),
            "stats": connection.get_json("/stats"),
            "cpu": tree_cpu_seconds(server.process.pid),
        }
    finally:
        connection.close()


def run_serving(workload: str, seed: int, seconds: float, trace: bool, workers: int) -> dict:
    """One run: launch (several times, for setup_s), measure, check."""
    bodies = workload_bodies(workload, seed)
    setups: list[float] = []
    server = None
    try:
        for launch_number in range(SETUP_LAUNCHES):
            server, took = launch(workload, seed, workers)
            setups.append(took)
            if launch_number < SETUP_LAUNCHES - 1:
                server.stop()
                server = None
        probe = Connection(server.port)
        health = probe.get_json("/healthz")
        probe.close()
        before = snapshot(server)
        window = closed_loop(
            server, bodies, workers, seconds, min_samples=0 if trace else MIN_LATENCY_SAMPLES
        )
        after = snapshot(server)
        traced = None
        if trace:
            next_index = window.exchanges[-1].index + 1 if window.exchanges else 0
            traced = closed_loop(
                server, bodies, workers, seconds, trace_every=TRACE_EVERY, first_index=next_index
            )
        peak_rss = max(window.peak_rss_mb, tree_rss_mb(server.process.pid))
    finally:
        if server is not None:
            server.stop()

    tally, latencies, payloads = account(window)
    wrong, notes = check_answers(window, payloads, bodies, seed)
    if wrong:
        tally.mark_wrong(wrong)
    elapsed = max(exchange.ended for exchange in window.exchanges) - window.started
    successes = len(latencies)
    result = {
        "tally": tally,
        "notes": notes,
        "health": health,
        "setups": setups,
        "samples": successes,
        "tail_supported": tail_is_supported(successes),
        "metrics": {
            "setup_s": median(setups),
            "throughput_rps": successes / elapsed,
            "points_per_s": successes / elapsed,
            "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
            "latency_p99_ms": percentile(latencies, TAIL_QUANTILE) * 1e3,
            "peak_rss_mb": peak_rss,
        },
    }
    if trace:
        traced_tally, traced_latencies, _ = account(traced)
        traced_elapsed = max(exchange.ended for exchange in traced.exchanges) - traced.started
        layers = serving_layers(
            workload, window, payloads, bodies, (before, after),
            after["cpu"] - before["cpu"], successes, traced, workers,
        )
        layers["trace.overhead_share"] = 1.0 - (len(traced_latencies) / traced_elapsed) / (
            successes / elapsed
        )
        tally.merge(traced_tally)
        result["layers"] = layers
    return result
