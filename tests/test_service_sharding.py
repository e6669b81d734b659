"""Tests for sharding: the ring, admission, and the worker-process shards.

Pure units first (the consistent-hash ring, the tiered shedding rule, the
choice of shard transport, the shard worker protocol driven in-thread over a
real pipe), then the headline routing invariants against a live 4-shard
:class:`ThreadedService`: identical concurrent requests collapse onto one
shard and one solve, a killed worker surfaces the structured retryable
``worker-crashed`` error and the shard recovers, a worker that dies before
its ready handshake fails start-up at once, and a spill → restart → load
cycle serves the old answer without re-solving.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import pytest
from dying_worker import exit_at_once

from repro import package_version
from repro.blas import blas_runtime
from repro.queueing import sun_fitted_model
from repro.service import (
    DEFAULT_SHED_THRESHOLDS,
    AsyncServiceClient,
    ConsistentHashRing,
    LoadShedError,
    ServiceClient,
    ServiceConfig,
    ShardWorkerConfig,
    SolverService,
    ThreadedService,
    WorkerCrashedError,
    shard_cache_path,
    shed_decision,
    stable_key_digest,
    worker_main,
)
from repro.service import sharding
from repro.service.sharding import LocalShard, ProcessShard
from repro.solvers import SolutionCache, SolverPolicy, solution_cache_key


class TestConsistentHashRing:
    def test_same_key_always_lands_on_the_same_shard(self):
        ring = ConsistentHashRing(4)
        rebuilt = ConsistentHashRing(4)
        for servers in range(3, 30):
            key = solution_cache_key(
                sun_fitted_model(num_servers=servers, arrival_rate=0.4 * servers),
                SolverPolicy(),
            )
            shard = ring.shard_for(key)
            assert 0 <= shard < 4
            assert rebuilt.shard_for(key) == shard

    def test_vnode_replicas_spread_keys_across_shards(self):
        ring = ConsistentHashRing(4)
        counts = [0, 0, 0, 0]
        for index in range(1000):
            counts[ring.shard_for(("key", index))] += 1
        # With 64 vnodes per shard no shard gets starved or swamped.
        assert min(counts) > 100
        assert max(counts) < 500

    def test_digest_is_independent_of_the_process_hash_seed(self):
        key = ("steady-state", 4, 2.0, ("Exponential", (1.0,)))
        script = (
            "from repro.service import stable_key_digest;"
            f"print(stable_key_digest({key!r}))"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), env.get("PYTHONPATH", "")])
        )
        reported = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert int(reported.stdout) == stable_key_digest(key)

    def test_invalid_shapes_are_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            ConsistentHashRing(0)
        with pytest.raises(ValueError, match="replicas"):
            ConsistentHashRing(2, replicas=0)


class TestShedDecision:
    def test_admits_everything_under_the_lowest_threshold(self):
        for query in ("steady-state", "scenario", "transient"):
            assert shed_decision(query, 69, 100) is None

    def test_sheds_cheapest_tiers_first_as_load_rises(self):
        assert shed_decision("steady-state", 70, 100) == "steady-state"
        assert shed_decision("scenario", 70, 100) is None
        assert shed_decision("transient", 70, 100) is None
        assert shed_decision("scenario", 85, 100) == "scenario"
        assert shed_decision("transient", 85, 100) is None
        assert shed_decision("transient", 100, 100) == "transient"

    def test_unknown_kinds_get_the_most_expensive_tier(self):
        assert shed_decision("mystery", 85, 100) is None
        assert shed_decision("mystery", 100, 100) == "mystery"

    def test_zero_capacity_sheds_everything(self):
        assert shed_decision("transient", 0, 0) == "transient"

    def test_default_thresholds_are_monotone(self):
        assert DEFAULT_SHED_THRESHOLDS == (0.7, 0.85, 1.0)
        assert list(DEFAULT_SHED_THRESHOLDS) == sorted(DEFAULT_SHED_THRESHOLDS)

    def test_latency_pressure_sheds_with_an_empty_queue(self):
        assert shed_decision("steady-state", 0, 100, latency_pressure=0.7) == "steady-state"
        assert shed_decision("scenario", 0, 100, latency_pressure=0.7) is None
        assert shed_decision("scenario", 0, 100, latency_pressure=0.85) == "scenario"
        assert shed_decision("transient", 0, 100, latency_pressure=0.99) is None
        assert shed_decision("transient", 0, 100, latency_pressure=1.0) == "transient"

    def test_load_is_the_max_of_depth_and_latency_pressure(self):
        assert shed_decision("steady-state", 69, 100, latency_pressure=0.69) is None
        assert shed_decision("steady-state", 69, 100, latency_pressure=0.7) == "steady-state"
        assert shed_decision("steady-state", 70, 100, latency_pressure=0.0) == "steady-state"

    def test_structured_shed_and_crash_payloads(self):
        shed = LoadShedError("overloaded", shard=2, tier="steady-state", retry_after=0.2)
        assert shed.http_status == 429
        assert shed.payload()["shard"] == 2
        assert shed.payload()["shed_tier"] == "steady-state"
        crash = WorkerCrashedError("died", shard=1)
        assert crash.http_status == 503
        assert crash.payload()["retryable"] is True
        assert crash.payload()["shard"] == 1


class TestBuildService:
    """One front for every worker count; only the shard transport differs."""

    def test_single_worker_builds_the_plain_service(self):
        service = SolverService(ServiceConfig(port=0, workers=1))
        assert [type(shard) for shard in service._shards] == [LocalShard]
        assert [shard.shard for shard in service._shards] == [0]

    def test_multiple_workers_build_the_sharded_service(self):
        service = SolverService(ServiceConfig(port=0, workers=3))
        assert [type(shard) for shard in service._shards] == [ProcessShard] * 3
        assert [shard.shard for shard in service._shards] == [0, 1, 2]


class TestWorkerProtocol:
    def test_worker_main_speaks_the_pipe_protocol_in_a_thread(self, tmp_path):
        """Drive one shard worker end to end without spawning a process."""
        parent, child = multiprocessing.Pipe()
        config = ShardWorkerConfig(
            shard=3, batch_window=0.001, cache_dir=str(tmp_path), spill_interval=0.0
        )
        thread = threading.Thread(target=worker_main, args=(config, child), daemon=True)
        thread.start()

        def receive(timeout: float = 60.0) -> tuple:
            assert parent.poll(timeout), "worker sent nothing in time"
            return parent.recv()

        assert receive() == ("ready", 3)
        model = sun_fitted_model(num_servers=4, arrival_rate=2.0)
        parent.send(("solve", 1, model, SolverPolicy(), None, "a" * 16))
        request_id, kind, result = receive()
        assert (request_id, kind) == (1, "ok")
        assert result["solver"] == "spectral"
        assert result["cached"] is False

        parent.send(("solve", 2, model, SolverPolicy(), None, "b" * 16))
        _, _, repeat = receive()
        assert repeat["cached"] is True

        parent.send(("unknown-kind", 99))  # ignored, must not kill the shard
        parent.send(("stats", 4))
        request_id, kind, stats = receive()
        assert (request_id, kind) == (4, "stats")
        assert stats["shard"] == 3
        assert stats["cache"]["solves"] == 1

        parent.send(("spill", 5))
        request_id, kind, count = receive()
        assert (request_id, kind, count) == (5, "spilled", 1)
        assert shard_cache_path(tmp_path, 3).exists()

        parent.send(("shutdown",))
        thread.join(timeout=30.0)
        assert not thread.is_alive()

    def test_sigterm_on_a_real_process_spills_then_exits_cleanly(self, tmp_path):
        """A spawned worker traps SIGTERM itself: spill the shard cache, exit 0.

        This must run against a real process, not the in-thread harness: the
        handler only installs in a process's main thread, and the regression
        being pinned here (shutdown written to the front-facing pipe end
        instead of the worker's own inbox) is invisible when the test itself
        holds the other pipe end.
        """
        context = multiprocessing.get_context("spawn")
        parent, child = context.Pipe()
        config = ShardWorkerConfig(
            shard=1, batch_window=0.001, cache_dir=str(tmp_path), spill_interval=0.0
        )
        process = context.Process(target=worker_main, args=(config, child))
        process.start()
        child.close()
        try:
            assert parent.poll(120.0), "worker never finished the ready handshake"
            assert parent.recv() == ("ready", 1)
            model = sun_fitted_model(num_servers=4, arrival_rate=2.0)
            parent.send(("solve", 1, model, SolverPolicy(), None, "c" * 16))
            assert parent.poll(120.0), "worker never answered the solve"
            _, kind, _ = parent.recv()
            assert kind == "ok"

            process.terminate()  # SIGTERM, the orchestrator stop signal
            process.join(timeout=60.0)
        finally:
            if process.is_alive():  # pragma: no cover - debugging aid
                process.kill()
                process.join(timeout=10.0)
        assert process.exitcode == 0, "SIGTERM must shut the worker down, not hang it"
        restored = SolutionCache()
        assert restored.load(shard_cache_path(tmp_path, 1)) == 1


@pytest.fixture(scope="module")
def sharded_service():
    """One live 4-shard service shared by the routing-invariant tests."""
    with ThreadedService(ServiceConfig(port=0, workers=4, batch_window=0.005)) as running:
        yield running


class TestShardedRouting:
    def test_identical_concurrent_requests_cost_one_solve_on_one_shard(
        self, sharded_service
    ):
        request = {"model": {"servers": 7, "arrival_rate": 4.31}}
        with ServiceClient(
            sharded_service.host, sharded_service.port, timeout=120.0
        ) as client:
            before = client.stats().payload["totals"]["solves"]

        async def run():
            async_client = AsyncServiceClient(
                sharded_service.host, sharded_service.port, timeout=120.0
            )
            return await asyncio.gather(*(async_client.solve(request) for _ in range(100)))

        responses = asyncio.run(run())
        assert [response.status for response in responses] == [200] * 100
        shards = {response.payload["shard"] for response in responses}
        assert len(shards) == 1  # same key, same shard, every time
        with ServiceClient(
            sharded_service.host, sharded_service.port, timeout=120.0
        ) as client:
            after = client.stats().payload["totals"]["solves"]
        assert after - before == 1

    def test_stats_aggregates_all_shards(self, sharded_service):
        with ServiceClient(
            sharded_service.host, sharded_service.port, timeout=120.0
        ) as client:
            client.solve_ok({"model": {"servers": 3, "arrival_rate": 1.1}})
            payload = client.stats().payload
        assert payload["workers"] == 4
        assert len(payload["shards"]) == 4
        assert {entry["shard"] for entry in payload["shards"]} == {0, 1, 2, 3}
        assert all(entry["state"] == "ready" for entry in payload["shards"])
        shedding = payload["shedding"]
        assert shedding["tier_order"] == ["steady-state", "scenario", "transient"]
        assert shedding["capacity"] > 0
        assert payload["totals"]["requests_total"] >= 1

    def test_healthz_reports_pool_readiness(self, sharded_service):
        with ServiceClient(
            sharded_service.host, sharded_service.port, timeout=120.0
        ) as client:
            payload = client.healthz().payload
        assert payload["workers"] == 4
        assert payload["workers_ready"] == 4
        # The keys both tiers build from one helper.
        assert payload["version"] == package_version()
        assert payload["runtime"] == blas_runtime()


class TestShardedTraceAPI:
    def test_trace_lookup_merges_worker_spans_onto_the_front_clock(
        self, sharded_service
    ):
        """The acceptance pin: GET /traces/<id> against a 4-shard service
        returns the full admission → queue-wait → solve span tree, with the
        worker-recorded spans re-based onto the front's clock."""
        with ServiceClient(
            sharded_service.host, sharded_service.port, timeout=120.0
        ) as client:
            payload = client.solve_ok({"model": {"servers": 11, "arrival_rate": 6.05}})
            trace_id = payload["trace_id"]

            found = client.trace(trace_id)
            assert found.status == 200
            trace = found.payload["trace"]
            assert trace["trace_id"] == trace_id
            spans = {span["name"]: span for span in trace["spans"]}
            assert {"admission", "queue-wait", "solve"} <= set(spans)
            # Re-based worker spans live on the front's clock: the worker's
            # solve cannot start before the front-recorded admission span.
            assert spans["solve"]["start_ms"] >= spans["admission"]["start_ms"]
            assert spans["solve"]["annotations"]["solver"] == "spectral"
            assert spans["queue-wait"]["duration_ms"] >= 0.0

            listing = client.traces(limit=50)
            assert listing.status == 200
            assert any(
                entry["trace_id"] == trace_id for entry in listing.payload["traces"]
            )

            missing = client.trace("f" * 16)
            assert missing.status == 404
            assert missing.payload["error"]["code"] == "not-found"


class TestCrashRecovery:
    def test_killed_worker_surfaces_retryable_error_then_recovers(self):
        request = {"model": {"servers": 6, "arrival_rate": 3.3}}
        with ThreadedService(
            ServiceConfig(port=0, workers=2, batch_window=0.002)
        ) as running:
            with ServiceClient(running.host, running.port, timeout=120.0) as client:
                first = client.solve_ok(request)
                shard = first["shard"]
                process = running.service._shards[shard].process
                process.kill()
                process.join()

                saw_crash_error = False
                recovered = None
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    response = client.solve(request)
                    if response.ok:
                        recovered = response.payload
                        break
                    error = response.payload["error"]
                    assert error["code"] == "worker-crashed"
                    assert error["shard"] == shard
                    assert error["retryable"] is True
                    saw_crash_error = True
                    time.sleep(0.2)
                assert saw_crash_error, "the crash window surfaced no structured error"
                assert recovered is not None, "the shard never recovered"
                assert recovered["shard"] == shard  # identity rehash
                stats = client.stats().payload
                assert stats["shards"][shard]["restarts"] >= 1

    def test_concurrent_scrapes_across_a_respawn_never_double_count(self):
        """/metrics under concurrent scrape while a worker dies and respawns:
        every scrape must parse with each series rendered exactly once, and
        the restart counts exactly one respawn."""
        with ThreadedService(
            ServiceConfig(port=0, workers=2, batch_window=0.002)
        ) as running:
            with ServiceClient(running.host, running.port, timeout=120.0) as client:
                first = client.solve_ok({"model": {"servers": 4, "arrival_rate": 2.2}})
                shard = first["shard"]

                texts: list[str] = []
                errors: list[Exception] = []
                stop = threading.Event()

                def scrape():
                    try:
                        with ServiceClient(
                            running.host, running.port, timeout=120.0
                        ) as scraper:
                            while not stop.is_set():
                                status, text = scraper.metrics()
                                assert status == 200
                                texts.append(text)
                    except Exception as exc:  # pragma: no cover - failure signal
                        errors.append(exc)

                scrapers = [threading.Thread(target=scrape) for _ in range(3)]
                for thread in scrapers:
                    thread.start()
                process = running.service._shards[shard].process
                process.kill()
                process.join()
                recovered = False
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    if client.healthz().payload.get("workers_ready") == 2:
                        recovered = True
                        break
                    time.sleep(0.1)
                stop.set()
                for thread in scrapers:
                    thread.join(timeout=60.0)
                assert errors == []
                assert recovered, "the pool never returned to full readiness"
                assert texts, "the scrapers never completed a scrape"
                status, text = client.metrics()
        assert status == 200
        for scraped in texts + [text]:
            # The value is the last field; label values may contain spaces.
            series = [
                line.rsplit(" ", 1)[0]
                for line in scraped.splitlines()
                if line and not line.startswith("#")
            ]
            assert len(series) == len(set(series)), "a series rendered twice"
        restarts = sum(
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_worker_restarts_total")
        )
        assert restarts == 1.0

    def test_simultaneous_crash_reports_respawn_only_once(self):
        """The health check and the pipe-EOF callback can both report one
        death; retiring the generation on the loop lets only the first
        schedule a respawn, so a shard never ends up with two processes."""

        async def run():
            shard = ProcessShard(ShardWorkerConfig(shard=0))
            shard._loop = asyncio.get_running_loop()
            shard._first_ready = shard._loop.create_future()
            shard._first_ready.set_result(True)
            respawned: list[int] = []

            async def fake_respawn():
                respawned.append(shard.shard)

            shard._respawn = fake_respawn
            shard.state = "ready"
            generation = shard.generation
            shard._on_down(generation)  # health check wins
            shard._on_down(generation)  # stale EOF report
            await asyncio.sleep(0)
            assert respawned == [0]
            assert shard.restarts == 1

        asyncio.run(run())


class TestStartupFailure:
    def test_a_worker_dying_before_its_handshake_fails_start_at_once(self, monkeypatch):
        """A shard that was never ready is broken, not crashed: no respawn
        loop until the handshake timeout, but an immediate start-up failure
        that names the shard and its exit code, with no child left behind."""
        monkeypatch.setattr(sharding, "worker_main", exit_at_once)
        before = set(multiprocessing.active_children())
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="failed to start") as failure:
            ThreadedService(ServiceConfig(port=0, workers=2)).start()
        assert time.monotonic() - started < 10.0
        assert "exited with code 3 before its ready handshake" in str(failure.value.__cause__)
        assert set(multiprocessing.active_children()) - before == set()


class TestControlPlaneAdmission:
    def test_stats_polling_does_not_count_toward_admission_or_healthz(self):
        """In-flight stats/spill queries must never shed real solve traffic
        or inflate the reported queue depth."""

        async def run():
            service = SolverService(ServiceConfig(port=0, workers=2, max_queue=4))
            loop = asyncio.get_running_loop()
            shard = service._shards[0]
            shard.state = "ready"
            for request_id in range(100):
                shard.waiters[request_id] = loop.create_future()
            service._admit("steady-state", 0)  # must not raise
            assert service._healthz_payload()["queue_depth"] == 0

        asyncio.run(run())

    def test_latency_pressure_sheds_an_idle_queue(self):
        """The front's admission consults measured latency: SLO pressure
        alone sheds the cheap tier while zero requests are pending."""

        async def run():
            service = SolverService(ServiceConfig(port=0, workers=2, max_queue=8))
            service._shards[0].state = "ready"
            service._admit("steady-state", 0)  # healthy tracker: admitted
            for _ in range(20):
                service.slo.observe_queue_wait(50.0)  # way over the 2 s target
            assert service.slo.pressure() >= 1.0
            with pytest.raises(LoadShedError) as shed:
                service._admit("steady-state", 0)
            assert shed.value.payload()["shed_tier"] == "steady-state"
            assert sum(shard.inflight for shard in service._shards) == 0

        asyncio.run(run())


class TestSpillRestartLoad:
    def test_restart_serves_yesterdays_answer_without_resolving(self, tmp_path):
        request = {"model": {"servers": 5, "arrival_rate": 2.57}}
        config = ServiceConfig(
            port=0,
            workers=2,
            batch_window=0.002,
            cache_dir=str(tmp_path),
            spill_interval=0.0,
        )
        with ThreadedService(config) as running:
            with ServiceClient(running.host, running.port, timeout=120.0) as client:
                first = client.solve_ok(request)
                assert first["cached"] is False
        # Graceful shutdown spilled every shard's snapshot.
        snapshots = sorted(entry.name for entry in tmp_path.iterdir())
        assert snapshots == ["shard-0.json", "shard-1.json"]

        with ThreadedService(config) as running:
            with ServiceClient(running.host, running.port, timeout=120.0) as client:
                second = client.solve_ok(request)
                stats = client.stats().payload
        assert second["cached"] is True
        assert second["shard"] == first["shard"]
        assert second["metrics"] == first["metrics"]
        assert stats["totals"]["solves"] == 0  # served from the loaded snapshot
