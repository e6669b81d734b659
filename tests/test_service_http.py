"""Integration tests of the running solver service, over real sockets.

A :class:`ThreadedService` on an ephemeral port backs each test; the
synchronous and asyncio clients drive it exactly as external consumers
would.  The headline acceptance criteria live here: all three query kinds
answered concurrently, 100 concurrent identical requests producing exactly
one underlying solve (pinned by the ``/stats`` coalesced counter), and the
overload/deadline paths returning structured errors.

Every test class runs against both shard kinds: the base classes with one
shard on the front's event loop (``workers = 1``), their ``OnTwoShards``
subclasses with two worker processes.  Tests that need no special config
share one service per kind for the whole module, so the module pays the
worker spawn once.  :class:`TestOneContract` pins that both kinds speak the
same HTTP contract.
"""

from __future__ import annotations

import asyncio
import json
import logging

import numpy as np
import pytest

from repro.service import (
    AsyncServiceClient,
    ServiceCallError,
    ServiceClient,
    ServiceConfig,
    ThreadedService,
)
from repro.spectral import solution as spectral_solution
from repro.spectral.eigen import invert


@pytest.fixture(scope="module")
def running_services():
    """One shared service per shard count, started on first use.

    The 4 KiB body bound is for ``test_payload_too_large``; every other
    request the shared services see is far smaller.
    """
    running: dict[int, ThreadedService] = {}

    def get(workers: int) -> ThreadedService:
        if workers not in running:
            config = ServiceConfig(
                port=0, workers=workers, batch_window=0.005, max_body_bytes=4096
            )
            running[workers] = ThreadedService(config).start()
        return running[workers]

    yield get
    for service in running.values():
        service.stop()


@pytest.fixture
def service(request, running_services):
    return running_services(request.cls.workers)


@pytest.fixture
def client(service):
    with ServiceClient(service.host, service.port, timeout=120.0) as sync_client:
        yield sync_client


class TestEndpoints:
    workers = 1

    def test_steady_state_query(self, client):
        payload = client.solve_ok({"model": {"servers": 4, "arrival_rate": 2.0}})
        assert payload["query"] == "steady-state"
        assert payload["solver"] == "spectral"
        assert payload["stable"] is True
        assert payload["metrics"]["mean_queue_length"] > 0
        assert payload["metrics"]["mean_response_time"] > 0

    def test_scenario_query(self, client):
        for preset in ("single-repairman", "repair-starved-two-speed"):
            payload = client.solve_ok({"query": "scenario", "preset": preset})
            assert payload["solver"] == "spectral"
            assert 0.0 < payload["metrics"]["decay_rate"] < 1.0

    def test_transient_query(self, client):
        payload = client.solve_ok(
            {
                "query": "transient",
                "model": {"servers": 3, "arrival_rate": 1.5},
                "times": [1.0, 5.0, 20.0],
            }
        )
        assert payload["solver"] == "transient"
        assert payload["metrics"]["evaluation_time"] == 20.0
        assert 0.0 <= payload["metrics"]["availability"] <= 1.0

    def test_singular_pivot_is_answered_by_the_next_solver(self, client, monkeypatch):
        # A singular matrix in the exact solve must fall through the solver
        # policy instead of answering 500.  No model meets one any more, but
        # this shard solves in the test's process, so every inversion of the
        # level reduction can be handed a zero matrix.
        monkeypatch.setattr(
            spectral_solution, "invert", lambda matrix: invert(np.zeros_like(matrix))
        )
        payload = client.solve_ok(
            {
                "model": {
                    "servers": 3,
                    "arrival_rate": 1e-300,
                    "operative_mean": 10,
                    "operative_scv": 1,
                    "repair_mean": 1,
                }
            }
        )
        assert payload["solver"] == "geometric"

    def test_repeat_query_is_served_from_cache(self, client):
        request = {"model": {"servers": 5, "arrival_rate": 3.0}}
        first = client.solve_ok(request)
        second = client.solve_ok(request)
        assert not first["cached"]
        assert second["cached"]
        assert second["metrics"] == first["metrics"]

    def test_healthz(self, client):
        response = client.healthz()
        assert response.status == 200
        assert response.payload["status"] == "ok"
        assert response.payload["uptime_seconds"] >= 0
        assert "queue_depth" in response.payload

    def test_stats_exposes_scheduler_and_cache_counters(self, client):
        shard = client.solve_ok({"model": {"servers": 4, "arrival_rate": 2.0}})["shard"]
        payload = client.stats().payload
        scheduler = payload["shards"][shard]["scheduler"]
        assert scheduler["requests_total"] >= 1
        assert scheduler["batches_total"] >= 1
        cache = scheduler["cache"]
        for key in ("hits", "misses", "hit_rate", "size", "maxsize", "solves", "evictions"):
            assert key in cache
        assert cache["solves"] >= 1

    def test_all_three_query_kinds_concurrently(self, service):
        """One service instance answers heterogeneous queries side by side."""
        queries = [
            {"model": {"servers": 4, "arrival_rate": 2.0}},
            {"query": "scenario", "preset": "single-repairman"},
            {
                "query": "transient",
                "model": {"servers": 3, "arrival_rate": 1.5},
                "times": [2.0, 10.0],
            },
        ]

        async def run():
            async_client = AsyncServiceClient(service.host, service.port, timeout=120.0)
            return await asyncio.gather(*(async_client.solve(query) for query in queries))

        responses = asyncio.run(run())
        assert [response.status for response in responses] == [200, 200, 200]
        assert [response.payload["solver"] for response in responses] == [
            "spectral",
            "spectral",
            "transient",
        ]


class TestSingleFlight:
    workers = 1

    def test_100_identical_requests_produce_exactly_one_solve(self):
        # A generous batch window guarantees every request lands while the
        # computation is queued or in flight, whatever the CI machine's pace.
        config = ServiceConfig(port=0, workers=self.workers, batch_window=0.5)
        with ThreadedService(config) as service:
            request = {"model": {"servers": 6, "arrival_rate": 4.0}, "solvers": ["ctmc"]}

            async def run():
                async_client = AsyncServiceClient(service.host, service.port, timeout=120.0)
                return await asyncio.gather(*(async_client.solve(request) for _ in range(100)))

            responses = asyncio.run(run())
            assert all(response.ok for response in responses)
            metrics = {
                json.dumps(response.payload["metrics"], sort_keys=True)
                for response in responses
            }
            assert len(metrics) == 1  # everyone got the same answer

            with ServiceClient(service.host, service.port) as sync_client:
                totals = sync_client.stats().payload["totals"]
            # The acceptance pin: one scheduled computation, one real solve,
            # and the coalesced counter accounts for every other request.
            assert totals["scheduled_total"] == 1
            assert totals["solves"] == 1
            assert totals["coalesced_total"] == 99
            assert sum(response.payload["coalesced"] for response in responses) == 99


class TestStructuredErrors:
    workers = 1

    def test_malformed_json(self, client):
        response = client.raw("POST", "/solve", b"{not json")
        assert response.status == 400
        assert response.error_code == "bad-json"

    def test_empty_body(self, client):
        response = client.raw("POST", "/solve", b"")
        assert response.status == 400
        assert response.error_code == "bad-request"

    def test_unknown_solver(self, client):
        response = client.solve({"model": {"servers": 2, "arrival_rate": 1.0}, "solvers": ["zap"]})
        assert response.status == 400
        assert response.error_code == "unknown-solver"

    def test_unknown_preset(self, client):
        response = client.solve({"query": "scenario", "preset": "nope"})
        assert response.status == 400
        assert response.error_code == "unknown-preset"

    def test_unstable_model(self, client):
        response = client.solve({"model": {"servers": 2, "arrival_rate": 50.0}})
        assert response.status == 422
        assert response.error_code == "unstable-model"

    def test_deadline_exceeded(self, client):
        response = client.solve(
            {
                "model": {"servers": 5, "arrival_rate": 3.0},
                "solvers": ["simulate"],
                "simulate": {"horizon": 30000.0},
                "deadline": 0.01,
            }
        )
        assert response.status == 504
        assert response.error_code == "deadline-exceeded"

    def test_queue_full(self):
        # max_queue=1 and a long window: an admitted request stays in flight
        # for the whole window, so each shard admits one and sheds the rest.
        # On two shards these three requests span both shards: two admitted.
        config = ServiceConfig(
            port=0, workers=self.workers, batch_window=1.0, max_queue=1
        )
        with ThreadedService(config) as service:
            requests = [
                {"model": {"servers": 3, "arrival_rate": 0.5 + 0.25 * index}}
                for index in range(3)
            ]

            async def run():
                async_client = AsyncServiceClient(service.host, service.port, timeout=120.0)
                return await asyncio.gather(
                    *(async_client.solve(request) for request in requests)
                )

            responses = asyncio.run(run())
            rejected = [r for r in responses if r.status == 429]
            assert len(rejected) == 3 - self.workers
            for response in rejected:
                assert response.error_code == "load-shed"
                assert response.payload["error"]["shed_tier"] == "steady-state"
                assert float(response.headers["retry-after"]) > 0
                assert response.payload["error"]["retry_after"] > 0
            assert sum(1 for r in responses if r.ok) == self.workers

    def test_not_found(self, client):
        response = client.raw("GET", "/nope")
        assert response.status == 404
        assert response.error_code == "not-found"

    def test_method_not_allowed(self, client):
        response = client.raw("GET", "/solve")
        assert response.status == 405
        assert response.error_code == "method-not-allowed"
        response = client.raw("POST", "/stats")
        assert response.status == 405

    def test_payload_too_large(self, client):
        response = client.raw("POST", "/solve", b"x" * 8192)
        assert response.status == 413
        assert response.error_code == "payload-too-large"

    def test_oversized_header_line_drops_the_connection_quietly(self, service):
        """A >64 KiB header line must not traceback-spam the server log."""
        import socket

        with socket.create_connection((service.host, service.port), timeout=10.0) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 80_000 + b"\r\n\r\n")
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        assert b"".join(chunks) == b""  # dropped, no half-written response
        # The service survived and still answers on fresh connections.
        with ServiceClient(service.host, service.port) as sync_client:
            assert sync_client.healthz().status == 200

    def test_errors_are_counted_by_code(self, client):
        # The service is shared across the module, so count the increments.
        before = client.stats().payload
        client.solve({"model": {"servers": 2, "arrival_rate": 50.0}})
        client.raw("POST", "/solve", b"{not json")
        payload = client.stats().payload
        for code in ("unstable-model", "bad-json"):
            counted = payload["errors_by_code"][code] - before["errors_by_code"].get(code, 0)
            assert counted == 1
        assert payload["errors_total"] - before["errors_total"] >= 2

    def test_solve_ok_raises_a_typed_error(self, client):
        with pytest.raises(ServiceCallError, match=r"\[unstable-model\]"):
            client.solve_ok({"model": {"servers": 2, "arrival_rate": 50.0}})


class TestEndpointsOnTwoShards(TestEndpoints):
    workers = 2

    def test_singular_pivot_is_answered_by_the_next_solver(self, client):
        # A worker process does not see a patched ``invert``; the exact solve
        # of an oversize chain still fails there, before any matrix is built.
        payload = client.solve_ok({"model": {"servers": 300, "arrival_rate": 150}})
        assert payload["solver"] == "geometric"


class TestSingleFlightOnTwoShards(TestSingleFlight):
    workers = 2


class TestStructuredErrorsOnTwoShards(TestStructuredErrors):
    workers = 2


def _overload_and_bad_request(workers: int) -> dict:
    """Send one overload and one bad request; collect what a client sees."""
    config = ServiceConfig(port=0, workers=workers, batch_window=1.0, max_queue=1)
    request = {"model": {"servers": 3, "arrival_rate": 0.5}}
    with ThreadedService(config) as service:

        async def run():
            async_client = AsyncServiceClient(service.host, service.port, timeout=120.0)
            return await asyncio.gather(*(async_client.solve(request) for _ in range(3)))

        responses = asyncio.run(run())
        with ServiceClient(service.host, service.port, timeout=120.0) as client:
            bad = client.solve({"model": {"servers": 2, "arrival_rate": 1.0}, "solvers": ["zap"]})
            healthz = client.healthz().payload
            stats = client.stats().payload
    solved = next(response.payload for response in responses if response.ok)
    return {
        "overload": sorted(
            (
                response.status,
                response.error_code,
                response.payload["error"].get("shed_tier") if not response.ok else None,
            )
            for response in responses
        ),
        "bad_request": (bad.status, bad.error_code),
        "solve_keys": sorted(solved),
        "healthz_keys": sorted(healthz),
        "stats_keys": sorted(stats),
        "shard_keys": sorted(stats["shards"][0]),
        "totals_keys": sorted(stats["totals"]),
        "shedding": (stats["shedding"]["shed_total"], stats["shedding"]["by_tier"]),
    }


class TestOneContract:
    def test_both_shard_kinds_answer_alike(self):
        """The same overload and the same bad request get the same answers
        from one in-process shard and from two worker processes, and every
        payload carries the same keys."""
        in_process = _overload_and_bad_request(1)
        assert in_process == _overload_and_bad_request(2)
        assert in_process["overload"] == [
            (200, None, None),
            (429, "load-shed", "steady-state"),
            (429, "load-shed", "steady-state"),
        ]
        assert in_process["bad_request"] == (400, "unknown-solver")
        assert "shard" in in_process["solve_keys"]
        assert {"workers", "workers_ready"} <= set(in_process["healthz_keys"])
        assert {"workers", "shedding", "shards", "totals"} <= set(in_process["stats_keys"])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stop_with_an_open_keep_alive_connection_logs_nothing(self, workers, caplog):
        """stop() closes idle keep-alive connections itself, so no handler
        task is left to be cancelled at loop teardown (which Python 3.11
        reports as an "Exception in callback" traceback)."""
        caplog.set_level(logging.WARNING, logger="asyncio")
        service = ThreadedService(ServiceConfig(port=0, workers=workers)).start()
        clients = [ServiceClient(service.host, service.port, timeout=60.0) for _ in range(3)]
        try:
            for client in clients:
                assert client.healthz().status == 200  # the connection stays open
            service.stop()
        finally:
            for client in clients:
                client.close()
        asyncio_records = [record for record in caplog.records if record.name == "asyncio"]
        assert asyncio_records == []
