"""Tour of the solver service: queries, coalescing, backpressure, stats.

Embeds a :class:`~repro.service.ThreadedService` in-process (the same server
``repro serve`` runs standalone, here with its one shard on the service's own
event loop), then demonstrates the serving features one by one: the three
query kinds, cache-accelerated repeats, single-flight coalescing of a burst
of identical requests, a deliberately missed deadline, and the ``/stats``
observability payload (totals, shedding and one entry per shard).

Run with::

    PYTHONPATH=src python examples/service_client.py

Against a standalone server instead::

    PYTHONPATH=src python -m repro serve --port 8080
    curl -s -X POST http://127.0.0.1:8080/solve \
        -d '{"model": {"servers": 10, "arrival_rate": 7.0}}'
"""

from __future__ import annotations

import asyncio

from repro.service import (
    AsyncServiceClient,
    ServiceClient,
    ServiceConfig,
    ThreadedService,
)


def query_each_kind(client: ServiceClient) -> None:
    print("== one query of each kind ==")
    queries = [
        {"model": {"servers": 10, "arrival_rate": 7.0}},
        {"query": "scenario", "preset": "two-speed-cluster"},
        {
            "query": "transient",
            "model": {"servers": 4, "arrival_rate": 2.0},
            "times": [1.0, 5.0, 25.0],
        },
    ]
    for query in queries:
        payload = client.solve_ok(query)
        metrics = payload["metrics"]
        headline = metrics.get("mean_queue_length")
        print(
            f"  {payload['query']:>12} -> solver={payload['solver']:<9} "
            f"L={headline:8.4f}  ({payload['elapsed_ms']:.1f} ms)"
        )
    repeat = client.solve_ok(queries[0])
    print(f"  repeat of the first query: cached={repeat['cached']}")


def burst_of_identical_requests(service: ThreadedService) -> None:
    print("\n== single-flight: 50 identical concurrent requests ==")
    request = {"model": {"servers": 8, "arrival_rate": 5.5}, "solvers": ["ctmc"]}

    async def burst():
        client = AsyncServiceClient(service.host, service.port)
        return await asyncio.gather(*(client.solve(request) for _ in range(50)))

    responses = asyncio.run(burst())
    coalesced = sum(response.payload["coalesced"] for response in responses)
    print(f"  {len(responses)} answers, {coalesced} coalesced onto one computation")


def missed_deadline(client: ServiceClient) -> None:
    print("\n== a deadline the simulator cannot meet ==")
    response = client.solve(
        {
            "model": {"servers": 5, "arrival_rate": 3.0},
            "solvers": ["simulate"],
            "simulate": {"horizon": 30000.0},
            "deadline": 0.01,
        }
    )
    error = response.payload["error"]
    print(f"  HTTP {response.status}: error.code={error['code']!r}")
    print("  (the solve still completes in the background and lands in the cache)")


def service_stats(client: ServiceClient) -> None:
    print("\n== /stats ==")
    payload = client.stats().payload
    totals = payload["totals"]
    print(
        f"  requests={totals['requests_total']}  "
        f"coalesced={totals['coalesced_total']}  "
        f"batches={totals['batches_total']}  "
        f"rejected={totals['rejected_total']}  "
        f"shed={payload['shedding']['shed_total']}"
    )
    for entry in payload["shards"]:
        cache = entry["scheduler"]["cache"]
        print(
            f"  shard {entry['shard']} cache: solves={cache['solves']}  hits={cache['hits']}  "
            f"hit_rate={cache['hit_rate']:.2f}  size={cache['size']}"
        )


def main() -> None:
    with ThreadedService(ServiceConfig(port=0, batch_window=0.01)) as service:
        print(f"service listening on {service.address}\n")
        with ServiceClient(service.host, service.port) as client:
            query_each_kind(client)
            burst_of_identical_requests(service)
            missed_deadline(client)
            service_stats(client)


if __name__ == "__main__":
    main()
