"""The workloads and the seeded inputs they send.

Everything here is plain data drawn from ``random.Random(seed)``: the same
seed yields the same request or model sequence, and the programs under test
only ever see the generated requests or models.
"""

from __future__ import annotations

import random

#: Workload name -> why it exists (mirrored in BENCHMARK.json).
WORKLOADS = {
    "serve_cold": (
        "distinct steady-state keys over HTTP: every request misses the cache "
        "and runs a small dense spectral solve under concurrency"
    ),
    "serve_hot": (
        "64 warmed keys of all three query kinds over HTTP: every request is a "
        "cache hit, so front, protocol, routing, pipe and cache reads dominate"
    ),
    "paper_sweep": (
        "the paper's Figure 5/8/9 grids through the parallel figure runners: "
        "few large spectral solves, geometric, the process pool and warm starts"
    ),
    "chain_batch": (
        "serial sparse chains: scenario CTMC grid, the 81k-state lumped chain, "
        "transient and first-passage uniformization, one scenario simulation"
    ),
}

SERVING = ("serve_cold", "serve_hot")
BATCH = ("paper_sweep", "chain_batch")

#: The workloads BENCHMARK.json gates.  ``serve_hot`` runs but is left out:
#: on a shared 2-CPU host its figures spread by 24-40% between runs.
GATED = ("serve_cold", "paper_sweep", "chain_batch")

#: Mean operative period of the Sun fit and the Figure-5 mean repair time:
#: the steady-state model the service builds by default.
_OPERATIVE_MEAN = 34.62
_REPAIR_MEAN = 0.04
_AVAILABILITY = _OPERATIVE_MEAN / (_OPERATIVE_MEAN + _REPAIR_MEAN)

#: Server counts of the cold workload (10 to 45 environment modes).
COLD_SERVERS = (3, 4, 5, 6, 7, 8)

#: Size of the hot working set and its split over the three query kinds.
HOT_KEYS = 64
HOT_STEADY, HOT_SCENARIO = 40, 12  # the remaining 12 are transient

#: Scenario presets the hot set draws from.
PRESETS = (
    "legacy-homogeneous",
    "two-speed-cluster",
    "single-repairman",
    "repair-starved-two-speed",
)


def _steady_request(rng: random.Random, servers: int) -> dict:
    load = 0.30 + 0.50 * rng.random()
    rate = round(load * servers * _AVAILABILITY, 9)
    return {"model": {"servers": servers, "arrival_rate": rate}}


def cold_requests(seed: int, count: int) -> list[dict]:
    """``count`` distinct steady-state requests, N cycling over 3-8 at loads
    0.3-0.8, so none repeats a solution key."""
    rng = random.Random(f"serve_cold:{seed}")
    seen: set[tuple[int, float]] = set()
    requests: list[dict] = []
    while len(requests) < count:
        servers = COLD_SERVERS[len(requests) % len(COLD_SERVERS)]
        request = _steady_request(rng, servers)
        key = (servers, request["model"]["arrival_rate"])
        if key not in seen:
            seen.add(key)
            requests.append(request)
    return requests


def hot_set(seed: int) -> list[dict]:
    """The 64 distinct keys ``serve_hot`` warms and then repeats."""
    rng = random.Random(f"serve_hot:{seed}")
    keys: list[dict] = []
    seen: set[str] = set()

    def add(request: dict) -> None:
        marker = repr(sorted(request.items()))
        if marker not in seen:
            seen.add(marker)
            keys.append(request)

    while len(keys) < HOT_STEADY:
        add(_steady_request(rng, COLD_SERVERS[len(keys) % len(COLD_SERVERS)]))
    while len(keys) < HOT_STEADY + HOT_SCENARIO:
        preset = PRESETS[len(keys) % len(PRESETS)]
        add(
            {
                "query": "scenario",
                "preset": preset,
                "arrival_rate": round(0.6 + 0.8 * rng.random(), 6),
                "repair_capacity": rng.choice((1, 2)),
            }
        )
    while len(keys) < HOT_KEYS:
        servers = rng.choice((2, 3))
        add(
            {
                "query": "transient",
                "model": {
                    "servers": servers,
                    "arrival_rate": round((0.3 + 0.4 * rng.random()) * servers, 6),
                },
                "times": [1.0, 5.0, round(10.0 + 10.0 * rng.random(), 3)],
            }
        )
    return keys


def hot_sequence(seed: int, count: int) -> list[int]:
    """Indices into :func:`hot_set`, drawn uniformly: the hot request order."""
    rng = random.Random(f"serve_hot:sequence:{seed}")
    return [rng.randrange(HOT_KEYS) for _ in range(count)]


def warmup_requests(seed: int, workers: int) -> list[dict]:
    """Distinct keys (outside the cold sequence) that load every shard's
    solver modules before the timed window."""
    rng = random.Random(f"serve_warmup:{seed}")
    return [
        _steady_request(rng, COLD_SERVERS[index % len(COLD_SERVERS)])
        for index in range(4 * workers)
    ]


# -- batch workloads -------------------------------------------------------------

#: Figure 5: one arrival rate per round over N = 9, 12, 15 (55-136 modes).
#: N = 17 (171 modes) is left out: under the default BLAS threading one
#: parallel call with it took 7.8-14.5 s from run to run, too unsteady to gate.
FIGURE5_RATES = (7.0, 8.0, 8.5)
FIGURE5_SERVERS = (9, 12, 15)
#: Figure 8: one load from each band per round (N = 10).
FIGURE8_BANDS = ((0.89, 0.90, 0.91), (0.93, 0.94, 0.95), (0.97, 0.98, 0.99))
#: Figure 9: the server counts around the paper's answer of 9.
FIGURE9_SERVERS = (8, 9, 10)


def paper_sweep_round(rng: random.Random) -> dict:
    """One round of the paper's grids; ``rng`` is the workload's stream."""
    return {
        "calls": ["figure5", "figure8", "figure9"],
        "figure5_rate": rng.choice(FIGURE5_RATES),
        "figure8_loads": sorted(rng.choice(band) for band in FIGURE8_BANDS),
    }


def paper_sweep_points(spec: dict) -> int:
    """Grid points one round solves (sizing searches are not grid points)."""
    return len(FIGURE5_SERVERS) + 2 * len(spec["figure8_loads"]) + 2 * len(FIGURE9_SERVERS)


#: Scenario CTMC grid: arrival-rate factors (one per band per round) and
#: repair capacities, for every preset.
CHAIN_FACTOR_BANDS = ((0.60, 0.65), (0.75, 0.80), (0.90, 0.95))
CHAIN_CAPACITIES = (1, 2, 3)
#: Homogeneous transient and first-passage models: (servers, arrival rate).
TRANSIENT_MODELS = ((4, 2.4), (4, 2.6), (4, 2.8))
PASSAGE_MODELS = ((3, 1.5), (3, 1.6), (3, 1.7))
TRANSIENT_TIMES = (1.0, 5.0, 20.0, 100.0)
PASSAGE_TIMES = (10.0, 100.0)
QUEUE_PASSAGE_TIMES = (1.0, 10.0, 100.0)
QUEUE_PASSAGE_THRESHOLD = 8
SCENARIO_TRANSIENT_PRESETS = ("single-repairman", "two-speed-cluster")
SIMULATED_PRESET = "repair-starved-two-speed"
SIMULATION_HORIZON = 20_000.0


def chain_batch_round(rng: random.Random) -> dict:
    """One round of the sparse-chain batch; ``rng`` is the workload's stream."""
    return {
        "calls": ["ctmc_grid", "lumped", "transient", "first_passage", "simulation"],
        "factors": [rng.choice(band) for band in CHAIN_FACTOR_BANDS],
        "transient_model": list(rng.choice(TRANSIENT_MODELS)),
        "passage_model": list(rng.choice(PASSAGE_MODELS)),
        "simulation_seed": rng.randrange(2**31),
    }


def chain_batch_points(spec: dict) -> int:
    """Models one round solves: the CTMC grid, the lumped chain, three
    transient solves, two first passages and one simulation."""
    grid = len(PRESETS) * len(spec["factors"]) * len(CHAIN_CAPACITIES)
    return grid + 1 + 1 + len(SCENARIO_TRANSIENT_PRESETS) + 2 + 1


def batch_rounds(workload: str, seed: int):
    """The endless, seeded sequence of round specs of a batch workload."""
    rng = random.Random(f"{workload}:{seed}")
    make = paper_sweep_round if workload == "paper_sweep" else chain_batch_round
    while True:
        yield make(rng)
