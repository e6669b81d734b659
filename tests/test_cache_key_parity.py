"""Spilled solution-cache snapshots keep hitting across model-class changes.

``tests/golden/cache_key_snapshot.json`` is a :meth:`SolutionCache.spill`
snapshot of steady-state, scenario and transient request bodies (written
into the same file), solved while the paper's pool was a class of its own.
Every body must still parse into a model and policy whose
:func:`solution_cache_key` is one of the snapshot's keys: a shard that loads
a snapshot spilled by an older build keeps answering from it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.query import parse_request
from repro.solvers import SolutionCache, solution_cache_key

SNAPSHOT = Path(__file__).parent / "golden" / "cache_key_snapshot.json"
BODIES = json.loads(SNAPSHOT.read_text())["bodies"]


@pytest.fixture(scope="module")
def snapshot() -> SolutionCache:
    cache = SolutionCache()
    assert cache.load(SNAPSHOT) == len(BODIES)
    return cache


def test_the_bodies_cover_every_query_kind() -> None:
    kinds = {body.get("query", "steady-state") for body in BODIES}
    assert kinds == {"steady-state", "scenario", "transient"}


@pytest.mark.parametrize("index", range(len(BODIES)))
def test_every_body_keys_into_the_snapshot(snapshot: SolutionCache, index: int) -> None:
    request = parse_request(BODIES[index])
    assert solution_cache_key(request.model, request.policy) in snapshot


def test_model_bodies_key_as_the_pool_and_presets_as_scenarios() -> None:
    for body in BODIES:
        request = parse_request(body)
        key = solution_cache_key(request.model, request.policy)
        if "preset" in body:
            assert key[0] == "scenario"
        else:
            assert key[0] == request.model.num_servers
