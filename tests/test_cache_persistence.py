"""Tests for :class:`~repro.solvers.SolutionCache` spill/load snapshots.

The sharded serving tier survives restarts by spilling each shard's cache to
JSON and reloading it on startup; these tests pin the snapshot contract the
workers rely on — exact key round trips (including the policy), atomic
writes, cold-start semantics for missing files, a loud
:class:`~repro.exceptions.CachePersistenceError` for corrupt ones, and
best-effort skipping of entries the codec cannot represent.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import CachePersistenceError
from repro.queueing import sun_fitted_model
from repro.solvers import SolutionCache, SolverPolicy, evaluate, solution_cache_key
from repro.solvers.cache import SPILL_FORMAT_VERSION


def _solved_cache(policy: SolverPolicy | None = None) -> tuple[SolutionCache, tuple]:
    """A cache holding one genuinely solved outcome, plus its key."""
    cache = SolutionCache()
    model = sun_fitted_model(num_servers=4, arrival_rate=2.0)
    policy = policy if policy is not None else SolverPolicy()
    outcome = evaluate(model, policy)
    key = solution_cache_key(model, policy)
    cache.store(key, outcome)
    return cache, key


class TestSpillLoadRoundTrip:
    def test_round_trip_preserves_key_and_outcome(self, tmp_path):
        cache, key = _solved_cache()
        path = tmp_path / "snapshot.json"
        assert cache.spill(path) == 1

        restored = SolutionCache()
        assert restored.load(path) == 1
        hit = restored.lookup(key)
        assert hit is not None
        original = cache.lookup(key)
        assert hit.solver == original.solver
        assert hit.stable is original.stable
        assert hit.metrics == original.metrics
        assert hit.error == original.error

    def test_round_trip_preserves_non_default_policies(self, tmp_path):
        policy = SolverPolicy(order=("geometric", "simulate"), simulate_seed=7)
        cache, key = _solved_cache(policy)
        path = tmp_path / "snapshot.json"
        cache.spill(path)

        restored = SolutionCache()
        restored.load(path)
        # The decoded key must be *equal* to the live one: a policy that came
        # back as a near-copy (list order, float drift) would never hit.
        assert restored.lookup(key) is not None
        miss_key = solution_cache_key(
            sun_fitted_model(num_servers=4, arrival_rate=2.0),
            SolverPolicy(order=("geometric", "simulate"), simulate_seed=8),
        )
        assert restored.lookup(miss_key) is None

    def test_spill_is_atomic_and_leaves_no_temporaries(self, tmp_path):
        cache, _ = _solved_cache()
        path = tmp_path / "deep" / "snapshot.json"
        cache.spill(path)
        cache.spill(path)  # overwrite via os.replace, not append
        assert [entry.name for entry in path.parent.iterdir()] == ["snapshot.json"]
        payload = json.loads(path.read_text())
        assert payload["version"] == SPILL_FORMAT_VERSION
        assert len(payload["entries"]) == 1


class TestLoadFailureModes:
    def test_missing_file_is_a_cold_start(self, tmp_path):
        assert SolutionCache().load(tmp_path / "absent.json") == 0

    def test_corrupt_json_raises_persistence_error(self, tmp_path):
        path = tmp_path / "snapshot.json"
        path.write_text('{"version": 1, "entries": [')
        with pytest.raises(CachePersistenceError, match="not valid JSON"):
            SolutionCache().load(path)

    def test_wrong_version_raises_persistence_error(self, tmp_path):
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps({"version": 999, "entries": []}))
        with pytest.raises(CachePersistenceError, match="version"):
            SolutionCache().load(path)

    def test_bad_entries_are_skipped_individually(self, tmp_path):
        cache, key = _solved_cache()
        path = tmp_path / "snapshot.json"
        cache.spill(path)
        payload = json.loads(path.read_text())
        payload["entries"].append({"key": ["??", "bogus"], "outcome": {}})
        payload["entries"].append({"outcome": {"solver": "spectral"}})
        path.write_text(json.dumps(payload))

        restored = SolutionCache()
        assert restored.load(path) == 1
        assert restored.lookup(key) is not None

    def test_entries_with_a_removed_policy_field_are_skipped(self, tmp_path):
        # Snapshots from builds whose policies carried a ``representation``
        # field load cold: the stale entries are dropped one by one.
        cache, key = _solved_cache()
        path = tmp_path / "snapshot.json"
        cache.spill(path)
        payload = json.loads(path.read_text())
        stale = json.loads(json.dumps(payload["entries"][0]))
        stale["key"][1][-1][1]["representation"] = "auto"
        payload["entries"] = [stale]
        path.write_text(json.dumps(payload))

        restored = SolutionCache()
        assert restored.load(path) == 0
        assert restored.lookup(key) is None


class TestUnspillableKeys:
    def test_instance_keyed_entries_are_skipped_not_fatal(self, tmp_path):
        class Opaque:
            """Hashable third-party stand-in without ``parameter_key()``."""

        cache, good_key = _solved_cache()
        solved = cache.lookup(good_key)
        cache.store((Opaque(), SolverPolicy()), solved)
        path = tmp_path / "snapshot.json"
        # Only the representable entry lands in the snapshot.
        assert cache.spill(path) == 1
        restored = SolutionCache()
        assert restored.load(path) == 1
        assert restored.lookup(good_key) is not None
