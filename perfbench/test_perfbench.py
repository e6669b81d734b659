"""Tests of the benchmark's own code: seeded inputs, failure accounting,
the p99 sample rule, answer checks and the metric/workload names.

None of them starts a server or times anything.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads as wl  # noqa: E402
from batch import check  # noqa: E402
from common import (  # noqa: E402
    END_TO_END,
    NAME_PATTERN,
    PER_LAYER,
    Tally,
    percentile,
    samples_beyond,
    tail_is_supported,
)
from layers import counter_total, histogram_quantile, per_label  # noqa: E402
from serving import Exchange, Window, account  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- seeded inputs ------------------------------------------------------------------


def test_same_seed_same_serving_sequences():
    assert wl.cold_requests(7, 500) == wl.cold_requests(7, 500)
    assert wl.hot_set(7) == wl.hot_set(7)
    assert wl.hot_sequence(7, 500) == wl.hot_sequence(7, 500)
    assert wl.warmup_requests(7, 2) == wl.warmup_requests(7, 2)
    assert wl.cold_requests(7, 50) != wl.cold_requests(8, 50)
    assert wl.hot_set(7) != wl.hot_set(8)


@pytest.mark.parametrize("workload", wl.BATCH)
def test_same_seed_same_batch_rounds(workload):
    first = list(itertools.islice(wl.batch_rounds(workload, 3), 4))
    again = list(itertools.islice(wl.batch_rounds(workload, 3), 4))
    other = list(itertools.islice(wl.batch_rounds(workload, 4), 4))
    assert first == again
    assert first != other


def test_cold_requests_never_repeat_a_key_and_stay_stable():
    requests = wl.cold_requests(1, 5000)
    keys = {(r["model"]["servers"], r["model"]["arrival_rate"]) for r in requests}
    assert len(keys) == len(requests)
    assert {servers for servers, _ in keys} == set(wl.COLD_SERVERS)
    assert all(rate < 0.81 * servers for servers, rate in keys)
    warm = {(r["model"]["servers"], r["model"]["arrival_rate"]) for r in wl.warmup_requests(1, 8)}
    assert not warm & keys


def test_hot_set_spans_all_query_kinds():
    hot = wl.hot_set(5)
    kinds = [request.get("query", "steady-state") for request in hot]
    assert len(hot) == wl.HOT_KEYS == len({json.dumps(r, sort_keys=True) for r in hot})
    assert kinds.count("scenario") == wl.HOT_SCENARIO
    assert kinds.count("transient") == wl.HOT_KEYS - wl.HOT_STEADY - wl.HOT_SCENARIO
    assert set(wl.hot_sequence(5, 2000)) == set(range(wl.HOT_KEYS))


def test_round_point_counts_match_their_grids():
    spec = next(wl.batch_rounds("paper_sweep", 0))
    assert wl.paper_sweep_points(spec) == 3 + 2 * 3 + 2 * 3
    spec = next(wl.batch_rounds("chain_batch", 0))
    assert wl.chain_batch_points(spec) == 4 * 3 * 3 + 1 + 3 + 2 + 1


# -- failure accounting -----------------------------------------------------------------


def _exchange(index: int, status: int, body: dict | bytes) -> Exchange:
    raw = body if isinstance(body, bytes) else json.dumps(body).encode()
    return Exchange(index=index, started=float(index), ended=index + 0.5, status=status, body=raw)


def test_every_non_ok_answer_is_a_counted_failure():
    ok = {"status": "ok", "metrics": {}}
    window = Window(
        exchanges=[
            _exchange(0, 200, ok),
            _exchange(1, 429, {"status": "error", "error": {"code": "load-shed"}}),
            _exchange(2, 503, {"status": "error", "error": {"code": "worker-crashed"}}),
            _exchange(3, 504, {"status": "error", "error": {"code": "deadline-exceeded"}}),
            _exchange(4, 0, b""),
            _exchange(5, 200, b"not json"),
            _exchange(6, 200, {"status": "error"}),
            _exchange(7, 200, ok),
        ]
    )
    tally, latencies, payloads = account(window)
    assert tally.attempted == 8
    assert tally.failed == 6
    assert tally.reasons == {
        "refused-429": 1,
        "server-503": 1,
        "server-504": 1,
        "transport": 1,
        "bad-payload": 2,
    }
    assert latencies == [0.5, 0.5]
    assert [bool(payload) for payload in payloads] == [True] + [False] * 6 + [True]
    tally.mark_wrong()
    assert tally.failed == 7 and tally.reasons["wrong-answer"] == 1
    assert tally.failed_share == pytest.approx(7 / 8)


def test_tally_merge_and_empty_share():
    first, second = Tally(), Tally()
    first.ok()
    first.fail("transport")
    second.fail("transport")
    first.merge(second)
    assert (first.attempted, first.failed, first.reasons) == (3, 2, {"transport": 2})
    assert Tally().failed_share == 1.0  # nothing attempted is not a success


# -- the p99 sample rule ---------------------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    assert samples_beyond(1000, 0.99) == 10
    assert tail_is_supported(1000)
    assert not tail_is_supported(999)
    assert not tail_is_supported(200)
    assert samples_beyond(2000, 0.99) == 20


def test_percentile_is_nearest_rank():
    values = [float(value) for value in range(1, 101)]
    assert percentile(values, 0.5) == 50.0
    assert percentile(values, 0.99) == 99.0
    assert percentile(list(reversed(values)), 0.99) == 99.0
    assert percentile([3.0], 0.99) == 3.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


# -- answer checks ------------------------------------------------------------------------------


def test_checks_compare_at_reference_tolerance_and_simulation_intervals():
    references = {
        "figure5": {"8.0|9": 10.0},
        "figure8": {"0.90": [2.0, 3.0]},
        "simulation": {"preset": 1.5},
    }
    good = [
        ("figure5", "8.0|9", 10.0 * (1 + 5e-7), 1),
        ("figure8", "0.90", [2.0, 3.0], 2),
        ("simulation", "preset", [1.45, 0.1], 1),
    ]
    assert check(good, references) == (0, [])
    bad = [
        ("figure5", "8.0|9", 10.0 * (1 + 2e-6), 1),
        ("figure8", "0.90", [2.0, 3.1], 2),
        ("simulation", "preset", [1.3, 0.1], 1),
        ("figure5", "missing", 1.0, 1),
    ]
    wrong, notes = check(bad, references)
    assert wrong == 5 and len(notes) == 4


def test_stored_references_cover_every_drawable_point():
    references = json.loads((HERE / "references.json").read_text())
    for rate in wl.FIGURE5_RATES:
        for servers in wl.FIGURE5_SERVERS:
            assert f"{rate}|{servers}" in references["figure5"]
    for band in wl.FIGURE8_BANDS:
        for load in band:
            assert f"{load:.2f}" in references["figure8"]
    for preset in wl.PRESETS:
        for band in wl.CHAIN_FACTOR_BANDS:
            for factor in band:
                for capacity in wl.CHAIN_CAPACITIES:
                    assert f"{preset}|{factor:.2f}|{capacity}" in references["ctmc_grid"]
    for servers, rate in wl.PASSAGE_MODELS:
        assert f"{servers}|{rate:.2f}|down" in references["first_passage"]
    for servers, rate in wl.TRANSIENT_MODELS:
        assert f"{servers}|{rate:.2f}" in references["transient"]


# -- exposition deltas ------------------------------------------------------------------------


def test_exposition_deltas_and_histogram_quantile():
    def snapshot(counts: tuple[float, float, float], total: float) -> dict:
        buckets = {}
        for shard in ("0", "1"):
            for bound, count in zip(("0.001", "0.01", "+Inf"), counts):
                buckets[(("le", bound), ("shard", shard))] = count
        return {
            "repro_wait_seconds_bucket": buckets,
            "repro_requests_total": {(("shard", "0"),): total, (("shard", "1"),): 2 * total},
        }

    before, after = snapshot((0, 0, 0), 10), snapshot((50, 100, 100), 30)
    assert counter_total(before, after, "repro_requests_total") == 60
    assert counter_total(before, after, "repro_requests_total", shard="1") == 40
    assert per_label(before, after, "repro_requests_total", "shard") == {"0": 20, "1": 40}
    assert histogram_quantile(before, after, "repro_wait_seconds", 0.5) == pytest.approx(0.001)
    assert histogram_quantile(before, after, "repro_wait_seconds", 0.75) == pytest.approx(0.0055)
    assert histogram_quantile(before, before, "repro_wait_seconds", 0.5) == 0.0


# -- names ---------------------------------------------------------------------------


def test_every_name_is_well_formed_and_matches_benchmark_json():
    names = [*wl.WORKLOADS, *END_TO_END, *PER_LAYER]
    assert all(NAME_PATTERN.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: wl.WORKLOADS[name] for name in wl.GATED
    }
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER
    assert BENCHMARK["paths"] == ["perfbench"]
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in BENCHMARK["end_to_end"])}
