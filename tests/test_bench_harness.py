"""Contract tests of the shared benchmark harness (``benchmarks/_harness.py``).

The harness lives outside the installable package (it is CI tooling, not
library code), so it is loaded here by file path.  These tests pin the record
format the CI bench job and its uploaded artifacts rely on: best-of-repeats
``seconds``, the ``peak_rss_mb`` high-water mark, workload metadata merged
into the record, the BLAS runtime it ran on, and a baseline gate that
compares *seconds only* while ignoring (but preserving) the metadata.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "bench_harness", REPO_ROOT / "benchmarks" / "_harness.py"
)
assert _spec is not None and _spec.loader is not None
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)


class TestRunBenchmarks:
    def test_records_carry_seconds_rss_and_metadata(self, capsys):
        def with_metadata(quick: bool):
            return {"num_states": 42, "num_product_modes": 64}

        def plain(quick: bool):
            return None

        records = harness.run_benchmarks(
            {"meta": with_metadata, "plain": plain}, quick=True, repeats=2
        )
        assert set(records) == {"meta", "plain"}
        assert records["meta"]["num_states"] == 42
        assert records["meta"]["num_product_modes"] == 64
        for record in records.values():
            assert float(record["seconds"]) >= 0.0
            assert float(record["peak_rss_mb"]) > 0.0
        output = capsys.readouterr().out
        assert "num_states=42" in output

    def test_quick_flag_reaches_the_workload(self):
        seen: list[bool] = []
        harness.run_benchmarks({"probe": lambda quick: seen.append(quick)}, quick=True, repeats=1)
        assert seen == [True]


class TestBaselineGate:
    def _baseline(self, tmp_path: Path, seconds: float, mode: str = "quick") -> Path:
        path = tmp_path / "baseline.json"
        payload = {
            "mode": mode,
            "benchmarks": {"bench": {"seconds": seconds, "peak_rss_mb": 1.0, "num_states": 7}},
        }
        path.write_text(json.dumps(payload))
        return path

    def test_within_budget_passes(self, tmp_path, capsys):
        baseline = self._baseline(tmp_path, seconds=1.0)
        records = {"bench": {"seconds": 1.5, "peak_rss_mb": 2.0, "num_states": 7}}
        assert harness.check_against_baseline(records, baseline, factor=2.0, quick=True) == 0
        assert "ok" in capsys.readouterr().out

    def test_slowdown_beyond_the_factor_regresses(self, tmp_path, capsys):
        baseline = self._baseline(tmp_path, seconds=1.0)
        records = {"bench": {"seconds": 2.5, "peak_rss_mb": 2.0}}
        assert harness.check_against_baseline(records, baseline, factor=2.0, quick=True) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_metadata_never_trips_the_gate(self, tmp_path, capsys):
        baseline = self._baseline(tmp_path, seconds=1.0)
        records = {"bench": {"seconds": 1.0, "peak_rss_mb": 999.0, "num_states": 123456}}
        assert harness.check_against_baseline(records, baseline, factor=2.0, quick=True) == 0

    def test_new_benchmark_without_baseline_entry_is_skipped(self, tmp_path, capsys):
        baseline = self._baseline(tmp_path, seconds=1.0)
        records = {
            "bench": {"seconds": 1.0, "peak_rss_mb": 1.0},
            "fresh": {"seconds": 9.9, "peak_rss_mb": 1.0},
        }
        assert harness.check_against_baseline(records, baseline, factor=2.0, quick=True) == 0
        assert "no baseline entry" in capsys.readouterr().out

    def test_mode_mismatch_fails_loudly(self, tmp_path, capsys):
        baseline = self._baseline(tmp_path, seconds=1.0, mode="full")
        records = {"bench": {"seconds": 0.1, "peak_rss_mb": 1.0}}
        assert harness.check_against_baseline(records, baseline, factor=2.0, quick=True) == 1
        assert "re-record" in capsys.readouterr().out


class TestBenchMain:
    def test_update_baseline_pads_seconds_and_keeps_metadata(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        exit_code = harness.bench_main(
            {"bench": lambda quick: {"num_states": 5}},
            description="test",
            default_output=str(tmp_path / "out.json"),
            argv=["--quick", "--repeats", "1", "--update-baseline", str(baseline_path)],
        )
        assert exit_code == 0
        payload = json.loads(baseline_path.read_text())
        record = payload["benchmarks"]["bench"]
        assert record["num_states"] == 5
        assert "peak_rss_mb" in record
        assert payload["mode"] == "quick"

    def test_run_write_and_check_round_trip(self, tmp_path, capsys):
        output = tmp_path / "out.json"
        baseline = tmp_path / "baseline.json"
        argv = ["--quick", "--repeats", "1", "--update-baseline", str(baseline)]
        assert (
            harness.bench_main(
                {"bench": lambda quick: None},
                description="test",
                default_output=str(output),
                argv=argv,
            )
            == 0
        )
        exit_code = harness.bench_main(
            {"bench": lambda quick: None},
            description="test",
            default_output=str(output),
            argv=["--quick", "--repeats", "1", "--check", str(baseline)],
        )
        assert exit_code == 0
        written = json.loads(output.read_text())
        assert "seconds" in written["benchmarks"]["bench"]
        assert "peak_rss_mb" in written["benchmarks"]["bench"]
        assert written["runtime"] == harness.blas_runtime()
        assert json.loads(baseline.read_text())["runtime"] == written["runtime"]
