"""Tests of the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.data import generate_small_trace, write_trace_csv


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_arguments(self):
        arguments = build_parser().parse_args(
            ["solve", "--servers", "10", "--arrival-rate", "7"]
        )
        assert arguments.command == "solve"
        assert arguments.servers == 10
        assert arguments.arrival_rate == 7.0
        assert arguments.method == "both"

    def test_fit_arguments(self):
        arguments = build_parser().parse_args(["fit", "trace.csv", "--bins", "30"])
        assert arguments.command == "fit"
        assert arguments.trace == "trace.csv"
        assert arguments.bins == 30

    def test_reproduce_arguments(self):
        arguments = build_parser().parse_args(["reproduce", "--quick"])
        assert arguments.command == "reproduce"
        assert arguments.quick
        assert not arguments.parallel

    def test_sweep_arguments(self):
        arguments = build_parser().parse_args(
            ["sweep", "--servers", "8,10", "--arrival-rates", "6.5,7.0", "--parallel"]
        )
        assert arguments.command == "sweep"
        assert arguments.servers == "8,10"
        assert arguments.arrival_rates == "6.5,7.0"
        assert arguments.parallel
        assert arguments.solvers == "spectral,geometric"


class TestSolveCommand:
    def test_solve_prints_metrics(self, capsys):
        exit_code = main(
            [
                "solve",
                "--servers", "5",
                "--arrival-rate", "3.5",
                "--operative-mean", "34.62",
                "--operative-scv", "4.6",
                "--repair-mean", "0.04",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Exact spectral-expansion solution" in output
        assert "Geometric approximation" in output
        assert "mean response time W" in output

    def test_solve_spectral_only(self, capsys):
        exit_code = main(
            ["solve", "--servers", "3", "--arrival-rate", "1.5", "--method", "spectral"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Exact spectral-expansion solution" in output
        assert "Geometric approximation" not in output

    def test_solve_unstable_returns_nonzero(self, capsys):
        exit_code = main(["solve", "--servers", "2", "--arrival-rate", "50"])
        output = capsys.readouterr().out
        assert exit_code == 1
        assert "unstable" in output

    def test_solve_exponential_periods(self, capsys):
        exit_code = main(
            [
                "solve",
                "--servers", "3",
                "--arrival-rate", "1.0",
                "--operative-scv", "1.0",
            ]
        )
        assert exit_code == 0
        assert "mean jobs L" in capsys.readouterr().out

    def test_solve_invalid_scv_reports_error(self, capsys):
        exit_code = main(
            ["solve", "--servers", "3", "--arrival-rate", "1.0", "--operative-scv", "0.5"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error" in captured.err


class TestFitCommand:
    def test_fit_on_synthetic_trace(self, tmp_path, capsys):
        trace = generate_small_trace(num_events=5000, seed=1)
        path = write_trace_csv(trace, tmp_path / "trace.csv")
        exit_code = main(["fit", str(path)])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Operative periods" in output
        assert "Inoperative periods" in output
        assert "H2 weights" in output

    def test_fit_missing_file_reports_error(self, tmp_path, capsys):
        exit_code = main(["fit", str(tmp_path / "missing.csv")])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error" in captured.err


class TestReproduceCommand:
    def test_quick_reproduce_runs(self, capsys):
        exit_code = main(["reproduce", "--quick", "--skip-section2"])
        output = capsys.readouterr().out
        assert exit_code == 0
        for name in ("figure5", "figure6", "figure7", "figure8", "figure9"):
            assert name in output


class TestSweepCommand:
    def test_sweep_prints_table(self, capsys):
        exit_code = main(
            ["sweep", "--servers", "9,10", "--arrival-rates", "7.0", "--solvers", "geometric"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Sweep over" in output
        assert "mean jobs L" in output

    def test_sweep_writes_csv_and_json(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "sweep.json"
        exit_code = main(
            [
                "sweep",
                "--servers", "10",
                "--arrival-rates", "7.0",
                "--solvers", "geometric",
                "--csv", str(csv_path),
                "--json", str(json_path),
            ]
        )
        assert exit_code == 0
        assert csv_path.exists() and json_path.exists()
        assert "mean_queue_length" in csv_path.read_text()

    def test_sweep_unstable_point_reported_not_fatal(self, capsys):
        exit_code = main(
            ["sweep", "--servers", "2", "--arrival-rates", "50", "--solvers", "geometric"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "no" in output  # the stable column

    def test_sweep_tolerates_spaces_after_commas(self, capsys):
        exit_code = main(
            ["sweep", "--servers", "9, 10", "--arrival-rates", "7.0", "--solvers", "geometric, ctmc"]
        )
        assert exit_code == 0
        assert "geometric" in capsys.readouterr().out

    def test_sweep_bad_list_reports_error(self, capsys):
        exit_code = main(["sweep", "--servers", "abc", "--arrival-rates", "7.0"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error" in captured.err

    def test_sweep_unknown_solver_reports_error(self, capsys):
        exit_code = main(
            ["sweep", "--servers", "10", "--arrival-rates", "7.0", "--solvers", "magic"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error" in captured.err


class TestScenarioCommand:
    def test_scenario_arguments(self):
        arguments = build_parser().parse_args(
            ["scenario", "--preset", "two-speed-cluster", "--repair-capacity", "1"]
        )
        assert arguments.command == "scenario"
        assert arguments.preset == "two-speed-cluster"
        assert arguments.repair_capacity == 1
        assert arguments.solvers == "spectral,ctmc,simulate"

    def test_list_prints_gallery(self, capsys):
        exit_code = main(["scenario", "--list"])
        output = capsys.readouterr().out
        assert exit_code == 0
        for name in ("two-speed-cluster", "single-repairman", "legacy-homogeneous"):
            assert name in output

    def test_preset_solved_via_ctmc(self, capsys):
        exit_code = main(["scenario", "--preset", "single-repairman", "--solvers", "ctmc"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "repair capacity R" in output
        assert "Solution (ctmc)" in output
        assert "mean jobs L" in output

    def test_preset_solved_exactly_by_default(self, capsys):
        exit_code = main(["scenario", "--preset", "repair-starved-two-speed"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Solution (spectral)" in output
        assert "decay_rate" in output

    def test_overrides_change_the_model(self, capsys):
        exit_code = main(
            [
                "scenario",
                "--preset", "two-speed-cluster",
                "--repair-capacity", "1",
                "--arrival-rate", "1.0",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "repair capacity R      1" in output

    def test_missing_preset_reports_error(self, capsys):
        exit_code = main(["scenario"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "choose a preset" in captured.err

    def test_unstable_override_reports_and_exits_one(self, capsys):
        exit_code = main(
            ["scenario", "--preset", "single-repairman", "--arrival-rate", "50"]
        )
        output = capsys.readouterr().out
        assert exit_code == 1
        assert "unstable" in output

    def test_list_json_emits_machine_readable_gallery(self, capsys):
        import json

        exit_code = main(["scenario", "--list", "--json"])
        output = capsys.readouterr().out
        assert exit_code == 0
        payload = json.loads(output)
        names = [entry["name"] for entry in payload["presets"]]
        assert "two-speed-cluster" in names and "single-repairman" in names
        record = next(
            entry for entry in payload["presets"] if entry["name"] == "single-repairman"
        )
        assert record["repair_capacity"] == 1
        assert record["stable"] is True
        assert record["groups"][0]["size"] == 3

    def test_list_json_writes_to_path(self, tmp_path, capsys):
        import json

        path = tmp_path / "gallery.json"
        exit_code = main(["scenario", "--list", "--json", str(path)])
        assert exit_code == 0
        assert "wrote" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert len(payload["presets"]) >= 4

    def test_json_without_list_or_preset_reports_error(self, capsys):
        exit_code = main(["scenario", "--json"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "--list" in captured.err and "--preset" in captured.err

    def test_preset_json_reports_the_state_space(self, capsys):
        import json

        exit_code = main(
            ["scenario", "--preset", "single-repairman", "--solvers", "ctmc", "--json"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "State space" in output
        payload = json.loads(output[output.index("{") :])
        assert payload["scenario"] == "single-repairman"
        assert payload["solver"] == "ctmc"
        state_space = payload["state_space"]
        assert state_space["num_product_modes"] >= state_space["num_modes"]
        assert payload["metrics"]["num_solved_states"] > 0

    def test_representation_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "--preset", "single-repairman", "--representation", "auto"])
        assert excinfo.value.code == 2
        assert "--representation" in capsys.readouterr().err


class TestTransientCommand:
    def test_transient_arguments(self):
        arguments = build_parser().parse_args(
            ["transient", "--preset", "single-repairman", "--times", "1,5"]
        )
        assert arguments.command == "transient"
        assert arguments.preset == "single-repairman"
        assert arguments.times == "1,5"
        assert arguments.initial == "empty-operative"

    def test_homogeneous_trajectories_printed(self, capsys):
        exit_code = main(
            [
                "transient",
                "--servers", "3",
                "--arrival-rate", "1.5",
                "--times", "1,5",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Transient analysis" in output
        assert "mean jobs L(t)" in output
        assert "availability A(t)" in output

    def test_preset_json_reports_the_solved_states(self, tmp_path, capsys):
        import json

        json_path = tmp_path / "transient.json"
        exit_code = main(
            [
                "transient",
                "--preset", "single-repairman",
                "--times", "1,5",
                "--json", str(json_path),
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "solved states" in output
        payload = json.loads(json_path.read_text())
        assert payload["num_solved_states"] > 0

    def test_preset_with_first_passage(self, capsys):
        exit_code = main(
            [
                "transient",
                "--preset", "single-repairman",
                "--times", "10,50",
                "--first-passage", "all-servers-down",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "First passage to 'all-servers-down'" in output
        assert "mean 46.66" in output

    def test_horizon_and_points_build_the_grid(self, capsys):
        exit_code = main(
            [
                "transient",
                "--servers", "3",
                "--arrival-rate", "1.2",
                "--horizon", "10",
                "--points", "4",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "(4 grid points)" in output
        assert " 2.5000" in output and "10.0000" in output

    def test_csv_and_json_export(self, tmp_path, capsys):
        import csv
        import json

        csv_path = tmp_path / "transient.csv"
        json_path = tmp_path / "transient.json"
        exit_code = main(
            [
                "transient",
                "--servers", "3",
                "--arrival-rate", "1.2",
                "--times", "1,5",
                "--csv", str(csv_path),
                "--json", str(json_path),
            ]
        )
        assert exit_code == 0
        assert "wrote" in capsys.readouterr().out
        rows = list(csv.DictReader(csv_path.open()))
        assert [row["time"] for row in rows] == ["1.0", "5.0"]
        payload = json.loads(json_path.read_text())
        assert len(payload["rows"]) == 2

    def test_repair_capacity_without_preset_rejected(self, capsys):
        exit_code = main(
            ["transient", "--servers", "3", "--arrival-rate", "1", "--repair-capacity", "2"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "applies to scenario presets" in captured.err

    def test_queue_threshold_required_for_queue_exceeds(self, capsys):
        exit_code = main(
            [
                "transient",
                "--servers", "3",
                "--arrival-rate", "1.2",
                "--times", "1",
                "--first-passage", "queue-exceeds",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "queue_threshold" in captured.err

    def test_unstable_model_reports_error(self, capsys):
        exit_code = main(
            ["transient", "--servers", "2", "--arrival-rate", "50", "--times", "1"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "unstable" in captured.err


class TestVersionAndUnknownCommands:
    def test_version_reports_the_package_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")

    def test_unknown_subcommand_exits_2_with_a_one_line_hint(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        error_lines = [line for line in captured.err.splitlines() if line.strip()]
        assert len(error_lines) == 1
        assert "repro: error:" in error_lines[0]
        assert "--help" in error_lines[0]

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


class TestServeCommand:
    def test_serve_arguments(self):
        arguments = build_parser().parse_args(
            [
                "serve",
                "--port", "0",
                "--workers", "2",
                "--batch-window", "0.01",
                "--max-queue", "32",
            ]
        )
        assert arguments.command == "serve"
        assert arguments.port == 0
        assert arguments.workers == 2
        assert arguments.batch_window == 0.01
        assert arguments.max_queue == 32
        assert arguments.host == "127.0.0.1"

    def test_serve_help_documents_the_endpoints(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        output = capsys.readouterr().out
        for needle in ("POST /solve", "GET /healthz", "GET /stats", "queue-full",
                      "deadline", "--batch-window"):
            assert needle in output

    def test_serve_rejects_bad_tunables(self, capsys):
        exit_code = main(["serve", "--port", "0", "--max-queue", "0"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "max_queue" in captured.err


class TestCacheStatsCommand:
    def test_in_process_cache_stats(self, capsys):
        exit_code = main(["cache-stats"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Shared solution cache" in output
        for counter in ("hits", "misses", "size", "evictions"):
            assert counter in output

    def test_in_process_cache_stats_json(self, capsys):
        import json

        exit_code = main(["cache-stats", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert set(payload) >= {"hits", "misses", "hit_rate", "size", "solves", "evictions"}

    def test_cache_stats_of_a_running_service(self, capsys):
        import json

        from repro.service import ServiceClient, ServiceConfig, ThreadedService

        with ThreadedService(ServiceConfig(port=0)) as service:
            with ServiceClient(service.host, service.port) as client:
                client.solve_ok({"model": {"servers": 3, "arrival_rate": 1.5}})
            exit_code = main(["cache-stats", "--url", service.address])
            output = capsys.readouterr().out
            assert exit_code == 0
            assert "Service http://" in output
            assert "coalesced total" in output
            assert "Solution cache" in output

            exit_code = main(["cache-stats", "--url", service.address, "--json"])
            payload = json.loads(capsys.readouterr().out)
            assert exit_code == 0
            assert payload["totals"]["solves"] == 1

    def test_unreachable_service_reports_an_error(self, capsys):
        exit_code = main(["cache-stats", "--url", "http://127.0.0.1:9"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "could not reach" in captured.err

    def test_bad_url_port_reports_an_error_not_a_traceback(self, capsys):
        exit_code = main(["cache-stats", "--url", "http://127.0.0.1:notaport"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "--url must be a plain http://host:port address" in captured.err

    def test_in_process_cache_stats_lists_spill_counters(self, capsys):
        exit_code = main(["cache-stats"])
        output = capsys.readouterr().out
        assert exit_code == 0
        for counter in ("spills", "spilled_entries", "loads", "loaded_entries"):
            assert counter in output

    def test_service_cache_stats_list_spill_counters(self, capsys):
        from repro.service import ServiceConfig, ThreadedService

        with ThreadedService(ServiceConfig(port=0)) as service:
            exit_code = main(["cache-stats", "--url", service.address])
        output = capsys.readouterr().out
        assert exit_code == 0
        for counter in ("spills", "spilled_entries", "loads", "loaded_entries"):
            assert counter in output


class TestTopCommand:
    def test_top_once_json_summarises_a_live_service(self, capsys):
        import json

        from repro.service import ServiceClient, ServiceConfig, ThreadedService

        with ThreadedService(ServiceConfig(port=0)) as service:
            with ServiceClient(service.host, service.port, timeout=120.0) as client:
                client.solve_ok({"model": {"servers": 3, "arrival_rate": 1.5}})
            exit_code = main(["top", "--url", service.address, "--once", "--json"])
            payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["responses_total"] >= 1
        assert payload["rps"] is None  # a single snapshot has no rate
        assert payload["slo"]["queue_wait_target_seconds"] == 2.0
        assert payload["shards"]
        assert payload["shards"][0]["requests_total"] >= 1

    def test_top_once_renders_the_dashboard(self, capsys):
        from repro.service import ServiceClient, ServiceConfig, ThreadedService

        with ThreadedService(ServiceConfig(port=0)) as service:
            with ServiceClient(service.host, service.port, timeout=120.0) as client:
                client.solve_ok({"model": {"servers": 3, "arrival_rate": 1.5}})
            exit_code = main(["top", "--url", service.address, "--once"])
            output = capsys.readouterr().out
        assert exit_code == 0
        assert output.startswith("repro top — ")
        assert "pressure" in output
        assert "shard" in output

    def test_top_json_requires_once(self, capsys):
        exit_code = main(["top", "--url", "http://127.0.0.1:9", "--json"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "--json needs --once" in captured.err

    def test_top_unreachable_service_reports_an_error(self, capsys):
        exit_code = main(["top", "--url", "http://127.0.0.1:9", "--once"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "could not reach" in captured.err
