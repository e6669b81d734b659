"""Tests of the request vocabulary shared by the command line and ``POST /solve``.

The ``solve``, ``sweep``, ``scenario`` and ``transient`` commands turn their
flags into a request body and validate it in :mod:`repro.query`, as the
service does.  So for the same input both surfaces must build the same
solution key, and for a bad input both must report the same message.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.cli import main
from repro.query import MODEL_FIELDS, parse_request
from repro.service import BadRequestError, ServiceError, parse_body, parse_solve_request
from repro.solvers import solution_cache_key

#: A valid steady-state model object, for rows that break something else.
_MODEL = {"servers": 4, "arrival_rate": 2.0}


class _Built(Exception):
    """Stops a command once it has built its request."""


def _cli_request(monkeypatch: pytest.MonkeyPatch, argv: list[str]):
    """The request a CLI command builds from ``argv``, before it solves anything."""
    built = []

    def record(payload: dict):
        built.append(parse_request(payload))
        raise _Built

    monkeypatch.setattr(cli, "parse_request", record)
    with pytest.raises(_Built):
        main(argv)
    return built[0]


class TestFieldTable:
    def test_defaults_are_the_papers_fit(self):
        request = parse_request({"model": _MODEL})
        assert request.model.service_rate == 1.0
        assert request.model.operative.mean == pytest.approx(34.62)
        assert request.model.operative.scv == pytest.approx(4.6)
        assert request.model.inoperative.mean == pytest.approx(0.04)

    def test_cli_flags_follow_the_table(self):
        solve = cli.build_parser().parse_args(["solve", "--servers", "3", "--arrival-rate", "1"])
        for field in MODEL_FIELDS:
            if field.default is not None:
                assert getattr(solve, field.name) is None  # the table fills it in


#: CLI input and the request body that says the same thing.
KEY_PARITY = [
    pytest.param(
        "solve --servers 4 --arrival-rate 2",
        {"model": {"servers": 4, "arrival_rate": 2}},
        id="defaults-only",
    ),
    pytest.param(
        "solve --servers 5 --arrival-rate 3.5 --service-rate 1.5 --operative-mean 20"
        " --operative-scv 2.5 --repair-mean 0.1 --solver ctmc",
        {
            "model": {
                "servers": 5,
                "arrival_rate": 3.5,
                "service_rate": 1.5,
                "operative_mean": 20,
                "operative_scv": 2.5,
                "repair_mean": 0.1,
            },
            "solvers": ["ctmc"],
        },
        id="every-field",
    ),
    pytest.param(
        "solve --servers 3 --arrival-rate 1 --operative-scv 1",
        {"model": {"servers": 3, "arrival_rate": 1, "operative_scv": 1}},
        id="exponential-periods",
    ),
    pytest.param(
        "sweep --servers 6 --arrival-rates 4.5 --repair-mean 0.1",
        {
            "model": {"servers": 6, "arrival_rate": 4.5, "repair_mean": 0.1},
            "solvers": ["spectral", "geometric"],
        },
        id="sweep-point",
    ),
    pytest.param(
        "scenario --preset two-speed-cluster --arrival-rate 1.0 --repair-capacity 1",
        {
            "query": "scenario",
            "preset": "two-speed-cluster",
            "arrival_rate": 1.0,
            "repair_capacity": 1,
        },
        id="preset-with-both-overrides",
    ),
    pytest.param(
        "transient --times 1,5",
        {"query": "transient", "model": {"servers": 4, "arrival_rate": 2.0}, "times": [1, 5]},
        id="transient-times",
    ),
    pytest.param(
        "transient --preset single-repairman --arrival-rate 0.5 --repair-capacity 2 --times 5",
        {
            "query": "transient",
            "preset": "single-repairman",
            "arrival_rate": 0.5,
            "repair_capacity": 2,
            "times": [5],
        },
        id="transient-preset",
    ),
]


@pytest.mark.parametrize(("argv", "payload"), KEY_PARITY)
def test_cli_and_service_build_the_same_solution_key(monkeypatch, argv, payload):
    built = _cli_request(monkeypatch, argv.split())
    served = parse_solve_request(payload)
    assert built.query == served.query
    assert solution_cache_key(built.model, built.policy) == solution_cache_key(
        served.model, served.policy
    )


#: Bad CLI input, the request body that says the same thing, and the error
#: code the service answers it with.
ERROR_PARITY = [
    pytest.param(
        "solve --servers 0 --arrival-rate 1",
        {"model": {"servers": 0, "arrival_rate": 1}},
        "bad-request",
        id="servers-below-1",
    ),
    pytest.param(
        "solve --servers 4 --arrival-rate 0",
        {"model": {"servers": 4, "arrival_rate": 0}},
        "bad-request",
        id="arrival-rate-0",
    ),
    pytest.param(
        "solve --servers 4 --arrival-rate 2 --service-rate 0",
        {"model": {**_MODEL, "service_rate": 0}},
        "bad-request",
        id="service-rate-0",
    ),
    pytest.param(
        "solve --servers 4 --arrival-rate 2 --operative-mean 0",
        {"model": {**_MODEL, "operative_mean": 0}},
        "bad-request",
        id="operative-mean-0",
    ),
    pytest.param(
        "solve --servers 4 --arrival-rate 2 --operative-scv 0.99",
        {"model": {**_MODEL, "operative_scv": 0.99}},
        "bad-request",
        id="operative-scv-below-1",
    ),
    pytest.param(
        "solve --servers 4 --arrival-rate 2 --repair-mean 0",
        {"model": {**_MODEL, "repair_mean": 0}},
        "bad-request",
        id="repair-mean-0",
    ),
    pytest.param(
        "sweep --servers 4 --arrival-rates 2 --repair-mean -1",
        {"model": {**_MODEL, "repair_mean": -1}, "solvers": ["spectral", "geometric"]},
        "bad-request",
        id="sweep-negative-repair-mean",
    ),
    pytest.param(
        "solve --servers 4 --arrival-rate inf",
        {"model": {"servers": 4, "arrival_rate": math.inf}},
        "bad-request",
        id="non-finite-arrival-rate",
    ),
    pytest.param(
        "sweep --servers 4 --arrival-rates 2 --solvers zap",
        {"model": _MODEL, "solvers": ["zap"]},
        "unknown-solver",
        id="unknown-solver",
    ),
    pytest.param(
        "scenario --preset nope",
        {"query": "scenario", "preset": "nope"},
        "unknown-preset",
        id="unknown-preset",
    ),
    pytest.param(
        "scenario --preset single-repairman --repair-capacity 0",
        {"query": "scenario", "preset": "single-repairman", "repair_capacity": 0},
        "bad-request",
        id="repair-capacity-0",
    ),
    pytest.param(
        "transient --times 1,inf",
        {"query": "transient", "model": _MODEL, "times": [1, math.inf]},
        "bad-request",
        id="non-finite-time",
    ),
    pytest.param(
        "transient --preset two-speed-cluster --servers 9 --times 1",
        {
            "query": "transient",
            "preset": "two-speed-cluster",
            "model": {"servers": 9},
            "times": [1],
        },
        "bad-request",
        id="preset-and-model-flag",
    ),
    pytest.param(
        "transient --repair-capacity 2 --times 1",
        {"query": "transient", "model": _MODEL, "repair_capacity": 2, "times": [1]},
        "bad-request",
        id="repair-capacity-without-preset",
    ),
]


@pytest.mark.parametrize(("argv", "payload", "code"), ERROR_PARITY)
def test_cli_reports_the_service_message(capsys, argv, payload, code):
    with pytest.raises(ServiceError) as rejected:
        parse_solve_request(payload)
    assert (rejected.value.code, rejected.value.http_status) == (code, 400)
    assert main(argv.split()) == 2
    assert capsys.readouterr().err == f"error: {rejected.value}\n"


@pytest.mark.parametrize(
    "command",
    [
        ["solve", "--servers", "4", "--arrival-rate", "2"],
        ["sweep", "--servers", "4", "--arrival-rates", "2"],
        ["transient", "--times", "1"],
    ],
    ids=["solve", "sweep", "transient"],
)
@pytest.mark.parametrize(
    "zero",
    [["--repair-mean", "0"], ["--operative-mean", "0", "--operative-scv", "1"]],
    ids=["repair-mean", "exponential-operative-mean"],
)
def test_zero_mean_exits_2_with_one_error_line(capsys, command, zero):
    assert main([*command, *zero]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model field ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "grid",
    [["--times", "inf"], ["--times", "nan"], ["--horizon", "nan"]],
    ids=["times-inf", "times-nan", "horizon-nan"],
)
def test_non_finite_transient_times_exit_2(capsys, grid):
    assert main(["transient", *grid]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1


class TestTransientPreset:
    def test_arrival_rate_overrides_the_presets_rate(self, capsys):
        argv = ["transient", "--preset", "two-speed-cluster", "--arrival-rate", "0.5"]
        assert main([*argv, "--times", "5"]) == 0
        assert "lambda=0.5," in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag",
        [
            ["--servers", "9"],
            ["--service-rate", "2"],
            ["--operative-mean", "30"],
            ["--operative-scv", "2"],
            ["--repair-mean", "0.1"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_other_model_flags_are_rejected(self, capsys, flag):
        argv = ["transient", "--preset", "two-speed-cluster", *flag, "--times", "5"]
        assert main(argv) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_defaults_without_a_preset(self, monkeypatch):
        request = _cli_request(monkeypatch, ["transient"])
        assert (request.model.num_servers, request.model.arrival_rate) == (4, 2.0)
        assert request.policy.transient_times == tuple(50.0 * k / 8 for k in range(1, 9))


def test_top_level_repair_capacity_points_to_presets():
    with pytest.raises(BadRequestError, match="applies to scenario presets") as rejected:
        parse_solve_request({"query": "transient", "model": _MODEL, "repair_capacity": 2})
    assert "'model' object" not in str(rejected.value)


def test_distribution_errors_are_bad_requests():
    with pytest.raises(BadRequestError, match="invalid model"):
        parse_solve_request({"model": {**_MODEL, "operative_mean": 1e-320}})


#: A JSON integer with no finite float value.
_HUGE = b"1" + b"0" * 400


@pytest.mark.parametrize(
    "body, field",
    [
        (b'{"model": {"servers": 4, "arrival_rate": %s}}' % _HUGE, "'arrival_rate'"),
        (
            b'{"query": "scenario", "preset": "single-repairman", "arrival_rate": %s}' % _HUGE,
            "'arrival_rate'",
        ),
        (b'{"model": {"servers": %s, "arrival_rate": 2.0}}' % _HUGE, "'servers'"),
    ],
    ids=["model-arrival-rate", "preset-arrival-rate", "servers"],
)
def test_integers_beyond_the_largest_float_are_bad_requests(body, field):
    with pytest.raises(BadRequestError, match=f"field {field} must be finite"):
        parse_solve_request(parse_body(body))


def test_importing_the_library_leaves_scipy_stats_unloaded():
    # scipy.stats costs about as much to import as numpy, scipy.sparse,
    # scipy.linalg and scipy.special together; the library needs none of it.
    script = (
        "import sys, repro, repro.cli, repro.service; "
        "print(sorted(name for name in sys.modules if name.startswith('scipy.stats')))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH", "")]))
    loaded = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert loaded.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["repro.query", "repro.cli"])
def test_importing_leaves_the_service_unloaded(module):
    script = (
        f"import sys, {module}; "
        "print(sorted(name for name in sys.modules if name.startswith('repro.service')))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH", "")]))
    loaded = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert loaded.stdout.strip() == "[]"
