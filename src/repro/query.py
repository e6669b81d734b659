"""The request vocabulary shared by the ``repro`` command line and the service.

:data:`MODEL_FIELDS` declares each of the paper's six model inputs once.  The
CLI generates its model flags from it and turns every solving command's flags
into the body ``POST /solve`` takes (schema in :mod:`repro.service.protocol`);
:func:`parse_request` validates either, so both share each default and each
bound's message.  Stability is left to the caller.  Nothing here imports
:mod:`repro.service`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .distributions import Distribution, Exponential, HyperExponential
from .exceptions import ParameterError, ReproError
from .queueing import UnreliableQueueModel
from .scenarios import ScenarioModel, preset_names, scenario_preset
from .solvers import SolverPolicy, solver_names

#: The accepted ``query`` values, in documentation order.
QUERY_KINDS = ("steady-state", "scenario", "transient")

#: Default fallback chain per query kind, used when ``solvers`` is omitted.
DEFAULT_SOLVER_ORDERS: dict[str, tuple[str, ...]] = {
    "steady-state": ("spectral", "geometric", "ctmc", "simulate"),
    "scenario": ("spectral", "ctmc", "simulate"),
    "transient": ("transient",),
}


class RequestError(ReproError):
    """A bad request body; ``code`` is the service's error code for it."""

    def __init__(self, message: str, *, code: str = "bad-request") -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class SolveRequest:
    """One validated query: a model/policy pair plus its seconds budget."""

    query: str
    model: UnreliableQueueModel | ScenarioModel
    policy: SolverPolicy
    deadline: float | None = None


@dataclass(frozen=True)
class Field:
    """One numeric request field: a finite value above ``minimum`` (or at it,
    unless ``exclusive``).  A model field without a ``default`` is required."""

    name: str
    kind: type[int] | type[float]
    minimum: float
    exclusive: bool = False
    help: str = ""
    default: float | None = None

    def read(self, payload: dict, where: str) -> float | None:
        """The field's value in ``payload``, or its default when absent."""
        if self.name not in payload:
            return self.default
        key, value = self.name, payload[self.name]
        if isinstance(value, bool) or not isinstance(value, (self.kind, int)):
            kind = "an integer" if self.kind is int else "a number"
            raise RequestError(f"{where} field {key!r} must be {kind}, got {type(value).__name__}")
        # An integer beyond the largest float has no finite value.
        number = math.inf if abs(value) > sys.float_info.max else float(value)
        if not math.isfinite(number):
            raise RequestError(f"{where} field {key!r} must be finite, got {number}")
        if self.kind is float:
            value = number
        if (value <= self.minimum) if self.exclusive else (value < self.minimum):
            bound = "greater than" if self.exclusive else "at least"
            raise RequestError(f"{where} field {key!r} must be {bound} {self.minimum}, got {value}")
        return value

    def require(self, payload: dict, where: str) -> float:
        """The field's value in ``payload``, its default, or an error."""
        value = self.read(payload, where)
        if value is None:
            raise RequestError(f"{where} field {self.name!r} is required")
        return value


#: The model's inputs, in the order they are validated and listed.
MODEL_FIELDS = (
    Field("servers", int, 1, help="number of servers N"),
    Field("arrival_rate", float, 0.0, True, "Poisson arrival rate"),
    Field("service_rate", float, 0.0, True, "per-server service rate", 1.0),
    Field("operative_mean", float, 0.0, True, "mean operative period", 34.62),
    Field(
        "operative_scv",
        float,
        1.0,
        help="squared coefficient of variation of operative periods (>= 1; 1 = exponential)",
        default=4.6,
    ),
    Field("repair_mean", float, 0.0, True, "mean inoperative (repair) period", 0.04),
)
_MODEL_KEYS = frozenset(field.name for field in MODEL_FIELDS)
_ARRIVAL_RATE = next(field for field in MODEL_FIELDS if field.name == "arrival_rate")

#: The ``simulate`` options, each read into the policy's ``simulate_<name>``.
_SIMULATE_FIELDS = (
    Field("horizon", float, 0.0, True),
    Field("seed", int, 0),
    Field("num_batches", int, 2),
    Field("warmup_fraction", float, 0.0),
)
_SIMULATE_KEYS = frozenset(field.name for field in _SIMULATE_FIELDS)

_REPAIR_CAPACITY = Field("repair_capacity", int, 1)
_DEADLINE = Field("deadline", float, 0.0, True)
_GRID_FIELDS = (Field("horizon", float, 0.0, True), Field("points", int, 1))

#: Top-level request keys the parser accepts (anything else is a typo and is
#: rejected rather than silently ignored — silently dropped options are the
#: worst protocol bug to debug from the client side).
_TOP_LEVEL_KEYS = frozenset(
    {"query", "model", "preset", "solvers", "times", "simulate"}
    | {field.name for field in (_ARRIVAL_RATE, _REPAIR_CAPACITY, _DEADLINE)}
)


def _check_keys(payload: dict, allowed: frozenset, *, where: str) -> None:
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise RequestError(
            f"unknown {where} field(s): {', '.join(unknown)}; "
            f"accepted: {', '.join(sorted(allowed))}"
        )


def _homogeneous_model(fields: object) -> UnreliableQueueModel:
    """The homogeneous model a ``model`` object describes.

    An operative SCV of exactly 1 selects exponential periods; a larger one
    selects the balanced-means two-phase hyperexponential with that mean.
    """
    if not isinstance(fields, dict):
        raise RequestError(f"'model' must be a JSON object, got {type(fields).__name__}")
    _check_keys(fields, _MODEL_KEYS, where="model")
    servers, arrival_rate, service_rate, operative_mean, operative_scv, repair_mean = (
        field.require(fields, "model") for field in MODEL_FIELDS
    )
    operative: Distribution
    try:
        if operative_scv == 1.0:
            operative = Exponential(rate=1.0 / operative_mean)
        else:
            operative = HyperExponential.from_mean_and_scv(operative_mean, operative_scv)
        return UnreliableQueueModel(
            num_servers=int(servers),
            arrival_rate=arrival_rate,
            service_rate=service_rate,
            operative=operative,
            inoperative=Exponential(rate=1.0 / repair_mean),
        )
    except ParameterError as exc:
        raise RequestError(f"invalid model: {exc}") from exc


def _preset_model(payload: dict) -> ScenarioModel:
    """Build the scenario model named by ``preset`` (with overrides)."""
    name = payload["preset"]
    if not isinstance(name, str):
        raise RequestError(f"'preset' must be a string, got {type(name).__name__}")
    if name not in preset_names():
        raise RequestError(
            f"unknown scenario preset {name!r}; available: {', '.join(preset_names())}",
            code="unknown-preset",
        )
    arrival_rate = _ARRIVAL_RATE.read(payload, "request")
    capacity = _REPAIR_CAPACITY.read(payload, "request")
    try:
        return scenario_preset(
            name,
            arrival_rate=arrival_rate,
            repair_capacity=None if capacity is None else int(capacity),
        )
    except ReproError as exc:
        raise RequestError(f"invalid scenario overrides: {exc}") from exc


def _solver_order(payload: dict, query: str) -> tuple[str, ...]:
    if "solvers" not in payload:
        return DEFAULT_SOLVER_ORDERS[query]
    value = payload["solvers"]
    if isinstance(value, str):
        value = [value]
    valid = isinstance(value, list) and value and all(isinstance(name, str) for name in value)
    if not valid:
        raise RequestError("'solvers' must be a non-empty list of solver names")
    registered = solver_names()
    for name in value:
        if name not in registered:
            raise RequestError(
                f"unknown solver {name!r}; registered solvers: {', '.join(registered)}",
                code="unknown-solver",
            )
    return tuple(value)


def _transient_times(payload: dict) -> tuple[float, ...]:
    if "times" not in payload:
        return ()
    value = payload["times"]
    if not isinstance(value, list) or not value:
        raise RequestError("'times' must be a non-empty list of evaluation times")
    times: list[float] = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise RequestError(f"'times' entries must be numbers, got {type(item).__name__}")
        item = float(item)
        if not math.isfinite(item) or item < 0.0:
            raise RequestError(f"'times' entries must be finite and non-negative, got {item}")
        times.append(item)
    return tuple(times)


def time_grid(horizon: float, points: int) -> list[float]:
    """``points`` evenly spaced evaluation times, the last one at ``horizon``."""
    grid = {"horizon": horizon, "points": points}
    end, count = (field.require(grid, "time grid") for field in _GRID_FIELDS)
    return [end * (index + 1) / count for index in range(int(count))]


def _policy(payload: dict, query: str) -> SolverPolicy:
    order = _solver_order(payload, query)
    options: dict[str, object] = {"order": order}
    if query == "transient":
        options["transient_times"] = _transient_times(payload)
    elif "times" in payload:
        raise RequestError("'times' applies to transient queries only")
    simulate = payload.get("simulate", {})
    if not isinstance(simulate, dict):
        raise RequestError(f"'simulate' must be a JSON object, got {type(simulate).__name__}")
    if simulate:
        _check_keys(simulate, _SIMULATE_KEYS, where="simulate")
        for field in _SIMULATE_FIELDS:
            value = field.read(simulate, "simulate")
            if value is not None:
                options[f"simulate_{field.name}"] = value
    try:
        return SolverPolicy(**options)
    except ParameterError as exc:
        raise RequestError(f"invalid solver policy: {exc}") from exc


def parse_request(payload: dict) -> SolveRequest:
    """Validate one request body into a :class:`SolveRequest`.

    Raises :class:`RequestError` naming the offending field for every way
    the body can be wrong.  The model's stability is left to the caller.
    """
    _check_keys(payload, _TOP_LEVEL_KEYS, where="request")
    query = payload.get("query", "steady-state")
    if query not in QUERY_KINDS:
        raise RequestError(f"unknown query kind {query!r}; accepted: {', '.join(QUERY_KINDS)}")
    if query == "scenario" and "preset" not in payload:
        raise RequestError("scenario queries require a 'preset' name")
    if "preset" in payload and "model" in payload:
        raise RequestError(
            "'preset' and 'model' are mutually exclusive; "
            "name a preset or describe a model, not both"
        )

    model: UnreliableQueueModel | ScenarioModel
    if "preset" in payload:
        if query == "steady-state":
            raise RequestError(
                "'preset' applies to scenario and transient queries; "
                "steady-state queries take a 'model' object"
            )
        model = _preset_model(payload)
    else:
        if "model" not in payload:
            raise RequestError(f"{query} queries require a 'model' object")
        if "arrival_rate" in payload:
            raise RequestError(
                "top-level 'arrival_rate' overrides a 'preset'; "
                "set it inside the 'model' object instead"
            )
        if "repair_capacity" in payload:
            raise RequestError(
                "top-level 'repair_capacity' applies to scenario presets; "
                "name a 'preset' or leave it out"
            )
        model = _homogeneous_model(payload["model"])

    deadline = _DEADLINE.read(payload, "request")
    policy = _policy(payload, query)
    return SolveRequest(query=query, model=model, policy=policy, deadline=deadline)
