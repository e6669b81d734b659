"""The JSON request/response protocol of the solver service.

One endpoint does the work: ``POST /solve`` takes a JSON object describing a
query and returns the solved metrics.  Three query kinds cover everything the
library can answer:

``steady-state`` (the default)
    A homogeneous Palmer–Mitrani model described by the ``model`` object;
    solved through the full steady-state fallback chain.
``scenario``
    A named preset from :mod:`repro.scenarios` (``preset``), optionally
    overriding ``arrival_rate`` and ``repair_capacity``; solved by the
    scenario-capable chain (``spectral`` → ``ctmc`` → ``simulate``).
``transient``
    Time-dependent metrics over the ``times`` grid, for either a ``model``
    object or a ``preset``; solved by the ``transient`` backend (metrics are
    reported at the final grid time).

Request schema::

    {
      "query": "steady-state" | "scenario" | "transient",   # default steady-state
      "model": {"servers": 10, "arrival_rate": 7.0, ...},    # without preset
      "preset": "two-speed-cluster",  # scenario (and scenario transients)
      "arrival_rate": 7.0,            # optional preset override
      "repair_capacity": 2,           # optional preset override
      "solvers": ["spectral", ...],   # optional fallback chain override
      "times": [1.0, 5.0, 25.0],      # transient evaluation grid
      "simulate": {"horizon": ..., "seed": ..., "num_batches": ...,
                   "warmup_fraction": ...},                  # optional
      "deadline": 2.5                 # optional per-request seconds budget
    }

A success response is ``{"status": "ok", "query": ..., "solver": ...,
"stable": true, "metrics": {...}, "cached": ..., "coalesced": ...,
"elapsed_ms": ...}``; failures are :mod:`structured errors <.errors>`.

Parsing is deliberately strict: unknown top-level keys, ill-typed fields and
unstable models are rejected *before* admission, so the scheduler only ever
sees work that can succeed, and every rejection names the offending field.
:mod:`repro.query` holds that vocabulary, the command line's too: the
``model`` fields with their defaults and bounds are its ``MODEL_FIELDS``.
"""

from __future__ import annotations

import json
import math

from ..query import RequestError, SolveRequest, parse_request
from .errors import (
    BadJSONError,
    BadRequestError,
    ServiceError,
    UnknownPresetError,
    UnknownSolverError,
    UnstableModelError,
)

#: The service error each :class:`~repro.query.RequestError` code maps onto.
_REQUEST_ERRORS: dict[str, type[ServiceError]] = {
    error.code: error for error in (BadRequestError, UnknownSolverError, UnknownPresetError)
}


def parse_body(raw: bytes) -> dict:
    """Decode a request body into a JSON object, or raise ``bad-json``."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadJSONError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise BadJSONError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def parse_solve_request(payload: dict) -> SolveRequest:
    """Validate one ``/solve`` payload into a schedulable :class:`SolveRequest`.

    Raises a :class:`~.errors.ServiceError` subclass naming the offending
    field for every way the payload can be wrong; an unstable model is
    rejected here (``unstable-model``) so the scheduler never admits work
    whose answer cannot be serialised.
    """
    try:
        request = parse_request(payload)
    except RequestError as exc:
        raise _REQUEST_ERRORS[exc.code](str(exc)) from exc
    if not request.model.is_stable:
        raise UnstableModelError(
            "the requested model is unstable (offered load exceeds the mean "
            "operative capacity); add servers or reduce the arrival rate"
        )
    return request


def json_safe(value: object) -> object:
    """Recursively replace non-finite floats with ``None``.

    Strict JSON has no ``Infinity``/``NaN``; stable solved metrics are always
    finite, but third-party solvers may report extras (and defensive coding
    beats a 500 from ``json.dumps(..., allow_nan=False)``).
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    return value


def encode_response(payload: dict) -> bytes:
    """Serialise one response payload as compact, strict UTF-8 JSON."""
    return json.dumps(json_safe(payload), allow_nan=False, separators=(",", ":")).encode("utf-8")
