"""Model-level transient analysis: build the chain, pick a start, run the engine.

:func:`solve_transient` is the front door of the package.  It reuses the
truncated-generator builder of the steady-state reference solver in
:mod:`repro.scenarios.ctmc` — one chain for scenarios and for the paper's
pool, their ``K = 1, R = N`` case — so the transient engine analyses
*exactly* the chain the steady-state CTMC solver validates against, sizes
the truncation the same way, and wraps the uniformization sweep in a
:class:`~repro.transient.solution.TransientSolution`.

Initial conditions
------------------
The interesting transient questions start the chain away from equilibrium.
Three named starts cover the common cases (an explicit vector is accepted
too):

``"empty-operative"`` (default)
    An empty queue with every server operative, phases entered according to
    the operative mixture weights — the state a freshly provisioned cluster
    is in, and exactly how the simulators bootstrap.
``"empty-inoperative"``
    An empty queue with every server down (phases by the inoperative
    weights) — "the rack just failed"; availability ramps from 0.
``"empty-equilibrium"``
    An empty queue with the environment already in its own steady state —
    isolates the queue-filling transient from the environment's.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import ParameterError
from ..scenarios.ctmc import build_truncated_generator, default_truncation_level
from .solution import TransientSolution
from .uniformization import (
    DEFAULT_STATIONARY_TOLERANCE,
    DEFAULT_TAIL_TOLERANCE,
    check_times,
    transient_distributions,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..queueing.model import UnreliableQueueModel
    from ..scenarios import ScenarioModel

    TransientModel = UnreliableQueueModel | ScenarioModel

#: The named initial conditions accepted by :func:`initial_distribution`.
INITIAL_CONDITIONS = ("empty-operative", "empty-inoperative", "empty-equilibrium")

#: Default evaluation grid used when a caller (e.g. the ``transient`` solver
#: backend) asks for a transient solution without naming times.
DEFAULT_TIME_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


def _occupancy_probability(occupancy: Sequence[int], weights: np.ndarray) -> float:
    """Multinomial probability of one phase-occupancy vector.

    ``occupancy[j]`` servers land in phase ``j``, each independently with
    probability ``weights[j]``; the total is ``sum(occupancy)``.
    """
    total = int(sum(occupancy))
    probability = float(math.factorial(total))
    for count, weight in zip(occupancy, weights):
        probability *= float(weight) ** int(count) / math.factorial(int(count))
    return probability


def _mode_distribution(model: "TransientModel", kind: str) -> np.ndarray:
    """The distribution over environment modes for a named initial condition."""
    environment = model.environment
    if kind == "empty-equilibrium":
        return np.asarray(environment.steady_state, dtype=float)

    operative_start = kind == "empty-operative"
    distribution = np.zeros(environment.num_modes)
    weights_by_group = (
        environment.operative_weights_by_group
        if operative_start
        else environment.inoperative_weights_by_group
    )
    for index, mode in enumerate(environment.modes):
        probability = 1.0
        for group, (operative, inoperative) in enumerate(mode):
            occupancy, other = (
                (operative, inoperative) if operative_start else (inoperative, operative)
            )
            if sum(other) != 0:
                probability = 0.0
                break
            probability *= _occupancy_probability(occupancy, weights_by_group[group])
        distribution[index] = probability
    total = distribution.sum()
    if not np.isclose(total, 1.0, atol=1e-9):  # pragma: no cover - defensive
        raise ParameterError(f"initial mode distribution sums to {total}, expected 1")
    return distribution / total


def initial_distribution(
    model: "TransientModel",
    num_levels: int,
    initial: str | Sequence[float] | np.ndarray,
) -> np.ndarray:
    """The flat initial state vector of the truncated chain.

    Parameters
    ----------
    model:
        The queueing or scenario model (provides the environment).
    num_levels:
        Number of queue-length levels of the truncated chain (``J + 1``).
    initial:
        One of :data:`INITIAL_CONDITIONS`, a vector over the environment
        modes (placed at queue length 0), or a full flat state vector.
    """
    num_modes = model.environment.num_modes
    if isinstance(initial, str):
        if initial not in INITIAL_CONDITIONS:
            raise ParameterError(
                f"unknown initial condition {initial!r}; expected one of "
                f"{', '.join(INITIAL_CONDITIONS)} or an explicit vector"
            )
        modes = _mode_distribution(model, initial)
        vector = np.zeros(num_levels * num_modes)
        vector[:num_modes] = modes
        return vector
    vector = np.asarray(initial, dtype=float)
    if vector.shape == (num_modes,):
        flat = np.zeros(num_levels * num_modes)
        flat[:num_modes] = vector
        return flat
    if vector.shape == (num_levels * num_modes,):
        return vector.copy()
    raise ParameterError(
        f"initial vector has shape {vector.shape}; expected ({num_modes},) for a "
        f"mode distribution or ({num_levels * num_modes},) for a full state vector"
    )


def normalise_times(times: float | Sequence[float] | np.ndarray) -> tuple[float, ...]:
    """Coerce, validate and ascending-sort an evaluation time grid."""
    grid = tuple(sorted({float(t) for t in np.atleast_1d(np.asarray(times, dtype=float))}))
    if not grid:
        raise ParameterError("the evaluation time grid is empty")
    check_times(grid)
    return grid


def solve_transient(
    model: "TransientModel",
    times: float | Sequence[float] | np.ndarray = DEFAULT_TIME_GRID,
    *,
    initial: str | Sequence[float] | np.ndarray = "empty-operative",
    max_queue_length: int | None = None,
    tol: float = DEFAULT_TAIL_TOLERANCE,
    stationary_tol: float = DEFAULT_STATIONARY_TOLERANCE,
) -> TransientSolution:
    """Compute ``pi(t)`` on the truncated chain over a whole time grid.

    Parameters
    ----------
    model:
        A stable :class:`~repro.queueing.model.UnreliableQueueModel` or
        :class:`~repro.scenarios.ScenarioModel` with Markovian period
        distributions (the same restriction as the steady-state CTMC solver).
    times:
        Evaluation times; deduplicated and sorted ascending.  One
        uniformization pass serves the entire grid.
    initial:
        Initial condition (see the module docstring): a name from
        :data:`INITIAL_CONDITIONS` or an explicit vector.
    max_queue_length:
        Truncation level ``J``; defaults to the steady-state solver's
        decay-rate-based level, which bounds the mass a *stable* chain can
        push past the boundary from an empty start.
    tol:
        Poisson-tail tolerance of the uniformization engine.
    stationary_tol:
        Stationarity-detection threshold of the engine (0 disables).
    """
    model.require_stable()
    level = default_truncation_level(model) if max_queue_length is None else int(max_queue_length)
    if level <= model.num_servers:
        raise ParameterError(
            "max_queue_length must exceed the number of servers "
            f"({level} <= {model.num_servers})"
        )
    grid = normalise_times(times)
    generator = build_truncated_generator(model, level)
    start = initial_distribution(model, level + 1, initial)
    result = transient_distributions(
        generator, start, grid, tol=tol, stationary_tol=stationary_tol
    )
    num_modes = model.environment.num_modes
    probabilities = result.distributions.reshape(len(grid), level + 1, num_modes)
    return TransientSolution(
        model,
        grid,
        probabilities,
        rate=result.rate,
        steps=result.steps,
        stationary_step=result.stationary_step,
    )

