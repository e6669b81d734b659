"""First-passage times via absorbing-state uniformization.

"How long until every server is down?"  "How long until the backlog exceeds
``L``?"  Both are first-passage questions about the same truncated chain the
steady-state solvers use: pick a *target set* of states, make them absorbing
(zero their generator rows), and run the uniformization sweep — the mass
accumulated in the target by time ``t`` is exactly the first-passage CDF
``F(t) = P(T_target <= t)``.  The mean first-passage time comes from the
classical linear system on the transient states, ``Q_TT m = -1``, solved
with sparse LU.

Truncation note: the chain is the *truncated* one, so target sets involving
queue levels near the truncation boundary inherit the (tiny) truncation
bias; the boundary-mass diagnostics of the steady-state solvers apply
unchanged.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from ..exceptions import ParameterError, SolverError
from ..scenarios.ctmc import build_truncated_generator, default_truncation_level
from .analysis import initial_distribution, normalise_times
from .uniformization import DEFAULT_TAIL_TOLERANCE, transient_distributions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .analysis import TransientModel

#: Named target sets accepted by :func:`target_mask`.
TARGET_NAMES = ("all-servers-down", "queue-exceeds")


def target_mask(
    model: "TransientModel",
    num_levels: int,
    target: str | Sequence[bool] | np.ndarray,
    *,
    queue_threshold: int | None = None,
) -> np.ndarray:
    """A boolean mask over the flat truncated state space selecting the target.

    Parameters
    ----------
    model:
        The queueing or scenario model (provides the environment).
    num_levels:
        Number of queue-length levels of the truncated chain (``J + 1``).
    target:
        ``"all-servers-down"`` (every server inoperative, any queue length),
        ``"queue-exceeds"`` (queue length strictly above ``queue_threshold``),
        or an explicit boolean mask of shape ``(num_levels * num_modes,)``.
    queue_threshold:
        The level ``L`` of the ``"queue-exceeds"`` target; must leave at
        least one transient level below the truncation boundary.
    """
    num_modes = model.environment.num_modes
    size = num_levels * num_modes
    if isinstance(target, str):
        if target == "all-servers-down":
            counts = np.asarray(model.environment.operative_counts, dtype=float)
            return np.tile(counts == 0.0, num_levels)
        if target == "queue-exceeds":
            if queue_threshold is None:
                raise ParameterError("the 'queue-exceeds' target needs a queue_threshold")
            threshold = int(queue_threshold)
            if threshold < 0:
                raise ParameterError(f"queue_threshold must be non-negative, got {threshold}")
            if threshold >= num_levels - 1:
                raise ParameterError(
                    f"queue_threshold {threshold} reaches the truncation level "
                    f"{num_levels - 1}; raise max_queue_length"
                )
            mask = np.zeros(size, dtype=bool)
            mask[(threshold + 1) * num_modes :] = True
            return mask
        raise ParameterError(
            f"unknown first-passage target {target!r}; expected one of "
            f"{', '.join(TARGET_NAMES)} or an explicit boolean mask"
        )
    mask = np.asarray(target, dtype=bool)
    if mask.shape != (size,):
        raise ParameterError(
            f"target mask has shape {mask.shape}, expected ({size},) for "
            f"{num_levels} levels x {num_modes} modes"
        )
    if not mask.any():
        raise ParameterError("the first-passage target set is empty")
    if mask.all():
        raise ParameterError("the first-passage target set covers every state")
    return mask.copy()


@dataclass(frozen=True)
class FirstPassageSolution:
    """The first-passage law of one target set over a time grid.

    Attributes
    ----------
    times:
        Evaluation times, strictly increasing.
    cdf:
        ``P(T_target <= times[i])`` per grid time (non-decreasing in ``i``).
    mean:
        The expected first-passage time from the initial condition.
    target:
        Human-readable description of the target set.
    num_target_states:
        Size of the target set in the truncated chain.
    """

    times: tuple[float, ...]
    cdf: tuple[float, ...]
    mean: float
    target: str
    num_target_states: int

    def probability_by(self, t: float) -> float:
        """``P(T_target <= t)`` for a grid time ``t``."""
        for index, value in enumerate(self.times):
            if np.isclose(value, t, rtol=1e-12, atol=1e-12):
                return self.cdf[index]
        raise ParameterError(f"time {t} is not on the evaluation grid {self.times}")

    def survival(self) -> tuple[float, ...]:
        """``P(T_target > times[i])`` per grid time."""
        return tuple(1.0 - value for value in self.cdf)


def first_passage_time(
    model: "TransientModel",
    times: float | Sequence[float] | np.ndarray,
    *,
    target: str | Sequence[bool] | np.ndarray = "all-servers-down",
    queue_threshold: int | None = None,
    initial: str | Sequence[float] | np.ndarray = "empty-operative",
    max_queue_length: int | None = None,
    tol: float = DEFAULT_TAIL_TOLERANCE,
) -> FirstPassageSolution:
    """First-passage CDF over a time grid, plus the mean first-passage time.

    Parameters
    ----------
    model:
        A stable Markovian queueing or scenario model.
    times:
        Evaluation times of the CDF (deduplicated, sorted ascending).
    target, queue_threshold:
        The target set (see :func:`target_mask`).
    initial:
        Initial condition (see :func:`repro.transient.initial_distribution`).
        Initial mass already inside the target counts as absorbed at 0.
    max_queue_length:
        Truncation level; defaults to the steady-state solver's level.
    tol:
        Poisson-tail tolerance of the uniformization engine.
    """
    model.require_stable()
    level = default_truncation_level(model) if max_queue_length is None else int(max_queue_length)
    if level <= model.num_servers:
        raise ParameterError(
            "max_queue_length must exceed the number of servers "
            f"({level} <= {model.num_servers})"
        )
    generator = scipy.sparse.csr_matrix(build_truncated_generator(model, level))
    num_levels = level + 1
    mask = target_mask(model, num_levels, target, queue_threshold=queue_threshold)
    grid = normalise_times(times)
    start = initial_distribution(model, num_levels, initial)

    # Make the target absorbing by zeroing its rows (left-multiply by the
    # transient-state indicator), then sweep the absorbing chain once.
    keep = scipy.sparse.diags((~mask).astype(float))
    absorbing = (keep @ generator).tocsr()
    # Stationarity detection doubles as absorption detection: once all mass
    # is absorbed the iterates stop moving and the sweep terminates early.
    result = transient_distributions(absorbing, start, grid, tol=tol)
    cdf = result.distributions[:, mask].sum(axis=1)
    # Guard against accumulation noise: the CDF is monotone by construction.
    cdf = np.minimum(np.maximum.accumulate(np.clip(cdf, 0.0, 1.0)), 1.0)

    mean = _mean_first_passage(generator, mask, start)
    return FirstPassageSolution(
        times=grid,
        cdf=tuple(float(value) for value in cdf),
        mean=mean,
        target=target if isinstance(target, str) else "custom",
        num_target_states=int(mask.sum()),
    )


def _mean_first_passage(
    generator: scipy.sparse.csr_matrix, mask: np.ndarray, start: np.ndarray
) -> float:
    """Expected hitting time of the target via the linear system ``Q_TT m = -1``."""
    transient = np.nonzero(~mask)[0]
    restricted = generator[transient][:, transient].tocsr()
    rhs = -np.ones(transient.size)
    try:
        hitting = scipy.sparse.linalg.spsolve(restricted, rhs)
    except RuntimeError as exc:  # pragma: no cover - depends on SuperLU behaviour
        raise SolverError(f"mean first-passage solve failed: {exc}") from exc
    hitting = np.asarray(hitting, dtype=float)
    if np.any(~np.isfinite(hitting)) or np.any(hitting < -1e-9):
        raise SolverError(
            "mean first-passage solve produced invalid hitting times; "
            "the target may be unreachable from part of the chain"
        )
    return float(start[transient] @ np.clip(hitting, 0.0, None))
