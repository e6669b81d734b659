"""Output analysis for the discrete-event simulator.

The simulator produces a time-weighted trajectory of the number of jobs in
the system and a stream of per-job response times.  This module turns those
raw outputs into point estimates with confidence intervals using the batch
means method: the post-warmup horizon is split into equal-length batches, the
time-average of each batch is treated as an (approximately independent)
observation, and a Student-t interval is formed across batches.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np
import scipy.special

from ..exceptions import SimulationError


@dataclass(frozen=True)
class ConfidenceInterval:
    """A point estimate with a symmetric confidence interval.

    Attributes
    ----------
    estimate:
        The point estimate (mean over batches).
    half_width:
        Half the width of the confidence interval.
    confidence:
        The confidence level (e.g. 0.95).
    num_batches:
        Number of batch observations behind the estimate.
    """

    estimate: float
    half_width: float
    confidence: float
    num_batches: int

    @property
    def lower(self) -> float:
        """The lower end of the interval."""
        return self.estimate - self.half_width

    @property
    def upper(self) -> float:
        """The upper end of the interval."""
        return self.estimate + self.half_width

    def contains(self, value: float) -> bool:
        """Return True if ``value`` lies within the interval."""
        return self.lower <= value <= self.upper

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.estimate:.4f} ± {self.half_width:.4f} ({int(self.confidence * 100)}%)"


@dataclass(frozen=True)
class SimulationEstimate:
    """Point estimates (with confidence intervals) from one simulation run.

    Attributes
    ----------
    mean_queue_length:
        Time-average number of jobs in the system with a batch-means
        confidence interval.
    mean_response_time:
        Average response time of jobs completed after the warm-up period.
    utilisation:
        Time-average number of busy servers divided by ``N``.
    num_completed_jobs:
        Number of jobs that completed service after the warm-up period.
    horizon:
        Total simulated time (including warm-up).
    warmup_time:
        Length of the discarded warm-up period.
    """

    mean_queue_length: ConfidenceInterval
    mean_response_time: ConfidenceInterval
    utilisation: float
    num_completed_jobs: int
    horizon: float
    warmup_time: float


def batch_means_interval(
    batch_values: np.ndarray, *, confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval across batch observations."""
    values = np.asarray(batch_values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise SimulationError("batch means require at least two batch observations")
    if not 0.0 < confidence < 1.0:
        raise SimulationError("confidence must lie strictly between 0 and 1")
    mean = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / np.sqrt(values.size))
    # The Student-t quantile (what ``scipy.stats.t.ppf`` computes, without
    # importing ``scipy.stats``).
    quantile = float(scipy.special.stdtrit(values.size - 1, 0.5 + confidence / 2.0))
    return ConfidenceInterval(
        estimate=mean,
        half_width=quantile * std_error,
        confidence=confidence,
        num_batches=int(values.size),
    )


class TimeWeightedAccumulator:
    """Accumulates the time integral of a piecewise-constant trajectory.

    Used for the number-of-jobs process: every time the job count changes the
    simulator calls :meth:`record` with the new value; the accumulator keeps
    the running integral so time averages over arbitrary windows (warm-up,
    batches) can be extracted afterwards.
    """

    def __init__(self, initial_value: float = 0.0, initial_time: float = 0.0) -> None:
        self._current_value = float(initial_value)
        self._last_time = float(initial_time)
        self._area = 0.0
        self._breakpoints: list[tuple[float, float, float]] = []  # (time, area so far, value)
        self._breakpoint_times: list[float] = []  # kept parallel for O(log n) lookups

    @property
    def current_value(self) -> float:
        """The current value of the trajectory."""
        return self._current_value

    def record(self, time: float, new_value: float) -> None:
        """Advance the trajectory: it had ``current_value`` until ``time``."""
        if time < self._last_time:
            raise SimulationError(
                f"time must be non-decreasing (got {time} after {self._last_time})"
            )
        self._area += self._current_value * (time - self._last_time)
        self._breakpoints.append((time, self._area, self._current_value))
        self._breakpoint_times.append(time)
        self._last_time = time
        self._current_value = float(new_value)

    def area_up_to(self, time: float) -> float:
        """The integral of the trajectory from time 0 up to ``time``."""
        if time < 0.0:
            raise SimulationError("time must be non-negative")
        if time >= self._last_time:
            return self._area + self._current_value * (time - self._last_time)
        # Binary search over breakpoints for the last record before `time`.
        position = bisect.bisect_right(self._breakpoint_times, time)
        if position == 0:
            # Before the first recorded change: the initial value applied throughout.
            initial_value = self._breakpoints[0][2] if self._breakpoints else self._current_value
            return initial_value * time
        change_time, area_before, _ = self._breakpoints[position - 1]
        value_after = (
            self._breakpoints[position][2]
            if position < len(self._breakpoints)
            else self._current_value
        )
        return area_before + value_after * (time - change_time)

    def time_average(self, start: float, end: float) -> float:
        """The time average of the trajectory over the window ``[start, end]``."""
        if end <= start:
            raise SimulationError(f"window must have positive length, got [{start}, {end}]")
        return (self.area_up_to(end) - self.area_up_to(start)) / (end - start)
