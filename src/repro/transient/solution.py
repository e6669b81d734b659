"""Time-indexed transient solutions and their derived metrics.

A :class:`TransientSolution` holds the state distributions ``pi(t)`` of the
truncated chain over a whole time grid — shape ``(times, levels, modes)`` —
and answers the questions operators actually ask about them: the expected
queue length trajectory, point availability ``A(t)``, the probability that
every server is down, queue-tail probabilities, and per-time distributions.
It also exports the per-time headline metrics as CSV/JSON rows (the format
the ``repro transient`` CLI subcommand writes).
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Sequence
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import ParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios import ScenarioModel

#: Metric columns of :meth:`TransientSolution.to_rows`, in export order.
METRIC_COLUMNS = (
    "mean_queue_length",
    "availability",
    "probability_empty",
    "probability_all_inoperative",
    "truncation_mass",
)


class TransientSolution:
    """Transient distributions of a truncated unreliable-queue chain.

    Parameters
    ----------
    model:
        The model that was analysed (a
        :class:`~repro.scenarios.ScenarioModel`, the paper's pool included).
    times:
        The evaluation times, strictly increasing.
    probabilities:
        Array of shape ``(len(times), levels, modes)``; slice ``[i]`` is the
        distribution over ``(queue length, mode)`` at ``times[i]``.
    rate:
        The uniformization rate used by the engine (diagnostic).
    steps:
        Number of uniformization steps performed (diagnostic).
    stationary_step:
        The step at which the engine detected stationarity of the iterates,
        or ``None`` when the full Poisson truncation was swept.
    """

    def __init__(
        self,
        model: "ScenarioModel",
        times: Sequence[float],
        probabilities: np.ndarray,
        *,
        rate: float,
        steps: int,
        stationary_step: int | None = None,
    ) -> None:
        self._model = model
        self._times = tuple(float(t) for t in times)
        self._probabilities = np.asarray(probabilities, dtype=float)
        if self._probabilities.ndim != 3 or self._probabilities.shape[0] != len(self._times):
            raise ParameterError(
                f"probabilities must have shape (times, levels, modes), got "
                f"{self._probabilities.shape} for {len(self._times)} times"
            )
        self._rate = float(rate)
        self._steps = int(steps)
        self._stationary_step = stationary_step

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def model(self) -> "ScenarioModel":
        """The model that was analysed."""
        return self._model

    @property
    def times(self) -> tuple[float, ...]:
        """The evaluation times, strictly increasing."""
        return self._times

    @property
    def truncation_level(self) -> int:
        """The largest queue length represented in the finite chain."""
        return int(self._probabilities.shape[1] - 1)

    @property
    def num_modes(self) -> int:
        """The number of environment modes of the chain."""
        return int(self._probabilities.shape[2])

    @property
    def uniformization_rate(self) -> float:
        """The uniformization rate ``Lambda`` used by the engine."""
        return self._rate

    @property
    def steps(self) -> int:
        """The number of uniformization steps performed."""
        return self._steps

    @property
    def reached_stationarity(self) -> bool:
        """Whether the engine detected stationarity before the truncation point."""
        return self._stationary_step is not None

    @property
    def num_solved_states(self) -> int:
        """The state-space size of the chain that was swept."""
        return int(self._probabilities.shape[1] * self._probabilities.shape[2])

    def index_of(self, t: float) -> int:
        """The grid index of evaluation time ``t`` (must be on the grid)."""
        for index, value in enumerate(self._times):
            if math.isclose(value, t, rel_tol=1e-12, abs_tol=1e-12):
                return index
        raise ParameterError(f"time {t} is not on the evaluation grid {self._times}")

    def distribution_at(self, t: float) -> np.ndarray:
        """The ``(levels, modes)`` distribution at grid time ``t`` (copy)."""
        return self._probabilities[self.index_of(t)].copy()

    # ------------------------------------------------------------------ #
    # Derived trajectories (arrays aligned with :attr:`times`)
    # ------------------------------------------------------------------ #

    @cached_property
    def _level_totals(self) -> np.ndarray:
        """Queue-length marginals, shape ``(times, levels)``."""
        return self._probabilities.sum(axis=2)

    @cached_property
    def _mode_totals(self) -> np.ndarray:
        """Mode marginals, shape ``(times, modes)``."""
        return self._probabilities.sum(axis=1)

    def queue_length_pmf(self, t: float) -> np.ndarray:
        """The queue-length distribution at grid time ``t`` (copy)."""
        return self._level_totals[self.index_of(t)].copy()

    def mode_marginals(self, t: float) -> np.ndarray:
        """The environment-mode distribution at grid time ``t`` (copy)."""
        return self._mode_totals[self.index_of(t)].copy()

    @cached_property
    def mean_queue_length(self) -> np.ndarray:
        """Expected number of jobs in the system ``E[Q(t)]`` per grid time."""
        levels = np.arange(self._level_totals.shape[1])
        return self._level_totals @ levels

    @cached_property
    def mean_operative_servers(self) -> np.ndarray:
        """Expected number of operative servers per grid time."""
        counts = np.asarray(self._model.environment.operative_counts, dtype=float)
        return self._mode_totals @ counts

    @cached_property
    def availability(self) -> np.ndarray:
        """Point availability ``A(t)``: expected fraction of operative servers."""
        return self.mean_operative_servers / float(self._model.num_servers)

    @cached_property
    def probability_all_inoperative(self) -> np.ndarray:
        """Probability that every server is down, per grid time."""
        counts = np.asarray(self._model.environment.operative_counts, dtype=float)
        return self._mode_totals[:, counts == 0.0].sum(axis=1)

    @cached_property
    def probability_empty(self) -> np.ndarray:
        """Probability of an empty system, per grid time."""
        return self._level_totals[:, 0].copy()

    def queue_tail_probability(self, level: int) -> np.ndarray:
        """Probability ``P(Q(t) >= level)`` per grid time."""
        if level < 0:
            raise ParameterError(f"level must be non-negative, got {level}")
        if level > self.truncation_level:
            return np.zeros(len(self._times))
        return self._level_totals[:, level:].sum(axis=1)

    @cached_property
    def truncation_mass(self) -> np.ndarray:
        """Probability mass at the truncation boundary per grid time (diagnostic)."""
        return self._level_totals[:, -1].copy()

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def to_rows(self) -> list[dict[str, float]]:
        """One flat record per grid time with the headline metric columns."""
        columns = {
            "mean_queue_length": self.mean_queue_length,
            "availability": self.availability,
            "probability_empty": self.probability_empty,
            "probability_all_inoperative": self.probability_all_inoperative,
            "truncation_mass": self.truncation_mass,
        }
        return [
            {
                "time": self._times[index],
                **{name: float(columns[name][index]) for name in METRIC_COLUMNS},
            }
            for index in range(len(self._times))
        ]

    def to_csv(self, path: str | Path) -> Path:
        """Write the per-time metric rows to a CSV file and return its path."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=["time", *METRIC_COLUMNS])
            writer.writeheader()
            writer.writerows(self.to_rows())
        return path

    def to_json(self, path: str | Path | None = None) -> str:
        """Serialise the per-time metrics to JSON; optionally write to ``path``."""
        payload = {
            "model": repr(self._model),
            "truncation_level": self.truncation_level,
            "uniformization_rate": self._rate,
            "steps": self._steps,
            "num_solved_states": self.num_solved_states,
            "rows": self.to_rows(),
        }
        text = json.dumps(payload, indent=2)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransientSolution(times={len(self._times)}, "
            f"levels={self.truncation_level + 1}, modes={self.num_modes}, "
            f"steps={self._steps})"
        )
