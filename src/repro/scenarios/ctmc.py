"""Truncated-CTMC reference solution for every chain model.

The spectral expansion handles the infinite queue exactly.  As an independent
check, this module solves the same Markov process on a *finite* state space:
the queue is truncated at a large level ``J`` and the global balance
equations of the chain over ``(queue length, mode)`` pairs are solved with
sparse linear algebra.  One chain serves every
:class:`~repro.scenarios.model.ScenarioModel`, the paper's pool (the
``K = 1, R = N`` case) included.  The service-completion rate of a state is
level- and mode-dependent: with ``j`` jobs present the fastest-server-first
discipline puts them on the ``j`` fastest operative servers
(:attr:`~repro.scenarios.model.ScenarioModel.service_capacity_by_level`).

The truncation level is seeded from the asymptotic decay rate of the
queue-length tail, ``J = N + log(eps) / log(z)``:

* for a homogeneous model (one group, unlimited crew:
  :attr:`~repro.scenarios.model.ScenarioModel.is_homogeneous`) ``z`` is the
  dominant eigenvalue ``z_s`` of the spectral expansion, found on one
  server — the exact tail decay rate;
* for every other scenario ``z`` is the effective load, since the exact
  decay rate would need the whole rate matrix ``R``: a heuristic rather than
  a bound (with slow repairs the true decay rate can exceed it substantially).

Either way :func:`solve_scenario_ctmc` checks the realised boundary mass and
re-solves with a doubled level until the ~1e-10 target is met or the hard
cap is reached; every re-solve counts in
``repro_ctmc_truncation_growths_total``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse

from .._validation import check_positive_int
from ..exceptions import ReproError, SolverError
from ..markov import LevelModeStructure, assemble_level_mode_generator, steady_state_csr
from ..obs.metrics import numerics_registry
from ..queueing.solution_base import QueueSolution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .model import ScenarioModel

#: Target truncation tail mass used when choosing the truncation level.
_DEFAULT_TAIL_MASS = 1e-10

#: Hard bounds on the automatically chosen truncation level (above ``N``).
_MIN_EXTRA_LEVELS = 100
_MAX_EXTRA_LEVELS = 40_000


def _tail_decay_rate(model: "ScenarioModel") -> float:
    """The queue-length decay rate used to size the truncation.

    The dominant eigenvalue ``z_s`` of the characteristic polynomial when the
    model is homogeneous and :func:`~repro.spectral.decay_rate` finds it on
    one server; the effective load otherwise (non-Markovian periods, unstable
    or ill-conditioned pools, and every other scenario).
    """
    if model.is_homogeneous:
        from ..spectral.approximation import decay_rate

        try:
            return decay_rate(model)
        except ReproError:
            pass
    return model.effective_load


def default_truncation_level(model: "ScenarioModel") -> int:
    """A truncation level that keeps the neglected tail mass below ~1e-10."""
    decay = min(_tail_decay_rate(model), 0.999999)
    if decay <= 0.0:
        extra = _MIN_EXTRA_LEVELS
    else:
        extra = int(math.ceil(math.log(_DEFAULT_TAIL_MASS) / math.log(decay)))
        extra = min(max(extra, _MIN_EXTRA_LEVELS), _MAX_EXTRA_LEVELS)
    return model.num_servers + extra


class ScenarioCTMCSolution(QueueSolution):
    """Steady-state solution of the truncated chain.

    :attr:`truncation_level` and :meth:`truncation_mass` report how
    aggressive the truncation was; :attr:`num_solved_states` is the size of
    the chain that was solved.
    """

    def __init__(self, model: "ScenarioModel", probabilities: np.ndarray) -> None:
        self._model = model
        self._probabilities = probabilities  # shape (levels, modes)
        self._level_totals = probabilities.sum(axis=1)

    @property
    def num_solved_states(self) -> int:
        """The state-space size of the chain that was solved."""
        return int(self._probabilities.size)

    @property
    def probabilities_by_level(self) -> np.ndarray:
        """The full ``(levels, modes)`` probability array (a copy)."""
        return self._probabilities.copy()

    @property
    def model(self) -> "ScenarioModel":
        """The model that was solved."""
        return self._model

    @property
    def arrival_rate(self) -> float:
        return self._model.arrival_rate

    @property
    def num_servers(self) -> int:
        return self._model.num_servers

    @property
    def truncation_level(self) -> int:
        """The largest queue length represented in the finite chain."""
        return int(self._probabilities.shape[0] - 1)

    def truncation_mass(self) -> float:
        """The probability mass at the truncation boundary (diagnostic).

        A well-chosen truncation level makes this negligible; validation
        tests assert it is tiny before comparing against the exact solution.
        """
        return float(self._level_totals[-1])

    def level_vector(self, num_jobs: int) -> np.ndarray:
        """The probability vector over modes at level ``num_jobs``."""
        if num_jobs < 0 or num_jobs > self.truncation_level:
            return np.zeros(self._probabilities.shape[1])
        return self._probabilities[num_jobs].copy()

    def queue_length_pmf(self, num_jobs: int) -> float:
        if num_jobs < 0 or num_jobs > self.truncation_level:
            return 0.0
        return float(self._level_totals[num_jobs])

    def mode_marginals(self) -> np.ndarray:
        totals = self._probabilities.sum(axis=0)
        return totals / totals.sum()

    @property
    def mean_queue_length(self) -> float:
        levels = np.arange(self._level_totals.size)
        return float(np.dot(levels, self._level_totals))

    @property
    def mean_busy_servers(self) -> float:
        """Exact mean number of busy servers under the truncated chain."""
        counts = self._model.environment.operative_counts
        total = 0.0
        for level in range(self._probabilities.shape[0]):
            busy = np.minimum(counts, float(level))
            total += float(self._probabilities[level] @ busy)
        return total

    @property
    def mean_jobs_in_service(self) -> float:
        return self.mean_busy_servers

    @property
    def mean_jobs_waiting(self) -> float:
        return self.mean_queue_length - self.mean_jobs_in_service

    @property
    def utilisation(self) -> float:
        """Time-average fraction of busy servers (comparable to the simulator's)."""
        return self.mean_busy_servers / self.num_servers

    @property
    def throughput(self) -> float:
        """Mean service-completion rate ``E[c(j, m)]`` (equals ``lambda`` up to truncation)."""
        capacities = self._model.service_capacity_by_level
        total = 0.0
        for level in range(self._probabilities.shape[0]):
            rates = capacities[min(level, self._model.num_servers)]
            total += float(self._probabilities[level] @ rates)
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScenarioCTMCSolution(N={self.num_servers}, "
            f"levels={self.truncation_level + 1}, L={self.mean_queue_length:.4f})"
        )


def build_truncated_generator(
    model: "ScenarioModel", max_queue_length: int
) -> scipy.sparse.csr_matrix:
    """Build the sparse generator of the truncated chain.

    States are ordered level-major: state ``(mode i, level j)`` has index
    ``j * s + i``.  Arrivals at the truncation boundary are dropped, which is
    the usual finite-buffer truncation and biases the solution optimistically
    by a negligible amount when the boundary mass is tiny.
    """
    max_queue_length = check_positive_int(max_queue_length, "max_queue_length")
    level_index = np.minimum(np.arange(max_queue_length + 1), model.num_servers)
    return assemble_level_mode_generator(
        model.environment.transition_matrix_sparse,
        model.arrival_rate,
        model.service_capacity_by_level[level_index],
    )


def chain_structure(model: "ScenarioModel", max_queue_length: int) -> LevelModeStructure:
    """The level x mode structure of the model's truncated chain."""
    environment = model.environment
    return LevelModeStructure(
        num_levels=max_queue_length + 1,
        num_modes=environment.num_modes,
        mode_generator=environment.generator_sparse,
    )


def solve_scenario_ctmc(
    model: "ScenarioModel", max_queue_length: int | None = None
) -> ScenarioCTMCSolution:
    """Solve the truncated chain of a scenario or homogeneous model.

    Parameters
    ----------
    model:
        The model to evaluate (must be stable; otherwise the truncated
        solution would silently misrepresent an unstable system).
    max_queue_length:
        The truncation level ``J``.  When omitted it is seeded by
        :func:`default_truncation_level` and doubled until the realised
        boundary mass meets the ~1e-10 target (up to a hard cap).  An
        explicit level is used as given, with no adaptation.
    """
    model.require_stable()
    if max_queue_length is not None:
        if max_queue_length <= model.num_servers:
            raise SolverError(
                "max_queue_length must exceed the number of servers "
                f"({max_queue_length} <= {model.num_servers})"
            )
        return _solve_at_level(model, max_queue_length)

    level = default_truncation_level(model)
    solution = _solve_at_level(model, level)
    while (
        solution.truncation_mass() > _DEFAULT_TAIL_MASS
        and level - model.num_servers < _MAX_EXTRA_LEVELS
    ):
        extra = min(2 * (level - model.num_servers), _MAX_EXTRA_LEVELS)
        level = model.num_servers + extra
        numerics_registry().counter(
            "repro_ctmc_truncation_growths_total",
            "Adaptive re-solves after the boundary mass exceeded its target.",
        ).inc()
        solution = _solve_at_level(model, level)
    return solution


def _solve_at_level(model: "ScenarioModel", max_queue_length: int) -> ScenarioCTMCSolution:
    """Solve the truncated chain at one fixed truncation level."""
    generator = build_truncated_generator(model, max_queue_length)
    structure = chain_structure(model, max_queue_length)
    stationary = steady_state_csr(generator, structure=structure)
    probabilities = stationary.reshape(max_queue_length + 1, structure.num_modes)
    return ScenarioCTMCSolution(model, probabilities)
