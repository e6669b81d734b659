"""Quasi-birth-death (QBD) representation of the Markov-modulated queue.

The unreliable multi-server queue of the paper is a Markov-modulated M/M/N
queue: its state is ``(operational mode, number of jobs)`` and transitions
change the job count by at most one.  Section 3.1 of the paper expresses the
transition rates through three families of ``s x s`` matrices:

* ``A`` — mode-changing transitions that leave the job count unchanged
  (breakdowns and repairs), with ``D^A`` the diagonal matrix of its row sums;
* ``B = lambda I`` — job arrivals (they do not change the mode);
* ``C_j`` — service completions when ``j`` jobs are present, a diagonal
  matrix of each mode's service capacity with ``j`` jobs present.  For
  ``j >= N`` the matrix no longer depends on ``j`` and is written ``C``.

A scenario chain (server groups, a limited repair crew) is the same QBD with
a larger environment and fastest-server-first capacities, so the class reads
all three from the model's chain, as the truncated CTMC and the transient
engine do: ``A`` from its :class:`~repro.markov.ScenarioEnvironment`,
``lambda`` from its arrival rate and every ``C_j`` from its
``service_capacity_by_level``
(:meth:`~repro.markov.ScenarioEnvironment.capacity_by_level`, which on the
paper's one group is ``min(x_i, j) mu``, with ``x_i`` the operative servers
of mode ``i``).  It exposes the three coefficient matrices of the
characteristic matrix polynomial ``Q(z) = Q0 + Q1 z + Q2 z^2`` (paper
Eq. 15–16): ``Q0 = B``, ``Q1 = A - D^A - B - C`` and ``Q2 = C``.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .._validation import check_non_negative_int, check_positive
from ..markov import ScenarioEnvironment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.model import ScenarioModel


class ModulatedQueueMatrices:
    """The QBD matrix family of a Markov-modulated queue.

    Parameters
    ----------
    model:
        The chain: a :class:`~repro.scenarios.ScenarioModel` (the paper's
        :class:`~repro.queueing.UnreliableQueueModel` included) with
        exponential or hyperexponential periods.
    """

    def __init__(self, model: "ScenarioModel") -> None:
        self._environment = model.environment
        self._arrival_rate = check_positive(model.arrival_rate, "arrival_rate")
        # Row j is the diagonal of C_j for j = 0 .. N.
        self._capacity = model.service_capacity_by_level

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def environment(self) -> ScenarioEnvironment:
        """The modulating environment."""
        return self._environment

    @property
    def arrival_rate(self) -> float:
        """The Poisson arrival rate ``lambda``."""
        return self._arrival_rate

    @property
    def num_modes(self) -> int:
        """The number of operational modes ``s``."""
        return self._environment.num_modes

    @property
    def num_servers(self) -> int:
        """The number of servers ``N`` (the boundary level of the QBD)."""
        return self._environment.num_servers

    # ------------------------------------------------------------------ #
    # The matrices of Section 3.1
    # ------------------------------------------------------------------ #

    @cached_property
    def mode_transition_matrix(self) -> np.ndarray:
        """The matrix ``A`` of mode-changing rates (zero diagonal)."""
        return self._environment.transition_matrix

    @cached_property
    def mode_row_sums(self) -> np.ndarray:
        """The diagonal matrix ``D^A`` of the row sums of ``A``."""
        return np.diag(self.mode_transition_matrix.sum(axis=1))

    @cached_property
    def arrival_matrix(self) -> np.ndarray:
        """The arrival matrix ``B = lambda I``."""
        return self._arrival_rate * np.eye(self.num_modes)

    def service_rates(self, level: int) -> np.ndarray:
        """The diagonal of ``C_j`` for ``j = level``: each mode's service capacity."""
        level = check_non_negative_int(level, "level")
        return self._capacity[min(level, self.num_servers)]

    def service_matrix(self, level: int) -> np.ndarray:
        """The diagonal ``C_j`` for ``j = level`` jobs (``C_0 = 0``, ``C_j = C`` for ``j >= N``)."""
        return np.diag(self.service_rates(level))

    @cached_property
    def repeating_service_matrix(self) -> np.ndarray:
        """The level-independent service matrix ``C`` valid for ``j >= N``."""
        return self.service_matrix(self.num_servers)

    def local_balance_matrix(self, level: int) -> np.ndarray:
        """The matrix multiplying ``v_j`` in the balance equation at ``level``.

        Equal to ``A - D^A - B - C_level``; this is the "stay at the same
        level" part of the generator including the diagonal loss terms.
        """
        return (
            self.mode_transition_matrix
            - self.mode_row_sums
            - self.arrival_matrix
            - self.service_matrix(level)
        )

    # ------------------------------------------------------------------ #
    # Characteristic polynomial coefficients (paper Eq. 15-16)
    # ------------------------------------------------------------------ #

    @cached_property
    def q0(self) -> np.ndarray:
        """``Q0 = B`` — the coefficient of ``z^0``."""
        return self.arrival_matrix

    @cached_property
    def q1(self) -> np.ndarray:
        """``Q1 = A - D^A - B - C`` — the coefficient of ``z^1``."""
        return self.local_balance_matrix(self.num_servers)

    @cached_property
    def q2(self) -> np.ndarray:
        """``Q2 = C`` — the coefficient of ``z^2``."""
        return self.repeating_service_matrix

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ModulatedQueueMatrices(modes={self.num_modes}, servers={self.num_servers}, "
            f"arrival_rate={self._arrival_rate:.6g})"
        )
