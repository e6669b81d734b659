"""Exact steady-state solution of a Markov-modulated queue by spectral expansion.

This module implements Section 3.1 of the paper end to end, for the paper's
pool and every scenario chain (the same QBD with other capacities ``C_j``):

1. read the QBD matrices ``A``, ``B``, ``C_j`` and the coefficients
   ``Q0, Q1, Q2`` off the model's chain (:mod:`repro.spectral.qbd`);
2. compute the rate matrix ``R``, the minimal non-negative solution of
   ``Q0 + R Q1 + R^2 Q2 = 0``, by logarithmic reduction
   (:mod:`repro.spectral.eigen`).  Its eigenvalues are the ``s`` generalized
   eigenvalues ``z_k`` inside the unit disk (paper Eq. 17–18), and the
   expansion ``v_{N+t} = sum_k c_k u_k z_k^t`` of the repeating levels
   (Eq. 19) is ``v_N R^t``, so no eigenvector is ever formed and every step
   runs in real ``s x s`` arithmetic;
3. determine the level vectors ``v_0 .. v_N`` from the balance equations
   at levels ``0 .. N`` plus the normalisation condition (Eq. 14, 20).  The
   equations are block-tridiagonal in the level, so a top-down level
   reduction (``v_{j+1} = v_j R_j``) takes ``N`` real ``s x s`` inversions and
   leaves one ``s x s`` system for ``v_0`` — ``O(N s^3)`` work instead of an
   ``O(N^3 s^3)`` dense solve of all ``(N + 1) s`` unknowns at once;
4. expose the queue-length distribution and all derived performance metrics
   through the :class:`SpectralSolution` object, after a flow-balance check.

The closed forms used for the infinite sums (with ``t = j - N`` and
``tau = (I - R)^{-1} 1``) are

.. math::

    \\sum_{t \\ge 0} v_N R^t = v_N (I - R)^{-1}, \\qquad
    \\sum_{t \\ge 0} (N + t) v_N R^t 1 = (N - 1)\\, y 1 + y \\tau ,
    \\quad y = v_N (I - R)^{-1} .
"""

from __future__ import annotations

import threading
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg

from ..blas import single_threaded_blas
from ..exceptions import ParameterError, SolverError
from ..markov.scenario_env import DENSE_MODE_LIMIT
from ..obs.metrics import RESIDUAL_BUCKETS, SWEEP_COUNT_BUCKETS, numerics_registry
from ..queueing.model import UnreliableQueueModel
from ..queueing.solution_base import QueueSolution
from .approximation import decay_rate
from .eigen import eigenvalues_inside_unit_disk, invert, rate_matrix
from .qbd import ModulatedQueueMatrices

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.ctmc import ChainModel

#: Largest acceptable violation of non-negativity in computed probabilities.
_NEGATIVITY_TOLERANCE = 1e-7

#: Largest acceptable residual 2-norm of the boundary equations.
_BOUNDARY_RESIDUAL_TOLERANCE = 1e-6

#: Largest acceptable ``max|Q0 + R Q1 + R^2 Q2|`` of the rate matrix.
_RATE_RESIDUAL_TOLERANCE = 1e-9

#: Largest acceptable relative flow-balance error ``|sum_j v_j C_j 1 - lambda| / lambda``.
_FLOW_BALANCE_TOLERANCE = 1e-9

#: Serialises growing a solution's cache of level vectors: each new row is
#: computed from the current last one and appended, a check-then-act that two
#: threads walking one solution would otherwise interleave.  Module-level, so
#: solutions stay picklable.
_ROWS_LOCK = threading.Lock()


class SpectralSolution(QueueSolution):
    """The exact spectral-expansion solution of a Markov-modulated queue.

    Instances are created by :func:`solve_spectral` (or the models'
    ``solve_spectral`` convenience methods); the constructor wires together
    the rate matrix and the level vectors and is not meant to be called
    directly by users.
    """

    def __init__(
        self,
        model: "ChainModel",
        matrices: ModulatedQueueMatrices,
        rate_matrix: np.ndarray,
        levels: np.ndarray,
        tail_factor: tuple[np.ndarray, np.ndarray],
        boundary_residual: float,
        rate_residual: float,
    ) -> None:
        self._model = model
        self._matrices = matrices
        self._rate = rate_matrix
        self._boundary_vectors = levels[:-1]
        self._boundary_residual = boundary_residual
        self._rate_residual = rate_residual
        # Row t is v_N R^t; rows are appended as levels are first asked for.
        self._repeating_rows = [levels[-1]]
        # The tail vectors reuse the boundary reduction's LU factors of I - R,
        # made inside the solve's one-thread BLAS scope: factoring I - R on
        # first metric access would run outside it and wake OpenBLAS's threads.
        # tau = (I - R)^{-1} 1: v_{N+t} tau is the mass at levels N + t and up.
        self._tail_mass = scipy.linalg.lu_solve(tail_factor, np.ones(matrices.num_modes))
        # sum_{j >= N} v_j = v_N (I - R)^{-1}, a vector over modes.
        self._tail_mode_vector = scipy.linalg.lu_solve(tail_factor, levels[-1], trans=1)

    # ------------------------------------------------------------------ #
    # Model metadata
    # ------------------------------------------------------------------ #

    @property
    def model(self) -> "ChainModel":
        """The model that was solved."""
        return self._model

    @property
    def arrival_rate(self) -> float:
        return self._model.arrival_rate

    @property
    def num_servers(self) -> int:
        return self._model.num_servers

    @property
    def num_modes(self) -> int:
        """The number of operational modes ``s``."""
        return self._matrices.num_modes

    @property
    def rate_matrix(self) -> np.ndarray:
        """The rate matrix ``R``: ``v_{j+1} = v_j R`` for ``j >= N`` (copy)."""
        return self._rate.copy()

    @property
    def rate_residual(self) -> float:
        """``max|Q0 + R Q1 + R^2 Q2|``, the rate matrix's residual (diagnostic)."""
        return self._rate_residual

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        return eigenvalues_inside_unit_disk(self._rate)

    @property
    def eigenvalues(self) -> np.ndarray:
        """The eigenvalues inside the unit disk, sorted by modulus (copy).

        They are the eigenvalues of :attr:`rate_matrix`, computed on first use.
        """
        return self._eigenvalues.copy()

    @cached_property
    def decay_rate(self) -> float:
        """The dominant eigenvalue ``z_s`` (one server's for the pool, else ``R``'s)."""
        if isinstance(self._model, UnreliableQueueModel):
            return decay_rate(self._model)
        return float(np.abs(self._eigenvalues[-1]))

    @property
    def boundary_residual(self) -> float:
        """The 2-norm of the boundary equations' residual (diagnostic).

        Covers every balance equation at levels ``0 .. N`` and the
        normalisation condition: the full ``(N + 1) s + 1``-row system, the
        equation the solve leaves out included.
        """
        return self._boundary_residual

    @property
    def boundary_vectors(self) -> np.ndarray:
        """The probability vectors ``v_0 .. v_{N-1}`` as an ``(N, s)`` array (copy)."""
        return self._boundary_vectors.copy()

    # ------------------------------------------------------------------ #
    # Level probabilities
    # ------------------------------------------------------------------ #

    def _repeating_row(self, offset: int) -> np.ndarray:
        """``v_{N + offset} = v_N R^offset``; each level not yet reached costs one product."""
        rows = self._repeating_rows
        if len(rows) <= offset:
            with _ROWS_LOCK:
                while len(rows) <= offset:
                    rows.append(rows[-1] @ self._rate)
        return rows[offset]

    def level_vector(self, num_jobs: int) -> np.ndarray:
        """The probability vector ``v_j`` over modes for ``j = num_jobs`` jobs."""
        if num_jobs < 0:
            raise SolverError(f"the number of jobs must be non-negative, got {num_jobs}")
        if num_jobs < self.num_servers:
            return self._boundary_vectors[num_jobs].copy()
        return self._repeating_row(num_jobs - self.num_servers).copy()

    def queue_length_pmf(self, num_jobs: int) -> float:
        if num_jobs < 0:
            return 0.0
        if num_jobs < self.num_servers:
            return float(max(self._boundary_vectors[num_jobs].sum(), 0.0))
        return float(max(self._repeating_row(num_jobs - self.num_servers).sum(), 0.0))

    def mode_marginals(self) -> np.ndarray:
        total = self._boundary_vectors.sum(axis=0) + self._tail_mode_vector
        total = np.clip(total, 0.0, None)
        return total / total.sum()

    # ------------------------------------------------------------------ #
    # Moments and derived metrics
    # ------------------------------------------------------------------ #

    @cached_property
    def mean_queue_length(self) -> float:
        """The mean number of jobs present ``L`` (exact closed form)."""
        boundary_part = sum(
            j * float(self._boundary_vectors[j].sum()) for j in range(self.num_servers)
        )
        tail = self._tail_mode_vector
        tail_part = (self.num_servers - 1) * float(tail.sum()) + float(tail @ self._tail_mass)
        return float(boundary_part + tail_part)

    @cached_property
    def mean_jobs_in_service(self) -> float:
        """The mean number of busy (operative and serving) servers.

        Computed exactly as ``sum_{j,i} min(j, x_i) v_j[i]``, with ``x_i`` the
        operative servers of mode ``i``; for the paper's pool this equals
        ``lambda / mu`` (flow balance).
        """
        counts = self._matrices.environment.operative_counts
        boundary_part = 0.0
        for j in range(self.num_servers):
            busy = np.minimum(counts, float(j))
            boundary_part += float(self._boundary_vectors[j] @ busy)
        tail_part = float(self._tail_mode_vector @ counts)
        return boundary_part + tail_part

    @property
    def mean_jobs_waiting(self) -> float:
        """The mean number of jobs not currently in service (exact)."""
        return self.mean_queue_length - self.mean_jobs_in_service

    @cached_property
    def throughput(self) -> float:
        """The steady-state departure rate ``sum_j v_j C_j 1``; equals ``lambda``."""
        capacity = self._model.service_capacity_by_level  # row j: C_j 1, j = 0 .. N
        boundary = float(np.sum(self._boundary_vectors * capacity[:-1]))
        return boundary + float(self._tail_mode_vector @ capacity[-1])

    @cached_property
    def probability_delay(self) -> float:
        """The probability that an arriving job cannot start service immediately.

        By PASTA this is the probability that the number of jobs present is
        at least the number of operative servers in the current mode.
        """
        counts = self._matrices.environment.operative_counts
        total = 0.0
        for j in range(self.num_servers):
            mask = counts <= float(j)
            total += float(self._boundary_vectors[j][mask].sum())
        total += float(self._tail_mode_vector.sum())
        return min(max(total, 0.0), 1.0)

    def queue_length_tail(self, num_jobs: int) -> float:
        """``P(jobs > num_jobs) = v_N R^(j + 1 - N) (I - R)^{-1} 1`` for ``j >= N - 1``."""
        if num_jobs < 0:
            return 1.0
        if num_jobs < self.num_servers - 1:
            return super().queue_length_tail(num_jobs)
        row = self._repeating_row(num_jobs + 1 - self.num_servers)
        return float(min(max(float(row @ self._tail_mass), 0.0), 1.0))

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #

    def normalisation_error(self) -> float:
        """How far the computed distribution is from summing to one."""
        boundary = float(self._boundary_vectors.sum())
        tail = float(self._tail_mode_vector.sum())
        return abs(boundary + tail - 1.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpectralSolution(N={self.num_servers}, s={self.num_modes}, "
            f"L={self.mean_queue_length:.4f}, decay_rate={self.decay_rate:.4f})"
        )


def _solve_boundary_system(
    matrices: ModulatedQueueMatrices, rate: np.ndarray
) -> tuple[np.ndarray, float, tuple[np.ndarray, np.ndarray]]:
    """Solve the boundary equations for ``v_0 .. v_N`` by level reduction.

    The equations are the balance equations (paper Eq. 14) at levels
    ``j = 0 .. N``,

        ``v_{j-1} B + v_j L_j + v_{j+1} C_{j+1} = 0``,  ``L_j = A - D^A - B - C_j``,

    with ``v_{N+1} = v_N R``, plus the normalisation condition (Eq. 20).  They
    are reduced from the top down with level-dependent rate matrices
    (Latouche & Ramaswami, *Introduction to Matrix Analytic Methods in
    Stochastic Modeling*, SIAM 1999; Bright & Taylor, Stochastic Models 11,
    1995): ``R_N = R`` and ``R_j = lambda (-(L_{j+1} + R_{j+1} C_{j+2}))^{-1}``
    for ``j = N - 1 .. 0``, so that ``v_{j+1} = v_j R_j``.  As
    ``R_{j+1} C_{j+2} 1 = lambda 1``, each inverted matrix is an M-matrix with
    row sums ``C_{j+1} 1``, not ``lambda``: no cancellation at any load.
    Level ``0`` leaves ``v_0 (L_0 + R_0 C_1) = 0``, a generator, normalised by
    ``v_0 (1 + R_0 (1 + ... (1 + R_{N-1} tau))) = 1``, ``tau = (I - R)^{-1} 1``:
    its first equation is replaced by the normalisation, and if that square
    system is singular the bordered system is solved by least squares.

    Returns ``v_0 .. v_N`` as an ``(N + 1, s)`` array, the 2-norm of the
    residual of the full system — every balance equation, the replaced one
    included, and the normalisation — so a bad solve cannot go unnoticed, and
    the LU factors of ``I - R``, which the solution's tail metrics reuse.
    """
    num_servers = matrices.num_servers
    num_modes = matrices.num_modes
    arrival_rate = matrices.arrival_rate
    # Row j holds the diagonal of C_j for j = 0 .. N + 1 (C_{N+1} = C_N = C).
    service = np.array([matrices.service_rates(level) for level in range(num_servers + 2)])
    # L_0 = A - D^A - B, and L_j = L_0 - C_j.
    local = matrices.local_balance_matrix(0)

    # R_N = R, then R_{level-1} = lambda (-(L_level + R_level C_{level+1}))^{-1}.
    ratios = [rate]
    for level in range(num_servers, 0, -1):
        pivot = -local - ratios[-1] * service[level + 1]
        pivot[np.diag_indices(num_modes)] += service[level]
        ratios.append(arrival_rate * invert(pivot))
    ratios.reverse()  # ratios[j] = R_j

    tail_factor = scipy.linalg.lu_factor(np.eye(num_modes) - rate)
    tail_mass = scipy.linalg.lu_solve(tail_factor, np.ones(num_modes))
    # The total mass is v_0 h, with h = 1 + R_0 (1 + ... (1 + R_{N-1} tau)).
    normalisation = tail_mass
    for ratio in reversed(ratios[:-1]):
        normalisation = 1.0 + ratio @ normalisation
    balance = local + ratios[0] * service[1]

    square = balance.copy()
    square[:, 0] = normalisation
    rhs = np.zeros(num_modes)
    rhs[0] = 1.0
    try:
        bottom = np.linalg.solve(square.T, rhs)
        solved = bool(np.all(np.isfinite(bottom)))
    except np.linalg.LinAlgError:
        solved = False
    if not solved:
        bordered = np.vstack([balance.T, normalisation])
        bordered_rhs = np.zeros(num_modes + 1)
        bordered_rhs[-1] = 1.0
        bottom = np.linalg.lstsq(bordered, bordered_rhs, rcond=None)[0]

    # levels[j] = v_j for j = 0 .. N + 1.
    levels = np.empty((num_servers + 2, num_modes))
    levels[0] = bottom
    for level, ratio in enumerate(ratios):
        levels[level + 1] = levels[level] @ ratio

    flows = levels[:-1] @ local - levels[:-1] * service[:-1] + levels[1:] * service[1:]
    flows[1:] += arrival_rate * levels[:-2]
    mass_error = levels[:num_servers].sum() + levels[num_servers] @ tail_mass - 1.0
    residual = float(np.hypot(np.linalg.norm(flows), abs(mass_error)))
    return levels[:-1], residual, tail_factor


@single_threaded_blas()
def solve_spectral(model: "ChainModel") -> SpectralSolution:
    """Solve the paper's pool or a scenario chain exactly by spectral expansion.

    Raises
    ------
    UnstableQueueError
        If the stability condition (paper Eq. 11) is violated.
    ParameterError
        If the period distributions are not exponential/hyperexponential, or
        the chain has more modes than ``DENSE_MODE_LIMIT`` (counted, not built).
    SolverError
        If the logarithmic reduction does not converge, an inversion meets a
        singular matrix, or the rate matrix's residual, the boundary system's
        residual, the flow balance or a negative probability indicates
        numerical failure.
    """
    if model.num_modes > DENSE_MODE_LIMIT:  # also validates the period distributions
        raise ParameterError(
            f"refusing to solve {model.num_modes} modes with dense matrices "
            f"(limit {DENSE_MODE_LIMIT}); use the 'geometric' or 'ctmc' solver instead"
        )
    model.require_stable()
    matrices = ModulatedQueueMatrices(model)
    q0, q1, q2 = matrices.q0, matrices.q1, matrices.q2
    rate, steps = rate_matrix(q0, q1, q2)
    rate_residual = float(np.max(np.abs(q0 + rate @ (q1 + rate @ q2))))
    numerics_registry().histogram(
        "repro_spectral_reduction_steps",
        "Logarithmic-reduction steps the spectral rate matrix R needed, per solve.",
        buckets=SWEEP_COUNT_BUCKETS,
    ).observe(steps)
    _check(
        "rate matrix residual",
        rate_residual,
        _RATE_RESIDUAL_TOLERANCE,
        "repro_spectral_rate_residual",
        "Residual max|Q0 + R Q1 + R^2 Q2| of the spectral rate matrix, per solve.",
    )

    levels, residual_norm, tail_factor = _solve_boundary_system(matrices, rate)
    _check(
        "boundary system residual",
        residual_norm,
        _BOUNDARY_RESIDUAL_TOLERANCE,
        "repro_spectral_boundary_residual",
        "Residual 2-norm of the spectral boundary equations, per solve.",
    )

    if float(np.min(levels)) < -_NEGATIVITY_TOLERANCE:
        raise SolverError(
            "boundary probabilities have significantly negative entries "
            f"(min {float(np.min(levels)):.3g}); the solution is unreliable"
        )

    solution = SpectralSolution(
        model=model,
        matrices=matrices,
        rate_matrix=rate,
        levels=np.clip(levels, 0.0, None),
        tail_factor=tail_factor,
        boundary_residual=residual_norm,
        rate_residual=rate_residual,
    )
    _check(
        "relative flow-balance error",
        abs(solution.throughput - model.arrival_rate) / model.arrival_rate,
        _FLOW_BALANCE_TOLERANCE,
        "repro_spectral_flow_residual",
        "Relative flow-balance error |sum_j v_j C_j 1 - lambda| / lambda, per solve.",
    )
    return solution


def _check(what: str, value: float, tolerance: float, metric: str, description: str) -> None:
    """Record one per-solve residual and raise :class:`SolverError` above ``tolerance``."""
    numerics_registry().histogram(metric, description, buckets=RESIDUAL_BUCKETS).observe(value)
    if value > tolerance:
        raise SolverError(
            f"{what} {value:.3g} exceeds tolerance; the model is too ill-conditioned "
            "for the exact solution (consider the geometric approximation)"
        )
