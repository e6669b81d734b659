"""Exact steady-state solution of the model by spectral expansion.

This module implements Section 3.1 of the paper end to end:

1. build the QBD matrices ``A``, ``B``, ``C_j`` and the characteristic
   polynomial coefficients ``Q0, Q1, Q2`` (see :mod:`repro.spectral.qbd`);
2. compute the ``s`` generalized eigenvalues inside the unit disk and their
   left eigenvectors (paper Eq. 17–18, :mod:`repro.spectral.eigen`);
3. write the repeating-portion probability vectors as the spectral expansion
   ``v_j = sum_k gamma_k u_k z_k^j`` for ``j >= N`` (Eq. 19); for numerical
   conditioning the implementation works with the *scaled* coefficients
   ``c_k = gamma_k z_k^N`` so that ``v_j = sum_k c_k u_k z_k^(j-N)`` — the
   two forms are mathematically identical, but the scaled one keeps the
   boundary linear system well conditioned when some eigenvalues are tiny;
4. determine the boundary vectors ``v_0 .. v_{N-1}`` and the coefficients
   ``c_k`` from the balance equations at levels ``0 .. N`` plus the
   normalisation condition (Eq. 14, 20).  The equations are block-tridiagonal
   in the level, so a linear level reduction eliminates the boundary levels
   with ``N`` real ``s x s`` inversions and leaves one ``s x s`` complex
   system for ``c`` — ``O(N s^3)`` work instead of an ``O(N^3 s^3)`` dense
   solve of all ``(N + 1) s`` unknowns at once;
5. expose the queue-length distribution and all derived performance metrics
   through the :class:`SpectralSolution` object.

The closed forms used for the infinite sums (with ``t = j - N``) are

.. math::

    \\sum_{t \\ge 0} z^t = \\frac{1}{1 - z}, \\qquad
    \\sum_{t \\ge 0} (N + t) z^t = \\frac{N}{1 - z} + \\frac{z}{(1 - z)^2} .
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..blas import single_threaded_blas
from ..exceptions import SolverError
from ..obs.metrics import RESIDUAL_BUCKETS, numerics_registry
from ..queueing.model import UnreliableQueueModel
from ..queueing.solution_base import QueueSolution
from .eigen import SpectralEigensystem, eigenvalues_inside_unit_disk
from .qbd import ModulatedQueueMatrices

#: Largest acceptable magnitude of the imaginary part left over after the
#: complex-conjugate eigenvalue contributions are combined.
_IMAGINARY_TOLERANCE = 1e-6

#: Largest acceptable violation of non-negativity in computed probabilities.
_NEGATIVITY_TOLERANCE = 1e-7

#: Largest acceptable residual 2-norm of the boundary equations.
_BOUNDARY_RESIDUAL_TOLERANCE = 1e-6


class SpectralSolution(QueueSolution):
    """The exact spectral-expansion solution of an unreliable multi-server queue.

    Instances are created by :func:`solve_spectral` (or the convenience method
    :meth:`repro.queueing.model.UnreliableQueueModel.solve_spectral`); the
    constructor wires together the eigensystem and boundary solution and is
    not meant to be called directly by users.
    """

    def __init__(
        self,
        model: UnreliableQueueModel,
        matrices: ModulatedQueueMatrices,
        eigensystem: SpectralEigensystem,
        boundary_vectors: np.ndarray,
        expansion_coefficients: np.ndarray,
        boundary_residual: float,
    ) -> None:
        self._model = model
        self._matrices = matrices
        self._eigensystem = eigensystem
        self._boundary_vectors = boundary_vectors
        self._gammas = expansion_coefficients
        self._boundary_residual = boundary_residual
        # Pre-computed eigen-quantities used by every metric.
        self._z = eigensystem.eigenvalues
        self._u = eigensystem.left_eigenvectors
        self._u_sums = self._u.sum(axis=1)

    # ------------------------------------------------------------------ #
    # Model metadata
    # ------------------------------------------------------------------ #

    @property
    def model(self) -> UnreliableQueueModel:
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
    def eigenvalues(self) -> np.ndarray:
        """The eigenvalues inside the unit disk, sorted by modulus (copy)."""
        return self._z.copy()

    @property
    def expansion_coefficients(self) -> np.ndarray:
        """The scaled expansion coefficients ``c_k = gamma_k z_k^N`` (copy).

        With these coefficients the repeating-portion vectors are
        ``v_j = sum_k c_k u_k z_k^(j - N)`` for ``j >= N``.
        """
        return self._gammas.copy()

    @property
    def decay_rate(self) -> float:
        """The dominant eigenvalue ``z_s``; the asymptotic queue-length decay rate."""
        return self._eigensystem.dominant_eigenvalue

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

    def level_vector(self, num_jobs: int) -> np.ndarray:
        """The probability vector ``v_j`` over modes for ``j = num_jobs`` jobs."""
        if num_jobs < 0:
            raise SolverError(f"the number of jobs must be non-negative, got {num_jobs}")
        if num_jobs < self.num_servers:
            return self._boundary_vectors[num_jobs].copy()
        powers = self._z ** (num_jobs - self.num_servers)
        vector = (self._gammas * powers) @ self._u
        return _to_real(vector, context=f"level vector at j={num_jobs}")

    def queue_length_pmf(self, num_jobs: int) -> float:
        if num_jobs < 0:
            return 0.0
        if num_jobs < self.num_servers:
            return float(max(self._boundary_vectors[num_jobs].sum(), 0.0))
        powers = self._z ** (num_jobs - self.num_servers)
        value = np.sum(self._gammas * self._u_sums * powers)
        return float(max(_scalar_to_real(value, context=f"pmf at j={num_jobs}"), 0.0))

    @cached_property
    def _tail_mode_vector(self) -> np.ndarray:
        """``sum_{j >= N} v_j`` as a vector over modes."""
        z = self._z
        weights = self._gammas / (1.0 - z)
        return _to_real(weights @ self._u, context="tail mode vector")

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
        z = self._z
        n = self.num_servers
        tail_weights = self._gammas * self._u_sums * (n / (1.0 - z) + z / (1.0 - z) ** 2)
        tail_part = _scalar_to_real(np.sum(tail_weights), context="mean queue length tail")
        return float(boundary_part + tail_part)

    @cached_property
    def mean_jobs_in_service(self) -> float:
        """The mean number of busy (operative and serving) servers.

        Computed exactly as ``sum_{j,i} min(j, x_i) v_j[i]``; for a stable
        queue this equals ``lambda / mu`` (flow balance), which the test-suite
        uses as a strong correctness check.
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

    @property
    def throughput(self) -> float:
        """The steady-state departure rate ``mu * E[busy servers]``."""
        return self._model.service_rate * self.mean_jobs_in_service

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
        """``P(jobs > num_jobs)`` using the geometric tails of the expansion."""
        if num_jobs < 0:
            return 1.0
        if num_jobs < self.num_servers - 1:
            return super().queue_length_tail(num_jobs)
        z = self._z
        start = num_jobs + 1
        weights = self._gammas * self._u_sums * z ** (start - self.num_servers) / (1.0 - z)
        value = _scalar_to_real(np.sum(weights), context=f"tail at j={num_jobs}")
        return float(min(max(value, 0.0), 1.0))

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #

    def normalisation_error(self) -> float:
        """How far the computed distribution is from summing to one."""
        boundary = float(self._boundary_vectors.sum())
        tail = float(self._tail_mode_vector.sum())
        return abs(boundary + tail - 1.0)

    def eigen_residual(self) -> float:
        """The largest residual among the computed eigenpairs."""
        return self._eigensystem.max_residual()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpectralSolution(N={self.num_servers}, s={self.num_modes}, "
            f"L={self.mean_queue_length:.4f}, decay_rate={self.decay_rate:.4f})"
        )


def _to_real(vector: np.ndarray, *, context: str) -> np.ndarray:
    """Drop a numerically negligible imaginary part, raising if it is not negligible."""
    magnitude = float(np.max(np.abs(vector))) if vector.size else 0.0
    imaginary = float(np.max(np.abs(vector.imag))) if np.iscomplexobj(vector) else 0.0
    if imaginary > _IMAGINARY_TOLERANCE * max(1.0, magnitude):
        raise SolverError(
            f"{context}: imaginary residue {imaginary:.3g} exceeds tolerance; "
            "the spectral solution is numerically unreliable"
        )
    return np.asarray(vector.real if np.iscomplexobj(vector) else vector, dtype=float)


def _scalar_to_real(value: complex, *, context: str) -> float:
    """Scalar version of :func:`_to_real`."""
    if abs(value.imag) > _IMAGINARY_TOLERANCE * max(1.0, abs(value)):
        raise SolverError(
            f"{context}: imaginary residue {abs(value.imag):.3g} exceeds tolerance; "
            "the spectral solution is numerically unreliable"
        )
    return float(value.real)


def _solve_boundary_system(
    matrices: ModulatedQueueMatrices, eigensystem: SpectralEigensystem
) -> tuple[np.ndarray, np.ndarray, float]:
    """Solve the boundary equations for ``v_0 .. v_{N-1}`` and ``c`` by level reduction.

    The unknowns are the boundary vectors and the scaled expansion
    coefficients ``c_k = gamma_k z_k^N``.  The equations are the balance
    equations (paper Eq. 14) at levels ``j = 0 .. N``,

        ``v_{j-1} B + v_j L_j + v_{j+1} C_{j+1} = 0``,  ``L_j = A - D^A - B - C_j``,

    with ``v_N = c U`` and ``v_{N+1} = c Z U`` from the expansion, plus the
    normalisation condition (Eq. 20).  They are block-tridiagonal in the
    level with real ``s x s`` blocks, so the linear level reduction of Gaver,
    Jacobs & Latouche (Adv. Appl. Prob. 16, 1984) eliminates the levels
    upward: with ``S_0 = L_0``, ``W_j = C_j (-S_{j-1})^{-1}`` and
    ``S_j = L_j + lambda W_j``, level ``j - 1`` reads ``v_{j-1} = v_j W_j``.
    Each ``-S_j`` is a strictly diagonally dominant M-matrix
    (``S_j 1 = -lambda 1``, non-negative off-diagonal entries), so every
    inverse exists and every ``W_j`` is non-negative.  Level ``N`` leaves
    ``c (U S_N + Z U C) = 0``, an ``s x s`` complex system of rank ``s - 1``:
    its first equation is replaced by the normalisation, and if that square
    system is singular the bordered ``(s + 1) x s`` system is solved by least
    squares instead.

    Returns the complex boundary vectors as an ``(N, s)`` array, the
    coefficients ``c`` and the 2-norm of the residual of the full system —
    every balance equation, the replaced one included, and the
    normalisation — so a bad solve cannot go unnoticed.
    """
    num_servers = matrices.num_servers
    num_modes = matrices.num_modes
    arrival_rate = matrices.arrival_rate
    eigenvalues = eigensystem.eigenvalues
    left_vectors = eigensystem.left_eigenvectors
    # Row j holds the diagonal of C_j for j = 0 .. N + 1 (C_{N+1} = C_N = C).
    service = np.array([matrices.service_rates(level) for level in range(num_servers + 2)])
    # L_0 = A - D^A - B, and L_j = L_0 - C_j.
    local = matrices.local_balance_matrix(0)

    reducers: list[np.ndarray] = []
    schur = local
    for level in range(1, num_servers + 1):
        reducer = service[level][:, np.newaxis] * np.linalg.inv(-schur)
        reducers.append(reducer)
        schur = local + arrival_rate * reducer - np.diag(service[level])

    # Sum over the boundary levels: sum_{j<N} v_j 1 = v_{N-1} h, with
    # h = 1 + W_{N-1} (1 + ... (1 + W_1 1)).
    mass = np.ones(num_modes)
    for reducer in reducers[:-1]:
        mass = 1.0 + reducer @ mass
    tail_mass = left_vectors.sum(axis=1) / (1.0 - eigenvalues)
    normalisation = left_vectors @ (reducers[-1] @ mass) + tail_mass
    balance = left_vectors @ schur + (eigenvalues[:, np.newaxis] * left_vectors) * service[-1]

    square = balance.copy()
    square[:, 0] = normalisation
    rhs = np.zeros(num_modes, dtype=complex)
    rhs[0] = 1.0
    try:
        coefficients = np.linalg.solve(square.T, rhs)
        solved = bool(np.all(np.isfinite(coefficients)))
    except np.linalg.LinAlgError:
        solved = False
    if not solved:
        bordered = np.vstack([balance.T, normalisation])
        bordered_rhs = np.zeros(num_modes + 1, dtype=complex)
        bordered_rhs[-1] = 1.0
        coefficients = np.linalg.lstsq(bordered, bordered_rhs, rcond=None)[0]

    # levels[j] = v_j for j = 0 .. N + 1.
    levels = np.empty((num_servers + 2, num_modes), dtype=complex)
    levels[num_servers] = coefficients @ left_vectors
    levels[num_servers + 1] = (coefficients * eigenvalues) @ left_vectors
    for level in range(num_servers, 0, -1):
        levels[level - 1] = levels[level] @ reducers[level - 1]

    flows = levels[:-1] @ local - levels[:-1] * service[:-1] + levels[1:] * service[1:]
    flows[1:] += arrival_rate * levels[:-2]
    mass_error = levels[:num_servers].sum() + coefficients @ tail_mass - 1.0
    residual = float(np.hypot(np.linalg.norm(flows), abs(mass_error)))
    return levels[:num_servers], coefficients, residual


@single_threaded_blas()
def solve_spectral(model: UnreliableQueueModel) -> SpectralSolution:
    """Solve an :class:`UnreliableQueueModel` exactly by spectral expansion.

    Raises
    ------
    UnstableQueueError
        If the stability condition (paper Eq. 11) is violated.
    ParameterError
        If the period distributions are not exponential/hyperexponential.
    SolverError
        If the eigenvalue count or the boundary system indicate numerical
        failure (the paper notes such problems appear for ``N`` greater than
        roughly 24 with the fitted parameters).
    """
    model.require_stable()
    environment = model.environment  # validates the period distributions
    matrices = ModulatedQueueMatrices(
        environment=environment,
        arrival_rate=model.arrival_rate,
        service_rate=model.service_rate,
    )
    eigensystem = eigenvalues_inside_unit_disk(
        matrices.q0, matrices.q1, matrices.q2, expected_count=matrices.num_modes
    )

    boundary, gammas, residual_norm = _solve_boundary_system(matrices, eigensystem)
    numerics_registry().histogram(
        "repro_spectral_boundary_residual",
        "Residual 2-norm of the spectral boundary equations, per solve.",
        buckets=RESIDUAL_BUCKETS,
    ).observe(residual_norm)
    if residual_norm > _BOUNDARY_RESIDUAL_TOLERANCE:
        raise SolverError(
            f"boundary system residual {residual_norm:.3g} exceeds tolerance; "
            "the model is too ill-conditioned for the exact solution "
            "(consider the geometric approximation)"
        )

    boundary_real = _to_real(boundary, context="boundary probability vectors")
    if float(np.min(boundary_real)) < -_NEGATIVITY_TOLERANCE:
        raise SolverError(
            "boundary probabilities have significantly negative entries "
            f"(min {float(np.min(boundary_real)):.3g}); the solution is unreliable"
        )
    boundary_real = np.clip(boundary_real, 0.0, None)

    return SpectralSolution(
        model=model,
        matrices=matrices,
        eigensystem=eigensystem,
        boundary_vectors=boundary_real,
        expansion_coefficients=gammas,
        boundary_residual=residual_norm,
    )
