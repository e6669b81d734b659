"""The complex eigen path of the spectral solver: the test oracle for the rate matrix ``R``.

``solve_spectral`` writes the levels above the boundary as ``v_N R^t`` with
the rate matrix ``R`` from logarithmic reduction, and ``decay_rate`` finds
``z_s`` on one server.  This module keeps the routes they replaced, for the
test-suite to pin them against:

* the ``s`` eigenvalues ``z_k`` of ``Q(z)`` inside the unit disk from a QZ on
  the ``2s`` companion pencil, each left eigenvector ``u_k`` by LU inverse
  iteration with an SVD fallback and Newton refinement
  (:func:`eigenvalues_inside_unit_disk`);
* the exact solution as the expansion ``v_{N+t} = sum_k c_k u_k z_k^t``
  (paper Eq. 19), with the boundary vectors and coefficients from the dense
  system of ``dense_boundary.py`` (:func:`solve_expansion`);
* the two full-matrix searches for ``z_s``: Brent's method on the spectral
  abscissa of the ``s x s`` matrix ``Q(z)`` (:func:`decay_rate_bisection`)
  and the dominant eigenvalue of the full eigensystem
  (:func:`decay_rate_from_eigensystem`), with the mode vector ``u_s`` as the
  Perron left null vector of ``Q(z_s)`` (:func:`perron_left_null_vector`);
* the checks the tests make on the QBD and on a solution: ``Q(z)`` itself
  (:func:`characteristic_polynomial`), the generator's row sums per level
  (:func:`level_generator_row_sums`) and the distance of a solution's total
  mass from one (:func:`normalisation_error`).

The eigen path costs a QZ on a ``2s x 2s`` pencil plus an ``O(s^3)`` solve per
eigenvalue, and its arithmetic is complex; it is an oracle, not a solver.

The quadratic eigenvalue problem is solved by the standard companion
linearisation of the transposed polynomial: ``u Q(z) = 0`` is equivalent to
``(Q0^T + z Q1^T + z^2 Q2^T) w = 0`` with ``w = u^T``, which becomes the
generalized (pencil) eigenproblem

.. math::

    \\begin{pmatrix} 0 & I \\\\ -Q_0^T & -Q_1^T \\end{pmatrix}
    \\begin{pmatrix} w \\\\ z w \\end{pmatrix}
    = z
    \\begin{pmatrix} I & 0 \\\\ 0 & Q_2^T \\end{pmatrix}
    \\begin{pmatrix} w \\\\ z w \\end{pmatrix} .

``Q2`` is singular whenever some mode has no operative server, so the pencil
has infinite eigenvalues; SciPy's QZ-based solver handles this and the
filtering step simply discards them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.optimize
from dense_boundary import Tail, solve_dense_boundary

from repro.blas import single_threaded_blas
from repro.exceptions import SolverError
from repro.queueing.model import UnreliableQueueModel
from repro.queueing.solution_base import QueueSolution
from repro.spectral.qbd import ModulatedQueueMatrices
from repro.spectral.solution import SpectralSolution

#: Eigenvalues with modulus below this threshold times machine epsilon of the
#: problem scale are treated as exact zeros (they are legitimate eigenvalues).
_UNIT_DISK_TOLERANCE = 1e-9

#: Inverse-iteration sweeps tried before falling back to the (much more
#: expensive) full SVD in :func:`_left_null_vector`.
_MAX_INVERSE_ITERATIONS = 4

#: Relative residual under which an inverse-iteration null vector is accepted.
_INVERSE_ITERATION_TOL = 1e-12


def characteristic_polynomial(matrices: ModulatedQueueMatrices, z: complex) -> np.ndarray:
    """Evaluate the characteristic matrix polynomial ``Q(z)`` (Eq. 16)."""
    return matrices.q0 + matrices.q1 * z + matrices.q2 * (z * z)


def level_generator_row_sums(matrices: ModulatedQueueMatrices, level: int) -> np.ndarray:
    """Row sums of the full generator restricted to states at ``level``.

    For every level the rates out of a state must balance the diagonal:
    ``A - D^A - B - C_level`` plus arrivals ``B`` plus departures
    ``C_level`` must have zero row sums.
    """
    total = (
        matrices.local_balance_matrix(level)
        + matrices.arrival_matrix
        + matrices.service_matrix(level)
    )
    return total.sum(axis=1)


def normalisation_error(solution: SpectralSolution) -> float:
    """How far a spectral solution's distribution is from summing to one."""
    boundary = float(solution.boundary_vectors.sum())
    tail = solution.queue_length_tail(solution.num_servers - 1)
    return abs(boundary + tail - 1.0)


@dataclass(frozen=True)
class SpectralEigensystem:
    """The inside-the-unit-disk eigenstructure of ``Q(z)``.

    Attributes
    ----------
    eigenvalues:
        Complex array of the ``d`` eigenvalues with ``|z| < 1``, sorted by
        increasing modulus (the dominant eigenvalue is last).
    left_eigenvectors:
        Complex array of shape ``(d, s)``; row ``k`` is the left eigenvector
        ``u_k`` with ``u_k Q(z_k) = 0``, normalised to unit Euclidean norm
        with a deterministic phase.
    residuals:
        Array of the residual norms ``||u_k Q(z_k)||_inf`` for diagnostics.
    """

    eigenvalues: np.ndarray
    left_eigenvectors: np.ndarray
    residuals: np.ndarray

    @property
    def count(self) -> int:
        """The number of eigenvalues inside the unit disk."""
        return int(self.eigenvalues.size)

    @property
    def dominant_eigenvalue(self) -> float:
        """The eigenvalue of largest modulus inside the unit disk.

        The theory (and paper Section 3.2) guarantees it is real and
        positive; the property returns it as a float and raises if the
        numerically computed value has a non-negligible imaginary part.
        """
        value = self.eigenvalues[-1]
        if abs(value.imag) > 1e-8 * max(1.0, abs(value.real)):
            raise SolverError(
                f"dominant eigenvalue {value!r} is not numerically real; "
                "the eigensystem is suspect"
            )
        return float(value.real)

    @property
    def dominant_left_eigenvector(self) -> np.ndarray:
        """The left eigenvector associated with the dominant eigenvalue (real part)."""
        vector = self.left_eigenvectors[-1]
        return np.real(vector)

    def max_residual(self) -> float:
        """The largest eigenpair residual, a cheap quality indicator."""
        return float(np.max(self.residuals)) if self.residuals.size else 0.0


def _normalise_left_eigenvector(vector: np.ndarray) -> np.ndarray:
    """Scale a left eigenvector to unit Euclidean norm with a consistent phase.

    Unit 2-norm (rather than unit element sum) keeps the boundary linear
    system well scaled: eigenvectors whose entries nearly cancel would
    otherwise be blown up by orders of magnitude.  The phase is fixed so the
    entry of largest modulus is real and positive, which makes eigenvectors
    of conjugate eigenvalue pairs conjugate to each other.
    """
    norm = np.linalg.norm(vector)
    if norm == 0.0:
        raise SolverError("encountered a zero eigenvector in the spectral expansion")
    scaled = vector / norm
    pivot = scaled[np.argmax(np.abs(scaled))]
    if abs(pivot) > 0.0:
        scaled = scaled * (np.conj(pivot) / abs(pivot))
    return scaled


def _left_null_vector(matrix: np.ndarray) -> np.ndarray:
    """The (complex) left null vector of a numerically singular matrix.

    Used to re-extract accurate eigenvectors once the eigenvalues are known,
    which is far more accurate than reading the eigenvectors off the
    companion linearisation for stiff problems.

    The cheap path is LU-backed inverse iteration on ``matrix^T``: at a
    converged eigenvalue the matrix is numerically singular, so each solve
    amplifies the null direction and one or two sweeps reach the optimal
    residual at a third of an SVD's cost.  The full SVD remains as the
    fallback — it is the most robust extractor when the eigenvalue is not yet
    converged (its right singular vector of smallest singular value spans the
    left null space regardless of conditioning) — and whichever candidate has
    the smaller residual wins.
    """
    transpose = np.asarray(matrix.T, dtype=complex)
    size = transpose.shape[0]
    scale = max(1.0, float(np.max(np.abs(transpose))))
    best: np.ndarray | None = None
    best_residual = np.inf
    # A singular factorisation is the *point* here: LU of a numerically
    # singular matrix yields a tiny pivot (warned about, harmlessly) and the
    # subsequent solves blow up along the null direction.  Exact zero pivots
    # surface as inf/nan and drop through to the SVD.
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            factors = scipy.linalg.lu_factor(transpose)
            vector = np.full(size, 1.0 / np.sqrt(size), dtype=complex)
            for _ in range(_MAX_INVERSE_ITERATIONS):
                candidate = scipy.linalg.lu_solve(factors, vector)
                norm = float(np.linalg.norm(candidate))
                if not np.isfinite(norm) or norm == 0.0:
                    break
                vector = candidate / norm
                residual = float(np.max(np.abs(transpose @ vector)))
                if not np.isfinite(residual):
                    break
                if residual < best_residual:
                    best, best_residual = vector, residual
                if residual <= _INVERSE_ITERATION_TOL * scale:
                    return vector
        except (ValueError, scipy.linalg.LinAlgError):
            pass
    _, _, vt = np.linalg.svd(transpose)
    fallback = np.conj(vt[-1])
    if best is not None:
        fallback_residual = float(np.max(np.abs(transpose @ fallback)))
        if best_residual < fallback_residual:
            return best
    return fallback


def refine_eigenpair(
    q0: np.ndarray,
    q1: np.ndarray,
    q2: np.ndarray,
    eigenvalue: complex,
    *,
    max_iterations: int = 20,
    tolerance: float = 1e-12,
) -> tuple[complex, np.ndarray]:
    """Refine an eigenvalue of ``Q(z)`` by Newton's method on ``det Q(z) = 0``.

    The derivative of the determinant is evaluated through Jacobi's formula
    using the adjugate obtained from an SVD-based pseudo-inverse, which stays
    stable near the root.  The associated left eigenvector is re-extracted
    from the SVD at the refined eigenvalue.
    """
    z = complex(eigenvalue)
    scale = max(1.0, float(np.max(np.abs(q0 + q1 + q2))))
    for _ in range(max_iterations):
        matrix = q0 + q1 * z + q2 * (z * z)
        derivative_matrix = q1 + 2.0 * z * q2
        u, s, vt = np.linalg.svd(matrix)
        smallest = s[-1]
        if smallest < tolerance * scale:
            break
        # Newton step on the smallest singular value as a proxy for det:
        # d sigma_min / dz = Re(u_min^H (dQ/dz) v_min) in the complex sense.
        u_min = u[:, -1]
        v_min = np.conj(vt[-1])
        derivative = np.conj(u_min) @ derivative_matrix @ v_min
        if derivative == 0.0 or not np.isfinite(derivative):
            break
        step = smallest / derivative
        candidate = z - step
        if not np.isfinite(candidate):
            break
        z = candidate
    matrix = q0 + q1 * z + q2 * (z * z)
    vector = _left_null_vector(matrix)
    return z, vector


def _companion_pencil(
    q0: np.ndarray, q1: np.ndarray, q2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The companion linearisation ``(lhs, rhs)`` of the transposed polynomial."""
    size = q0.shape[0]
    for name, matrix in (("Q0", q0), ("Q1", q1), ("Q2", q2)):
        if matrix.shape != (size, size):
            raise SolverError(f"{name} must be {size}x{size}, got {matrix.shape}")
    zero = np.zeros((size, size))
    identity = np.eye(size)
    lhs = np.block([[zero, identity], [-q0.T, -q1.T]])
    rhs = np.block([[identity, zero], [zero, q2.T]])
    return lhs, rhs


def solve_quadratic_eigenproblem(
    q0: np.ndarray, q1: np.ndarray, q2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``u (Q0 + Q1 z + Q2 z^2) = 0`` for all finite ``(z, u)`` pairs.

    Returns
    -------
    (eigenvalues, left_eigenvectors):
        All finite eigenvalues of the pencil together with the corresponding
        left eigenvectors of ``Q(z)`` (rows).  No unit-disk filtering is done
        here; see :func:`eigenvalues_inside_unit_disk`.
    """
    eigenvalues, eigenvectors = scipy.linalg.eig(*_companion_pencil(q0, q1, q2))
    finite = np.isfinite(eigenvalues)
    eigenvalues = eigenvalues[finite]
    eigenvectors = eigenvectors[:, finite]
    left_vectors = eigenvectors[: q0.shape[0], :].T  # w = u^T occupies the top block
    return eigenvalues, left_vectors


@single_threaded_blas()
def eigenvalues_inside_unit_disk(
    q0: np.ndarray,
    q1: np.ndarray,
    q2: np.ndarray,
    expected_count: int | None = None,
) -> SpectralEigensystem:
    """Eigenvalues of ``Q(z)`` strictly inside the unit disk, with eigenvectors.

    Parameters
    ----------
    q0, q1, q2:
        Coefficients of the characteristic matrix polynomial.
    expected_count:
        The number of eigenvalues the theory predicts inside the unit disk
        (the number of environment states ``s`` for an ergodic queue).  When
        provided, the function verifies the count and, if the strict filter
        disagrees because of eigenvalues hugging the unit circle, falls back
        to taking the ``expected_count`` smallest-modulus finite eigenvalues
        (still requiring them to have modulus below ``1``).

    Raises
    ------
    SolverError
        If the eigenvalue count cannot be reconciled with ``expected_count``.
    """
    eigenvalues = scipy.linalg.eigvals(*_companion_pencil(q0, q1, q2))
    eigenvalues = eigenvalues[np.isfinite(eigenvalues)]
    moduli = np.abs(eigenvalues)
    inside = moduli < 1.0 - _UNIT_DISK_TOLERANCE
    selected = np.where(inside)[0]

    if expected_count is not None and selected.size != expected_count:
        # Eigenvalues extremely close to the unit circle (heavy load) can fall
        # on the wrong side of the strict tolerance; retry by rank.
        order = np.argsort(moduli)
        candidates = [index for index in order if moduli[index] < 1.0 - 1e-14]
        if len(candidates) < expected_count:
            raise SolverError(
                f"found only {len(candidates)} eigenvalues inside the unit disk, "
                f"expected {expected_count}; the queue may be unstable or the "
                "eigenproblem ill-conditioned"
            )
        selected = np.array(candidates[:expected_count])

    chosen_values = eigenvalues[selected]
    order = np.argsort(np.abs(chosen_values), kind="stable")
    chosen_values = chosen_values[order]

    # The eigenvalues from the QZ decomposition are reliable, but the
    # eigenvectors of the companion linearisation lose accuracy badly when
    # the rates span several orders of magnitude (stiff environments), so QZ
    # computes none.  Extract each left eigenvector from Q(z_k) instead, with
    # a few Newton refinement steps on the eigenvalue itself when needed.
    size = q0.shape[0]
    refined_values = np.empty(chosen_values.size, dtype=complex)
    normalised = np.empty((chosen_values.size, size), dtype=complex)
    residuals = np.empty(chosen_values.size)
    for k, value in enumerate(chosen_values):
        polynomial = q0 + q1 * value + q2 * (value * value)
        vector = _left_null_vector(polynomial)
        residual = float(np.max(np.abs(vector @ polynomial)))
        best_value, best_vector, best_residual = value, vector, residual
        if residual > 1e-10 * max(1.0, float(np.max(np.abs(polynomial)))):
            # The QZ eigenvalue is not accurate enough for this root; try a
            # few Newton refinement steps and keep them only if they help.
            refined, refined_vector = refine_eigenpair(q0, q1, q2, value)
            if abs(refined) < 1.0 and abs(refined - value) < 1e-3 * max(1.0, abs(value)):
                refined_poly = q0 + q1 * refined + q2 * (refined * refined)
                refined_residual = float(np.max(np.abs(refined_vector @ refined_poly)))
                if refined_residual < best_residual:
                    best_value = refined
                    best_vector = refined_vector
                    best_residual = refined_residual
        refined_values[k] = best_value
        normalised[k] = _normalise_left_eigenvector(best_vector)
        # The raw vector from the SVD already has unit norm, so the residual
        # is directly comparable across eigenpairs.
        residuals[k] = best_residual

    order = np.argsort(np.abs(refined_values), kind="stable")
    return SpectralEigensystem(
        eigenvalues=refined_values[order],
        left_eigenvectors=normalised[order],
        residuals=residuals[order],
    )


def spectral_abscissa(matrix: np.ndarray) -> float:
    """The largest real part among the eigenvalues of ``matrix``.

    For the ML-matrices ``Q(z)`` (non-negative off-diagonal entries) the
    abscissa is attained by a real (Perron) eigenvalue; the decay-rate
    bisection in :mod:`repro.spectral.approximation` relies on this.
    """
    eigenvalues = np.linalg.eigvals(matrix)
    return float(np.max(eigenvalues.real))


def perron_left_null_vector(matrix: np.ndarray) -> np.ndarray:
    """A non-negative left null vector of ``matrix`` (which must be singular).

    Computed from the singular value decomposition: the left singular vector
    associated with the smallest singular value spans the left null space for
    a rank-deficient matrix.  The sign is fixed so the vector is non-negative
    (up to numerical noise) and it is normalised to sum to one.
    """
    _, singular_values, vt = np.linalg.svd(matrix.T)
    null_vector = vt[-1]
    smallest = singular_values[-1]
    scale = max(1.0, float(np.max(np.abs(matrix))))
    if smallest > 1e-6 * scale:
        raise SolverError(
            f"matrix is not numerically singular (smallest singular value {smallest:.3g}); "
            "cannot extract a null vector"
        )
    if np.sum(null_vector) < 0.0:
        null_vector = -null_vector
    if np.any(null_vector < -1e-6):
        raise SolverError("left null vector has significantly negative entries")
    null_vector = np.clip(null_vector, 0.0, None)
    total = null_vector.sum()
    if total <= 0.0:
        raise SolverError("left null vector is numerically zero")
    return null_vector / total


@single_threaded_blas()
def decay_rate_bisection(
    matrices: ModulatedQueueMatrices,
    *,
    tolerance: float = 1e-12,
    max_iterations: int = 200,
) -> float:
    """The dominant eigenvalue ``z_s`` by root-finding on the spectral abscissa.

    Parameters
    ----------
    matrices:
        The QBD matrices of the model (must describe a stable queue).
    tolerance:
        Absolute tolerance on ``z_s``.
    max_iterations:
        Iteration budget passed to Brent's method.

    Raises
    ------
    SolverError
        If no sign change is bracketed in ``(0, 1)``, which happens when the
        queue is unstable (the root moves to ``z >= 1``).
    """

    def abscissa(z: float) -> float:
        return spectral_abscissa(characteristic_polynomial(matrices, z))

    # The abscissa is positive at z -> 0+ (it tends to the arrival rate),
    # zero at z = 1, and negative just left of 1 for a stable queue.  Scan for
    # a bracketing interval starting near 1.
    upper = 1.0 - 1e-12
    value_upper = abscissa(upper)
    if value_upper >= 0.0:
        raise SolverError(
            "the spectral abscissa is non-negative arbitrarily close to z = 1; "
            "the queue appears to be unstable or critically loaded"
        )
    lower = 0.5
    value_lower = abscissa(lower)
    attempts = 0
    while value_lower < 0.0 and attempts < 60:
        lower *= 0.5
        value_lower = abscissa(lower)
        attempts += 1
    if value_lower < 0.0:
        raise SolverError("failed to bracket the decay rate in (0, 1)")
    root, result = scipy.optimize.brentq(
        abscissa,
        lower,
        upper,
        xtol=tolerance,
        maxiter=max_iterations,
        full_output=True,
    )
    if not result.converged:  # pragma: no cover - brentq rarely fails once bracketed
        raise SolverError("Brent iteration for the decay rate did not converge")
    return float(root)


@single_threaded_blas()
def decay_rate_from_eigensystem(matrices: ModulatedQueueMatrices) -> float:
    """The dominant eigenvalue obtained from the full quadratic eigenproblem."""
    eigensystem = eigenvalues_inside_unit_disk(
        matrices.q0, matrices.q1, matrices.q2, expected_count=matrices.num_modes
    )
    return eigensystem.dominant_eigenvalue


def polynomial_matrices(model: UnreliableQueueModel) -> ModulatedQueueMatrices:
    """The QBD matrices of a model, as ``solve_spectral`` builds them."""
    return ModulatedQueueMatrices(model)


def geometric_mode_vector(matrices: ModulatedQueueMatrices, decay: float) -> np.ndarray:
    """The geometric approximation's mode vector ``u_s``: the Perron null vector of ``Q(z_s)``."""
    return perron_left_null_vector(characteristic_polynomial(matrices, decay))


def expansion_tail(eigensystem: SpectralEigensystem) -> Tail:
    """The levels ``j >= N`` as the expansion over the coefficients ``c``.

    ``v_N = c U``, ``v_{N+1} = c Z U`` and ``sum_{j >= N} v_j 1 = c (U 1 / (1 - z))``.
    """
    values = eigensystem.eigenvalues
    vectors = eigensystem.left_eigenvectors
    return Tail(vectors, values[:, np.newaxis] * vectors, vectors.sum(axis=1) / (1.0 - values))


class ExpansionSolution(QueueSolution):
    """The exact solution as the spectral expansion ``v_{N+t} = sum_k c_k u_k z_k^t``.

    With the scaled coefficients ``c_k = gamma_k z_k^N`` the closed forms of
    the infinite sums (``t = j - N``) are

    .. math::

        \\sum_{t \\ge 0} z^t = \\frac{1}{1 - z}, \\qquad
        \\sum_{t \\ge 0} (N + t) z^t = \\frac{N}{1 - z} + \\frac{z}{(1 - z)^2} .
    """

    def __init__(
        self,
        model: UnreliableQueueModel,
        eigensystem: SpectralEigensystem,
        boundary_vectors: np.ndarray,
        coefficients: np.ndarray,
    ) -> None:
        self._model = model
        self._boundary_vectors = boundary_vectors
        self._gammas = coefficients
        self._z = eigensystem.eigenvalues
        self._u = eigensystem.left_eigenvectors
        self._u_sums = self._u.sum(axis=1)

    @property
    def arrival_rate(self) -> float:
        return self._model.arrival_rate

    @property
    def num_servers(self) -> int:
        return self._model.num_servers

    @property
    def boundary_vectors(self) -> np.ndarray:
        return self._boundary_vectors.copy()

    def level_vector(self, num_jobs: int) -> np.ndarray:
        if num_jobs < self.num_servers:
            return self._boundary_vectors[num_jobs].copy()
        powers = self._z ** (num_jobs - self.num_servers)
        return np.real((self._gammas * powers) @ self._u)

    def queue_length_pmf(self, num_jobs: int) -> float:
        if num_jobs < 0:
            return 0.0
        if num_jobs < self.num_servers:
            return float(max(self._boundary_vectors[num_jobs].sum(), 0.0))
        powers = self._z ** (num_jobs - self.num_servers)
        return float(max(np.real(np.sum(self._gammas * self._u_sums * powers)), 0.0))

    @cached_property
    def tail_mode_vector(self) -> np.ndarray:
        """``sum_{j >= N} v_j`` as a vector over modes."""
        return np.real((self._gammas / (1.0 - self._z)) @ self._u)

    def mode_marginals(self) -> np.ndarray:
        total = np.clip(self._boundary_vectors.sum(axis=0) + self.tail_mode_vector, 0.0, None)
        return total / total.sum()

    @cached_property
    def mean_queue_length(self) -> float:
        boundary_part = sum(
            j * float(self._boundary_vectors[j].sum()) for j in range(self.num_servers)
        )
        z = self._z
        n = self.num_servers
        tail = self._gammas * self._u_sums * (n / (1.0 - z) + z / (1.0 - z) ** 2)
        return float(boundary_part + np.real(np.sum(tail)))

    def queue_length_tail(self, num_jobs: int) -> float:
        if num_jobs < self.num_servers - 1:
            return super().queue_length_tail(num_jobs)
        z = self._z
        start = num_jobs + 1
        weights = self._gammas * self._u_sums * z ** (start - self.num_servers) / (1.0 - z)
        return float(min(max(np.real(np.sum(weights)), 0.0), 1.0))


@single_threaded_blas()
def solve_expansion(model: UnreliableQueueModel) -> ExpansionSolution:
    """Solve a model by the eigen path and the dense boundary system."""
    matrices = polynomial_matrices(model)
    eigensystem = eigenvalues_inside_unit_disk(
        matrices.q0, matrices.q1, matrices.q2, expected_count=matrices.num_modes
    )
    boundary, coefficients, _ = solve_dense_boundary(matrices, expansion_tail(eigensystem))
    return ExpansionSolution(model, eigensystem, np.clip(boundary.real, 0.0, None), coefficients)
