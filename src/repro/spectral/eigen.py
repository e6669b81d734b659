"""The rate matrix ``R`` of the spectral expansion and its eigenvalues.

The spectral-expansion method needs the ``s`` generalized eigenvalues ``z_k``
of the quadratic matrix polynomial ``Q(z) = Q0 + Q1 z + Q2 z^2`` inside the
unit disk and their left eigenvectors ``u_k`` (``u_k Q(z_k) = 0``, paper
Eq. 17–18): above the boundary the level vectors are
``v_{N+t} = sum_k c_k u_k z_k^t`` (Eq. 19).  With ``U`` the matrix whose rows
are the ``u_k`` and ``Z = diag(z_k)`` that sum is ``v_N R^t`` for

.. math::

    R = U^{-1} Z U ,

and ``R`` needs no eigenvector at all: it is real and non-negative, its
eigenvalues are exactly the ``z_k``, and it is the minimal non-negative
solution of ``Q0 + R Q1 + R^2 Q2 = 0`` (the matrix-geometric form of the same
queue).  :func:`rate_matrix` computes it by the logarithmic reduction of
Latouche & Ramaswami (J. Appl. Prob. 30, 1993) in real ``s x s`` arithmetic,
and :func:`eigenvalues_inside_unit_disk` reads the ``z_k`` off it.

The reduction first finds ``G``, the minimal non-negative solution of
``Q2 + Q1 G + Q0 G^2 = 0``.  With ``B0 = (-Q1)^{-1} Q0`` and
``B2 = (-Q1)^{-1} Q2`` each step doubles the number of levels the partial sum
``G`` accounts for; ``G`` is stochastic when the queue is stable, so
``max|1 - G 1|`` measures what is left, and ``R = Q0 (-(Q1 + Q0 G))^{-1}``.
The convergence is quadratic: 6–7 steps at moderate load, 10–15 close to
saturation.

Every ``s x s`` inversion of the spectral solve, here and in the level
reduction of :mod:`repro.spectral.solution`, goes through :func:`invert`:
LAPACK ``getrf`` + ``getri``, 1.5–2.3 times as fast as NumPy's ``inv`` on one
BLAS thread.  The inverses stay explicit: an LU solve with ``s``
right-hand sides costs more than the inversion and a product together.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgetrf, dgetri, dgetri_lwork

from ..blas import single_threaded_blas
from ..exceptions import SolverError

#: Steps after which a reduction whose ``max|1 - G 1|`` still falls gives up.
_MAX_REDUCTION_STEPS = 64

#: Largest ``max|1 - G 1|`` accepted once the reduction stops improving; a
#: stable queue has a stochastic ``G``.
_STOCHASTIC_TOLERANCE = 1e-9


@functools.cache
def _getri_workspace(size: int) -> int:
    """The optimal ``getri`` workspace for a ``size x size`` matrix."""
    work, _ = dgetri_lwork(size)
    return max(int(work), 1)


def invert(matrix: np.ndarray) -> np.ndarray:
    """The inverse of a real square matrix, by LAPACK ``getrf`` + ``getri``.

    The matrix itself is factored, as NumPy's ``inv`` does, so the pivots
    are the same and so is the verdict on a singular matrix; the inverse
    comes back Fortran-ordered.  The caller's matrix is not modified.

    Raises
    ------
    SolverError
        If the LU factorisation meets an exactly zero pivot (a singular
        matrix), so the solver policy can fall back to the next solver.
    """
    factor, pivots, info = dgetrf(matrix)
    if info == 0:
        inverse, info = dgetri(
            factor, pivots, lwork=_getri_workspace(matrix.shape[0]), overwrite_lu=True
        )
    if info != 0:
        raise SolverError(
            f"singular {matrix.shape[0]}x{matrix.shape[0]} matrix in the spectral solve "
            f"(LAPACK getrf/getri info = {info})"
        )
    return inverse


@single_threaded_blas()
def rate_matrix(q0: np.ndarray, q1: np.ndarray, q2: np.ndarray) -> tuple[np.ndarray, int]:
    """The minimal non-negative solution ``R`` of ``Q0 + R Q1 + R^2 Q2 = 0``.

    Computed by logarithmic reduction.  The iteration stops once
    ``max|1 - G 1|`` stops decreasing, not at a fixed tolerance: rounding in
    the row sums of ``G`` grows with ``s``, so an absolute threshold can
    stay out of reach on a large chain.

    Returns
    -------
    (rate, steps):
        The ``s x s`` real matrix ``R`` and the number of reduction steps.

    Raises
    ------
    SolverError
        If the reduction does not settle within the step budget, settles
        with ``G`` visibly short of stochastic (an unstable or
        ill-conditioned queue), or meets a singular matrix.
    """
    identity = np.eye(q0.shape[0])
    local = invert(-q1)
    up = local @ q0
    down = local @ q2
    first_passage = down.copy()
    reach = up.copy()
    deficit = np.inf
    for step in range(1, _MAX_REDUCTION_STEPS + 1):
        mixed = invert(identity - up @ down - down @ up)
        up, down = mixed @ (up @ up), mixed @ (down @ down)
        first_passage += reach @ down
        reach = reach @ up
        remaining = float(np.max(np.abs(1.0 - first_passage.sum(axis=1))))
        if remaining >= deficit:
            break
        deficit = remaining
    else:
        raise SolverError(
            f"logarithmic reduction did not settle in {_MAX_REDUCTION_STEPS} steps "
            f"(max|1 - G 1| = {deficit:.3g})"
        )
    if deficit > _STOCHASTIC_TOLERANCE:
        raise SolverError(
            f"logarithmic reduction stalled at max|1 - G 1| = {deficit:.3g}; "
            "the queue may be unstable or the chain ill-conditioned"
        )
    return q0 @ invert(-(q1 + q0 @ first_passage)), step


@single_threaded_blas()
def eigenvalues_inside_unit_disk(rate: np.ndarray) -> np.ndarray:
    """The ``s`` eigenvalues ``z_k`` of ``Q(z)`` inside the unit disk.

    They are the eigenvalues of the rate matrix ``R`` (complex in general),
    returned sorted by increasing modulus, so the dominant eigenvalue
    ``z_s`` is last.  ``R`` is scaled by a power of two first: below
    ``1e-138`` (light load) LAPACK's own rescaling returns wrong eigenvalues.
    """
    scale = 2.0 ** int(np.frexp(np.max(np.abs(rate)))[1])
    eigenvalues = scipy.linalg.eigvals(rate / scale) * scale
    return eigenvalues[np.argsort(np.abs(eigenvalues), kind="stable")]
