"""The dense boundary system of the spectral solver: the test oracle for level reduction.

:func:`repro.spectral.solution._solve_boundary_system` eliminates the
boundary levels one ``s x s`` block at a time.  This module keeps the direct
route it replaced: every balance equation at levels ``0 .. N`` plus the
normalisation condition stacked into one dense complex system of
``(N + 1) s + 1`` rows for the ``(N + 1) s`` unknowns
``theta = (v_0, ..., v_{N-1}, c)``, solved by one LU factorisation.  Filling
and factoring it costs ``O(N^3 s^3)`` time and ``O(N^2 s^2)`` memory, so it
is an oracle for the test-suite, not a solver: ``test_spectral_boundary.py``
pins the structured solution against it.
"""

from __future__ import annotations

import numpy as np

from repro.spectral.eigen import SpectralEigensystem
from repro.spectral.qbd import ModulatedQueueMatrices


def assemble_boundary_system(
    matrices: ModulatedQueueMatrices, eigensystem: SpectralEigensystem
) -> tuple[np.ndarray, np.ndarray]:
    """Build the linear system for the boundary vectors and expansion coefficients.

    The equations are the balance equations (paper Eq. 14) at levels
    ``0 .. N`` — with ``v_j`` for ``j >= N`` replaced by the spectral
    expansion ``v_j = sum_k c_k u_k z_k^(j-N)`` — plus the normalisation
    condition (Eq. 20).  Exactly one balance equation is linearly dependent.
    """
    num_servers = matrices.num_servers
    num_modes = matrices.num_modes
    eigenvalues = eigensystem.eigenvalues
    left_vectors = eigensystem.left_eigenvectors
    num_eigen = eigenvalues.size

    total_unknowns = num_servers * num_modes + num_eigen
    num_equations = (num_servers + 1) * num_modes + 1
    system = np.zeros((num_equations, total_unknowns), dtype=complex)
    rhs = np.zeros(num_equations, dtype=complex)

    arrival = matrices.arrival_matrix

    def boundary_slice(level: int) -> slice:
        return slice(level * num_modes, (level + 1) * num_modes)

    gamma_slice = slice(num_servers * num_modes, total_unknowns)

    for level in range(num_servers + 1):
        row_block = slice(level * num_modes, (level + 1) * num_modes)
        local = matrices.local_balance_matrix(level)
        departures_above = matrices.service_matrix(level + 1)

        # Contribution of v_{level-1} (arrivals into this level).
        if level - 1 >= 0:
            system[row_block, boundary_slice(level - 1)] += arrival.T

        # Contribution of v_level.
        if level < num_servers:
            system[row_block, boundary_slice(level)] += local.T
        else:
            # v_N comes from the expansion: v_N = sum_k c_k u_k (z_k^0 = 1).
            factors = (eigenvalues ** (level - num_servers))[:, np.newaxis] * left_vectors
            system[row_block, gamma_slice] += (factors @ local).T

        # Contribution of v_{level+1} (departures into this level).
        if level + 1 < num_servers:
            system[row_block, boundary_slice(level + 1)] += departures_above.T
        else:
            factors = (eigenvalues ** (level + 1 - num_servers))[:, np.newaxis] * left_vectors
            system[row_block, gamma_slice] += (factors @ departures_above).T

    # Normalisation: sum of all boundary probabilities plus the geometric tails.
    norm_row = num_equations - 1
    for level in range(num_servers):
        system[norm_row, boundary_slice(level)] = 1.0
    system[norm_row, gamma_slice] = left_vectors.sum(axis=1) / (1.0 - eigenvalues)
    rhs[norm_row] = 1.0
    return system, rhs


def solve_dense_boundary(
    matrices: ModulatedQueueMatrices, eigensystem: SpectralEigensystem
) -> tuple[np.ndarray, np.ndarray, float]:
    """The boundary vectors, coefficients and residual 2-norm from the dense system.

    The first balance equation is dropped to make the system square; if the
    LU solve fails the full rectangular system is solved by least squares.
    The residual covers every row, the dropped one included.
    """
    system, rhs = assemble_boundary_system(matrices, eigensystem)
    try:
        solution = np.linalg.solve(system[1:, :], rhs[1:])
    except np.linalg.LinAlgError:
        solution = np.full(system.shape[1], np.nan, dtype=complex)
    if not np.all(np.isfinite(solution)):
        solution = np.linalg.lstsq(system, rhs, rcond=None)[0]
    residual = float(np.linalg.norm(system @ solution - rhs))
    split = matrices.num_servers * matrices.num_modes
    boundary = solution[:split].reshape(matrices.num_servers, matrices.num_modes)
    return boundary, solution[split:], residual


def dense_residual(
    matrices: ModulatedQueueMatrices,
    eigensystem: SpectralEigensystem,
    boundary: np.ndarray,
    coefficients: np.ndarray,
) -> float:
    """The 2-norm of the dense system's residual at a given solution."""
    system, rhs = assemble_boundary_system(matrices, eigensystem)
    solution = np.concatenate([np.ravel(boundary), coefficients])
    return float(np.linalg.norm(system @ solution - rhs))
