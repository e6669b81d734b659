"""The dense boundary system of the spectral solver: the test oracle for level reduction.

:func:`repro.spectral.solution._solve_boundary_system` eliminates the
boundary levels one ``s x s`` block at a time.  This module keeps the direct
route it replaced: every balance equation at levels ``0 .. N`` plus the
normalisation condition stacked into one dense system of ``(N + 1) s + 1``
rows for the unknowns ``theta = (v_0, ..., v_{N-1}, x)``, solved by one LU
factorisation.  The levels ``j >= N`` enter through a :class:`Tail` in ``k``
unknowns ``x``: the eigen expansion's coefficients ``c`` (``eigen_expansion.py``)
or the level vector ``v_N`` itself with the rate matrix ``R``
(:func:`rate_tail`).  Filling and factoring the system costs ``O(N^3 s^3)``
time and ``O(N^2 s^2)`` memory, so it is an oracle for the test-suite, not a
solver: ``test_spectral_boundary.py`` pins the structured solution against it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.spectral.qbd import ModulatedQueueMatrices


class Tail(NamedTuple):
    """The levels ``j >= N`` in ``k`` unknowns ``x``.

    ``v_N = x top``, ``v_{N+1} = x above`` and ``sum_{j >= N} v_j 1 = x mass``.
    """

    top: np.ndarray
    above: np.ndarray
    mass: np.ndarray


def rate_tail(rate: np.ndarray) -> Tail:
    """The levels ``j >= N`` as ``v_N R^t``: the unknowns are ``v_N`` itself."""
    identity = np.eye(rate.shape[0])
    return Tail(identity, rate, np.linalg.inv(identity - rate).sum(axis=1))


def assemble_boundary_system(
    matrices: ModulatedQueueMatrices, tail: Tail
) -> tuple[np.ndarray, np.ndarray]:
    """Build the linear system for the boundary vectors and the tail's unknowns.

    The equations are the balance equations (paper Eq. 14) at levels
    ``0 .. N`` — with ``v_N`` and ``v_{N+1}`` written through the tail — plus
    the normalisation condition (Eq. 20).  Exactly one balance equation is
    linearly dependent.
    """
    num_servers = matrices.num_servers
    num_modes = matrices.num_modes
    num_tail = tail.top.shape[0]

    total_unknowns = num_servers * num_modes + num_tail
    num_equations = (num_servers + 1) * num_modes + 1
    dtype = np.result_type(tail.top, tail.above, tail.mass)
    system = np.zeros((num_equations, total_unknowns), dtype=dtype)
    rhs = np.zeros(num_equations, dtype=dtype)

    arrival = matrices.arrival_matrix

    def boundary_slice(level: int) -> slice:
        return slice(level * num_modes, (level + 1) * num_modes)

    tail_slice = slice(num_servers * num_modes, total_unknowns)

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
            system[row_block, tail_slice] += (tail.top @ local).T

        # Contribution of v_{level+1} (departures into this level).
        if level + 1 < num_servers:
            system[row_block, boundary_slice(level + 1)] += departures_above.T
        else:
            factors = tail.top if level + 1 == num_servers else tail.above
            system[row_block, tail_slice] += (factors @ departures_above).T

    # Normalisation: sum of all boundary probabilities plus the tail's mass.
    norm_row = num_equations - 1
    for level in range(num_servers):
        system[norm_row, boundary_slice(level)] = 1.0
    system[norm_row, tail_slice] = tail.mass
    rhs[norm_row] = 1.0
    return system, rhs


def solve_dense_boundary(
    matrices: ModulatedQueueMatrices, tail: Tail
) -> tuple[np.ndarray, np.ndarray, float]:
    """The boundary vectors, tail unknowns and residual 2-norm from the dense system.

    The first balance equation is dropped to make the system square; if the
    LU solve fails the full rectangular system is solved by least squares.
    The residual covers every row, the dropped one included.
    """
    system, rhs = assemble_boundary_system(matrices, tail)
    try:
        solution = np.linalg.solve(system[1:, :], rhs[1:])
    except np.linalg.LinAlgError:
        solution = np.full(system.shape[1], np.nan, dtype=system.dtype)
    if not np.all(np.isfinite(solution)):
        solution = np.linalg.lstsq(system, rhs, rcond=None)[0]
    residual = float(np.linalg.norm(system @ solution - rhs))
    split = matrices.num_servers * matrices.num_modes
    boundary = solution[:split].reshape(matrices.num_servers, matrices.num_modes)
    return boundary, solution[split:], residual


def dense_residual(
    matrices: ModulatedQueueMatrices,
    tail: Tail,
    boundary: np.ndarray,
    unknowns: np.ndarray,
) -> float:
    """The 2-norm of the dense system's residual at a given solution."""
    system, rhs = assemble_boundary_system(matrices, tail)
    solution = np.concatenate([np.ravel(boundary), unknowns])
    return float(np.linalg.norm(system @ solution - rhs))
