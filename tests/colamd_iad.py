"""The aggregation-disaggregation sweep with a COLAMD mode factor: the test oracle for the IAD.

:func:`repro.markov.kernels._steady_state_iad` factors the mode-direction
system in a symmetric minimum-degree order, reorders vectors between
level-major and mode-major by reshaping, and starts each sweep from the
residual its previous convergence check computed.  This module keeps the
sweep it replaced, for the test-suite to pin the same iterates against:

* the mode-direction block-diagonal system factored as one matrix in
  SuperLU's default COLAMD column order;
* the level-direction system permuted to mode-major order by two
  permutation-matrix products;
* three matrix-vector products per sweep (one before each structured solve
  and one for the convergence check).

Both routes run the same iteration, so they take the same number of sweeps
and agree to rounding.  The COLAMD factor of a many-mode chain fills about
twice as many entries, so this is an oracle, not a solver.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from repro.exceptions import SolverError
from repro.markov.kernels import LevelModeStructure


def steady_state_iad_colamd(
    matrix: scipy.sparse.csr_matrix,
    structure: LevelModeStructure,
    tol: float,
    max_sweeps: int,
) -> tuple[np.ndarray, int]:
    """The stationary vector and the number of sweeps that reached ``tol``."""
    size = matrix.shape[0]
    num_levels, num_modes = structure.num_levels, structure.num_modes
    transposed = matrix.T.tocsr()
    coo = transposed.tocoo()

    difference = coo.row - coo.col
    level_part = (np.abs(difference) <= num_modes) & (difference % num_modes == 0)
    level_matrix = scipy.sparse.coo_matrix(
        (coo.data[level_part], (coo.row[level_part], coo.col[level_part])), shape=(size, size)
    )
    indices = np.arange(size)
    permutation = (indices % num_modes) * num_levels + indices // num_modes
    permute = scipy.sparse.csr_matrix(
        (np.ones(size), (permutation, indices)), shape=(size, size)
    )
    level_factor = scipy.sparse.linalg.splu((permute @ level_matrix @ permute.T).tocsc())

    mode_part = (coo.row // num_modes) == (coo.col // num_modes)
    mode_matrix = scipy.sparse.coo_matrix(
        (coo.data[mode_part], (coo.row[mode_part], coo.col[mode_part])), shape=(size, size)
    ).tocsc()
    mode_factor = scipy.sparse.linalg.splu(mode_matrix)

    marginals = structure.mode_marginals
    vector = np.tile(marginals / num_levels, num_levels)

    positive = marginals > 0.0
    for sweep in range(1, max_sweeps + 1):
        residual = transposed @ vector
        vector = vector - (permute.T @ level_factor.solve(permute @ residual))
        residual = transposed @ vector
        vector = vector - mode_factor.solve(residual)
        vector = np.clip(vector, 0.0, None)
        current = vector.reshape(num_levels, num_modes).sum(axis=0)
        scale = np.where(positive, marginals / np.maximum(current, 1e-300), 0.0)
        vector = (vector.reshape(num_levels, num_modes) * scale).ravel()
        vector = vector / vector.sum()
        if float(np.max(np.abs(transposed @ vector))) < tol:
            return vector, sweep
    raise SolverError(f"aggregation-disaggregation did not reach tol={tol} in {max_sweeps} sweeps")
