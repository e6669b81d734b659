"""Shared sparse CTMC kernels for the library's level x mode chains.

Every truncated chain in the library — the steady-state chain of
:mod:`repro.scenarios.ctmc` and the transient engine's chains — has the same
shape: states are ``(level, mode)`` pairs indexed level-major
(``index = level * num_modes + mode``), arrivals move one level up at a
constant rate, departures move one level down at a level- and mode-dependent
rate, and mode changes are **level-independent** (the environment does not
see the queue).  This module exploits that shape three times over:

* :func:`assemble_level_mode_generator` builds the sparse generator in one
  vectorised pass — a Kronecker product for the environment part plus two
  offset diagonals for the level part — replacing the per-level Python loops
  the builders used to run;
* :func:`steady_state_csr` solves ``pi Q = 0``.  Small or narrow-band chains
  use a sparse LU factorisation of the *reduced* balance system (one unknown
  pinned, so the matrix stays sparse — no dense normalisation row).  Large
  many-mode chains, whose 4-D lattice structure makes direct factorisation
  fill in catastrophically, use a structured aggregation–disaggregation
  iteration (see below) that converges in a few dozen sweeps;
* :class:`UniformizedOperator` wraps the uniformized DTMC matrix
  ``P = I + Q / Lambda`` together with its **pre-transposed** CSR form, so
  the transient engine's hot loop ``v <- v P`` is a single CSR matrix-vector
  product instead of an implicit CSC conversion per step.

The aggregation–disaggregation iteration
----------------------------------------
Because mode-changing rates are level-independent, summing the balance
equations ``pi Q = 0`` over levels cancels every level transition (they
preserve the mode) and leaves exactly the balance equations of the
*environment* chain: the mode marginals of the truncated chain equal the
environment's stationary distribution, whatever the truncation level.  The
iteration alternates cheap structured smoothing with an exact enforcement of
that invariant:

1. **level sweep** — solve the block-tridiagonal system that couples levels
   within each mode (a fill-free LU of the system indexed mode-major; the
   residual moves between level-major and mode-major order by a reshape and
   transpose of the ``(level, mode)`` grid);
2. **mode sweep** — solve the block-diagonal system that couples modes
   within each level.  It is factored once, in SuperLU's symmetric
   minimum-degree order of ``A^T + A`` (``MMD_AT_PLUS_A``): on the 81k-state
   K = 3 lumped chain (61 levels x 1,331 modes) that fills 6.0M entries where
   the default COLAMD column order fills 11.2M, and a mode solve, which reads
   the whole factor, takes about a third less time;
3. **disaggregation** — rescale each mode's column so its marginal matches
   the exact environment stationary distribution.

Steps 1–2 remove error that varies quickly in either direction; step 3
removes the slow inter-mode error (the component a Krylov method with the
same preconditioners stalls on), so the combination contracts geometrically.
Each sweep makes two matrix-vector products: the residual that checks
convergence also starts the next sweep's level solve.
``tests/colamd_iad.py`` keeps the COLAMD-factored sweep with three products
per sweep as the test oracle: both take the same sweeps to the same vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from ..exceptions import ParameterError, SolverError
from ..obs.metrics import RESIDUAL_BUCKETS, SWEEP_COUNT_BUCKETS, numerics_registry

#: Default absolute tolerance on ``max |pi Q|`` for the iterative solver.
DEFAULT_STEADY_STATE_TOL = 1e-12

#: Hard cap on aggregation-disaggregation sweeps (each sweep is two
#: structured solves plus a rescale; well-posed chains need a few dozen).
MAX_IAD_SWEEPS = 2000

#: Estimated fill budget for the direct path: a level-major band solve fills
#: roughly ``size * num_modes`` entries, so chains above this product use the
#: aggregation-disaggregation iteration instead (when the structure is known).
_DIRECT_FILL_BUDGET = 30_000_000

#: Largest magnitude of a negative entry tolerated in a computed vector.
_NEGATIVITY_TOLERANCE = 1e-8

#: Relative residual (``max |pi Q|`` over the largest exit rate) below which
#: a pinned direct solve is accepted; above it the next pivot is tried.
_RESIDUAL_TOLERANCE = 1e-8


def _as_csr(matrix: scipy.sparse.spmatrix | np.ndarray) -> scipy.sparse.csr_matrix:
    """Coerce a dense or sparse matrix to CSR with float data."""
    return scipy.sparse.csr_matrix(matrix, dtype=float)


@dataclass(frozen=True)
class LevelModeStructure:
    """Structural description of a truncated level x mode chain.

    Attributes
    ----------
    num_levels:
        Number of queue-length levels (``J + 1``).
    num_modes:
        Number of environment modes ``s``; states are indexed
        ``level * num_modes + mode``.
    mode_generator:
        The environment's own ``s x s`` generator.  Mode-changing rates must
        be level-independent (which every builder in the library guarantees);
        its stationary distribution is the exact mode marginal of the
        truncated chain and anchors the disaggregation step.
    """

    num_levels: int
    num_modes: int
    mode_generator: scipy.sparse.csr_matrix

    @property
    def size(self) -> int:
        """Total number of states of the truncated chain."""
        return self.num_levels * self.num_modes

    @cached_property
    def mode_marginals(self) -> np.ndarray:
        """The exact mode marginals: the environment's stationary distribution."""
        return steady_state_csr(self.mode_generator)


def assemble_level_mode_generator(
    mode_rates: scipy.sparse.spmatrix | np.ndarray,
    arrival_rate: float,
    departure_rates: np.ndarray,
) -> scipy.sparse.csr_matrix:
    """Assemble the truncated level x mode generator in one vectorised pass.

    Parameters
    ----------
    mode_rates:
        The ``s x s`` matrix of mode-changing transition rates (off-diagonal;
        any diagonal entries are ignored).  Applied identically at every
        level.
    arrival_rate:
        The rate of one-level-up transitions; arrivals at the top level are
        dropped (the usual finite-buffer truncation).
    departure_rates:
        Array of shape ``(num_levels, s)``: the one-level-down rate out of
        each ``(level, mode)`` state.  Row 0 is ignored (no departures from
        an empty system).

    Returns
    -------
    The CSR generator of the truncated chain, states ordered level-major.
    """
    departures = np.asarray(departure_rates, dtype=float)
    if departures.ndim != 2:
        raise ParameterError(
            f"departure_rates must be 2-D (levels x modes), got shape {departures.shape}"
        )
    num_levels, num_modes = departures.shape
    modes = _as_csr(mode_rates)
    if modes.shape != (num_modes, num_modes):
        raise ParameterError(
            f"mode_rates has shape {modes.shape}, expected ({num_modes}, {num_modes})"
        )
    if num_levels < 1:
        raise ParameterError("at least one level is required")
    size = num_levels * num_modes

    off_diagonal = modes - scipy.sparse.diags(modes.diagonal())
    parts: list[scipy.sparse.spmatrix] = [
        scipy.sparse.kron(scipy.sparse.identity(num_levels), off_diagonal, format="coo")
    ]
    if num_levels > 1:
        arrivals = np.full(size - num_modes, float(arrival_rate))
        parts.append(scipy.sparse.diags(arrivals, offsets=num_modes, shape=(size, size)))
        down = departures[1:].ravel()
        parts.append(scipy.sparse.diags(down, offsets=-num_modes, shape=(size, size)))
    total: scipy.sparse.spmatrix = parts[0]
    for part in parts[1:]:
        total = total + part
    total = total.tocsr()
    diagonal = np.asarray(total.sum(axis=1)).ravel()
    generator = total - scipy.sparse.diags(diagonal)
    return generator.tocsr()


def steady_state_from_generator(generator: np.ndarray) -> np.ndarray:
    """Stationary distribution ``pi`` of a small dense CTMC generator (``pi Q = 0``).

    The singular balance system is closed by appending the normalisation
    ``sum(pi) = 1`` and solved by least squares for robustness against mild
    ill-conditioning.  The direct sparse path falls back to it for small
    chains on which every pinned pivot was rejected.

    Raises
    ------
    SolverError
        If the matrix is not square or the computed vector has significantly
        negative entries (indicating a reducible or malformed generator).
    """
    matrix = np.asarray(generator, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise SolverError(f"generator must be square, got shape {matrix.shape}")
    size = matrix.shape[0]
    if size == 1:
        return np.array([1.0])
    system = np.vstack([matrix.T, np.ones((1, size))])
    rhs = np.zeros(size + 1)
    rhs[-1] = 1.0
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    if np.any(solution < -_NEGATIVITY_TOLERANCE):
        raise SolverError(
            "stationary distribution has negative entries; "
            "the generator may be reducible or malformed"
        )
    solution = np.clip(solution, 0.0, None)
    total = solution.sum()
    if total <= 0.0:
        raise SolverError("stationary distribution sums to zero")
    return solution / total


def _pivot_candidates(matrix: scipy.sparse.csr_matrix) -> list[int]:
    """States worth pinning, most promising first.

    Pinning ``pi_k = 1`` is only well-conditioned when the true ``pi_k`` is
    not vanishingly small.  In stiff chains (long operative periods, fast
    repairs) the mass concentrates on the states held the longest, so the
    smallest exit rate is the best single guess; index 0 and the middle
    state cover the remaining shapes.  Every candidate is validated against
    the balance residual before being accepted.
    """
    exit_rates = np.abs(matrix.diagonal())
    candidates = [int(np.argmin(exit_rates)), 0, matrix.shape[0] // 2]
    ordered: list[int] = []
    for candidate in candidates:
        if candidate not in ordered:
            ordered.append(candidate)
    return ordered


def _pinned_solve(
    transposed: scipy.sparse.csc_matrix, pivot: int, size: int
) -> np.ndarray:
    """Solve the balance system with ``pi[pivot]`` pinned to one."""
    keep = np.delete(np.arange(size), pivot)
    factor = scipy.sparse.linalg.splu(transposed[keep][:, keep].tocsc())
    column = np.asarray(transposed[:, [pivot]].todense()).ravel()
    tail = factor.solve(-column[keep])
    solution = np.empty(size)
    solution[pivot] = 1.0
    solution[keep] = tail
    return solution


def _validate_stationary(
    transposed: scipy.sparse.spmatrix, solution: np.ndarray, scale: float
) -> np.ndarray | None:
    """Normalise a pinned solve; accept it only if it balances ``pi Q = 0``."""
    if np.any(~np.isfinite(solution)):
        return None
    total = solution.sum()
    if total <= 0.0:
        return None
    candidate = solution / total
    if np.any(candidate < -_NEGATIVITY_TOLERANCE):
        return None
    candidate = np.clip(candidate, 0.0, None)
    candidate = candidate / candidate.sum()
    if float(np.max(np.abs(transposed @ candidate))) > scale * _RESIDUAL_TOLERANCE:
        return None
    return candidate


def _steady_state_direct(matrix: scipy.sparse.csr_matrix) -> np.ndarray:
    """Direct sparse solve of ``pi Q = 0`` with one unknown pinned.

    Pinning ``pi_k = 1`` and solving the reduced system keeps the matrix
    sparse (no dense normalisation row); the vector is then rescaled to sum
    to one.  Candidate pivots are tried in turn and each result is checked
    against the balance residual, so a pivot whose true probability is
    (near) zero — which makes the reduced system numerically singular — is
    rejected instead of returned.  Falls back to the dense solver for small
    systems when no pivot works.
    """
    size = matrix.shape[0]
    transposed = matrix.T.tocsc()
    scale = max(1.0, float(np.max(np.abs(matrix.diagonal()))))
    registry = numerics_registry()
    failure: Exception | None = None
    for pivot in _pivot_candidates(matrix):
        try:
            solution = _pinned_solve(transposed, pivot, size)
        except (RuntimeError, ValueError) as exc:
            failure = exc
            registry.counter(
                "repro_direct_pivot_rejections_total",
                "Pinned pivots rejected by the direct steady-state solver.",
            ).inc()
            continue
        candidate = _validate_stationary(transposed, solution, scale)
        if candidate is None:
            registry.counter(
                "repro_direct_pivot_rejections_total",
                "Pinned pivots rejected by the direct steady-state solver.",
            ).inc()
            continue
        registry.histogram(
            "repro_direct_residual",
            "Balance residual max|pi Q| of accepted direct solves.",
            buckets=RESIDUAL_BUCKETS,
        ).observe(float(np.max(np.abs(transposed @ candidate))))
        return candidate
    if size <= 5000:
        registry.counter(
            "repro_direct_dense_fallbacks_total",
            "Direct solves that fell back to the dense eigen-solver.",
        ).inc()
        return steady_state_from_generator(matrix.toarray())
    if failure is not None:
        raise SolverError(f"sparse steady-state solve failed: {failure}") from failure
    raise SolverError(
        "sparse steady-state solve failed: no pivot produced a valid distribution"
    )


def _steady_state_iad(
    matrix: scipy.sparse.csr_matrix,
    structure: LevelModeStructure,
    tol: float,
    max_sweeps: int,
) -> np.ndarray:
    """Aggregation-disaggregation iteration for large level x mode chains."""
    size = matrix.shape[0]
    num_levels, num_modes = structure.num_levels, structure.num_modes
    transposed = matrix.T.tocsr()
    coo = transposed.tocoo()

    # Level-direction system: diagonal plus the +-num_modes offset diagonals
    # (arrivals/departures).  Indexed mode-major (``mode * num_levels +
    # level``) it is block-diagonal with one tridiagonal block per mode, so
    # the LU is fill-free.
    difference = coo.row - coo.col
    level_part = (np.abs(difference) <= num_modes) & (difference % num_modes == 0)
    indices = np.arange(size)
    mode_major = (indices % num_modes) * num_levels + indices // num_modes
    level_matrix = scipy.sparse.csc_matrix(
        (coo.data[level_part], (mode_major[coo.row[level_part]], mode_major[coo.col[level_part]])),
        shape=(size, size),
    )
    level_factor = scipy.sparse.linalg.splu(level_matrix)

    # Mode-direction system: all transitions within one level (plus the
    # diagonal); block-diagonal in the natural level-major order.  A
    # symmetric minimum-degree order of ``A^T + A`` fills about half as much
    # as the default COLAMD column order on many-mode chains, and every
    # sweep's mode solve reads the whole factor.
    mode_part = (coo.row // num_modes) == (coo.col // num_modes)
    mode_matrix = scipy.sparse.csc_matrix(
        (coo.data[mode_part], (coo.row[mode_part], coo.col[mode_part])), shape=(size, size)
    )
    mode_factor = scipy.sparse.linalg.splu(mode_matrix, permc_spec="MMD_AT_PLUS_A")

    registry = numerics_registry()
    marginals = structure.mode_marginals
    vector = np.tile(marginals / num_levels, num_levels)

    positive = marginals > 0.0
    residual = transposed @ vector
    for sweep in range(1, max_sweeps + 1):
        # The level solve runs mode-major: transpose the (level, mode) grid in
        # and back out.
        correction = level_factor.solve(residual.reshape(num_levels, num_modes).T.ravel())
        vector = vector - correction.reshape(num_modes, num_levels).T.ravel()
        vector = vector - mode_factor.solve(transposed @ vector)
        vector = np.clip(vector, 0.0, None)
        current = vector.reshape(num_levels, num_modes).sum(axis=0)
        scale = np.where(positive, marginals / np.maximum(current, 1e-300), 0.0)
        vector = (vector.reshape(num_levels, num_modes) * scale).ravel()
        total = vector.sum()
        if total <= 0.0:  # pragma: no cover - defensive
            raise SolverError("aggregation-disaggregation iterate lost all mass")
        vector = vector / total
        # The convergence check's residual starts the next sweep.
        residual = transposed @ vector
        residual_norm = float(np.max(np.abs(residual)))
        if residual_norm < tol:
            registry.histogram(
                "repro_iad_sweeps",
                "Sweeps the aggregation-disaggregation iteration needed to converge.",
                buckets=SWEEP_COUNT_BUCKETS,
            ).observe(sweep)
            registry.histogram(
                "repro_iad_residual",
                "Final balance residual max|pi Q| of converged IAD solves.",
                buckets=RESIDUAL_BUCKETS,
            ).observe(residual_norm)
            return vector
    registry.counter(
        "repro_iad_nonconverged_total",
        "IAD solves that hit the sweep cap without converging.",
    ).inc()
    raise SolverError(
        f"aggregation-disaggregation did not reach tol={tol} in {max_sweeps} sweeps; "
        "the chain may violate the level-independent mode-rate structure"
    )


def steady_state_csr(
    generator: scipy.sparse.spmatrix | np.ndarray,
    *,
    structure: LevelModeStructure | None = None,
    tol: float = DEFAULT_STEADY_STATE_TOL,
    max_sweeps: int = MAX_IAD_SWEEPS,
) -> np.ndarray:
    """Stationary distribution ``pi`` of a sparse CTMC generator.

    Parameters
    ----------
    generator:
        The CTMC generator (dense or sparse; converted to CSR).
    structure:
        The level x mode structure of the chain, when it has one.  Chains
        whose estimated direct-factorisation fill exceeds the budget are
        solved by the structured aggregation-disaggregation iteration, which
        needs this; without it every chain takes the direct path.
    tol:
        Absolute tolerance on ``max |pi Q|`` for the iterative path.
    max_sweeps:
        Iteration cap for the iterative path.
    """
    matrix = _as_csr(generator)
    if matrix.shape[0] != matrix.shape[1]:
        raise SolverError(f"generator must be square, got shape {matrix.shape}")
    size = matrix.shape[0]
    if size == 1:
        return np.array([1.0])
    if (
        structure is not None
        and structure.size == size
        and structure.num_levels > 1
        and size * structure.num_modes > _DIRECT_FILL_BUDGET
    ):
        numerics_registry().counter(
            "repro_steady_state_solves_total",
            "Sparse steady-state solves, by solver path.",
            labels={"path": "iad"},
        ).inc()
        return _steady_state_iad(matrix, structure, tol, max_sweeps)
    numerics_registry().counter(
        "repro_steady_state_solves_total",
        "Sparse steady-state solves, by solver path.",
        labels={"path": "direct"},
    ).inc()
    return _steady_state_direct(matrix)


class UniformizedOperator:
    """The uniformized DTMC matrix ``P = I + Q / Lambda`` as a step operator.

    SciPy computes a row-vector product ``v @ P`` against a CSR matrix by
    converting to CSC on every call; for the uniformization sweep that
    conversion dominates the whole solve.  This operator stores ``P``
    together with its transpose in CSR form, computed **once**, so each step
    is a plain CSR matrix-vector product.
    """

    def __init__(self, matrix: scipy.sparse.csr_matrix, rate: float) -> None:
        self.matrix = matrix
        self.rate = float(rate)
        self._transpose = matrix.T.tocsr()

    @classmethod
    def from_generator(
        cls,
        generator: scipy.sparse.spmatrix | np.ndarray,
        rate: float | None = None,
    ) -> "UniformizedOperator":
        """Uniformize a generator: ``P = I + Q / Lambda`` at a valid rate.

        ``None`` selects the tightest valid rate ``max_i |Q_ii|``; an
        explicit rate below the largest exit rate would produce negative
        entries and is rejected.
        """
        matrix = _as_csr(generator)
        if matrix.shape[0] != matrix.shape[1]:
            raise SolverError(f"generator must be square, got shape {matrix.shape}")
        diagonal = matrix.diagonal()
        tightest = float(np.max(-diagonal)) if diagonal.size else 0.0
        if rate is None:
            rate = tightest
        elif rate < tightest * (1.0 - 1e-12):
            raise ParameterError(
                f"uniformization rate {rate} is below the largest exit rate {tightest}"
            )
        if rate <= 0.0:
            # Every state is absorbing: P is the identity.
            identity = scipy.sparse.identity(matrix.shape[0], format="csr")
            return cls(identity, 0.0)
        stochastic = (scipy.sparse.identity(matrix.shape[0], format="csr") + matrix / rate).tocsr()
        return cls(stochastic, float(rate))

    @property
    def size(self) -> int:
        """The number of states."""
        return int(self.matrix.shape[0])

    def step(self, vector: np.ndarray) -> np.ndarray:
        """One DTMC step ``v <- v P``, computed as ``P^T v`` on the cached CSR transpose."""
        return self._transpose @ vector
