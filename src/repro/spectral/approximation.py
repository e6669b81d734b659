"""The geometric (heavy-load) approximation of Section 3.2.

The exact spectral expansion needs all ``s`` eigenvalues inside the unit disk
plus the boundary solve; for large ``N`` or many phases it becomes expensive
and numerically fragile (the paper observes warnings from about ``N = 24``).
The approximation keeps only the dominant eigenvalue ``z_s`` — always real
and positive — and assumes the queue length is geometric with parameter
``z_s`` and independent of the operational mode (paper Eq. 21):

.. math::

    v_j = \\frac{u_s}{u_s \\mathbf 1} (1 - z_s) z_s^j , \\qquad j = 0, 1, ...

It requires only one eigenvalue/eigenvector pair and is asymptotically exact
as the load approaches saturation (Mitrani 2005, reference [4] of the paper).

Two ways of computing ``z_s`` are provided:

* :func:`decay_rate_bisection` — the numerically robust method: ``z_s`` is
  the unique root in ``(0, 1)`` of the spectral abscissa of ``Q(z)`` (the
  matrices ``Q(z)`` have non-negative off-diagonal entries, so their spectral
  abscissa is a real Perron eigenvalue, convex in ``z``, equal to ``0`` at
  ``z = 1``); Brent's method finds it without ever forming the full
  eigensystem.
* :func:`decay_rate_from_eigensystem` — take the largest-modulus eigenvalue
  of the full quadratic eigenproblem; used for cross-validation in tests.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.optimize

from ..blas import single_threaded_blas
from ..exceptions import SolverError
from ..queueing.model import UnreliableQueueModel
from ..queueing.solution_base import QueueSolution
from .eigen import (
    eigenvalues_inside_unit_disk,
    perron_left_null_vector,
    spectral_abscissa,
)
from .qbd import ModulatedQueueMatrices


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
        return spectral_abscissa(matrices.characteristic_polynomial(z))

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


class GeometricSolution(QueueSolution):
    """The geometric approximation of the queue-length distribution (Eq. 21).

    The queue length is geometric with parameter ``z_s`` and independent of
    the operational mode, whose marginal distribution is the normalised
    dominant left eigenvector ``u_s / (u_s 1)``.
    """

    def __init__(
        self,
        model: UnreliableQueueModel,
        decay_rate: float,
        mode_vector: np.ndarray,
    ) -> None:
        if not 0.0 < decay_rate < 1.0:
            raise SolverError(f"the decay rate must lie in (0, 1), got {decay_rate}")
        self._model = model
        self._decay_rate = float(decay_rate)
        total = float(np.sum(mode_vector))
        if total <= 0.0:
            raise SolverError("the dominant eigenvector has non-positive total mass")
        self._mode_vector = np.asarray(mode_vector, dtype=float) / total

    # ------------------------------------------------------------------ #
    # Metadata
    # ------------------------------------------------------------------ #

    @property
    def model(self) -> UnreliableQueueModel:
        """The model that was approximated."""
        return self._model

    @property
    def arrival_rate(self) -> float:
        return self._model.arrival_rate

    @property
    def num_servers(self) -> int:
        return self._model.num_servers

    @property
    def decay_rate(self) -> float:
        """The dominant eigenvalue ``z_s`` (the geometric parameter)."""
        return self._decay_rate

    # ------------------------------------------------------------------ #
    # Queue-length law
    # ------------------------------------------------------------------ #

    def level_vector(self, num_jobs: int) -> np.ndarray:
        """The approximate probability vector over modes at level ``num_jobs``."""
        if num_jobs < 0:
            raise SolverError(f"the number of jobs must be non-negative, got {num_jobs}")
        return (
            self._mode_vector
            * (1.0 - self._decay_rate)
            * self._decay_rate**num_jobs
        )

    def queue_length_pmf(self, num_jobs: int) -> float:
        if num_jobs < 0:
            return 0.0
        return float((1.0 - self._decay_rate) * self._decay_rate**num_jobs)

    def queue_length_tail(self, num_jobs: int) -> float:
        if num_jobs < 0:
            return 1.0
        return float(self._decay_rate ** (num_jobs + 1))

    def mode_marginals(self) -> np.ndarray:
        return self._mode_vector.copy()

    @cached_property
    def mean_queue_length(self) -> float:
        """The geometric mean ``z_s / (1 - z_s)``."""
        return self._decay_rate / (1.0 - self._decay_rate)

    @property
    def mean_jobs_waiting(self) -> float:
        """``E[(jobs - N)^+]`` under the geometric law (closed form)."""
        z = self._decay_rate
        return float(z ** (self.num_servers + 1) / (1.0 - z))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GeometricSolution(N={self.num_servers}, z_s={self._decay_rate:.6f}, "
            f"L={self.mean_queue_length:.4f})"
        )


@single_threaded_blas()
def solve_geometric(
    model: UnreliableQueueModel, *, method: str = "bisection"
) -> GeometricSolution:
    """Approximate an :class:`UnreliableQueueModel` by the geometric law of Eq. 21.

    Parameters
    ----------
    model:
        The queueing model (must be stable and have exponential or
        hyperexponential period distributions).
    method:
        ``"bisection"`` (default) computes the dominant eigenvalue by the
        robust spectral-abscissa root finder; ``"eigensystem"`` extracts it
        from the full quadratic eigenproblem (slower, used for validation).

    Raises
    ------
    UnstableQueueError
        If the stability condition (paper Eq. 11) is violated.
    SolverError
        If the decay rate cannot be computed.
    """
    model.require_stable()
    matrices = ModulatedQueueMatrices(
        environment=model.environment,
        arrival_rate=model.arrival_rate,
        service_rate=model.service_rate,
    )
    if method == "bisection":
        decay = decay_rate_bisection(matrices)
    elif method == "eigensystem":
        decay = decay_rate_from_eigensystem(matrices)
    else:
        raise SolverError(f"unknown decay-rate method: {method!r}")
    polynomial = matrices.characteristic_polynomial(decay)
    mode_vector = perron_left_null_vector(polynomial)
    return GeometricSolution(model=model, decay_rate=decay, mode_vector=mode_vector)
