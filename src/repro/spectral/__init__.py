"""Spectral-expansion machinery: the paper's primary analytical contribution.

Public API
----------

* :class:`ModulatedQueueMatrices` — the QBD matrices ``A``, ``B``, ``C_j`` and
  the characteristic-polynomial coefficients ``Q0, Q1, Q2`` (Section 3.1).
* :func:`rate_matrix` — the minimal non-negative solution ``R`` of
  ``Q0 + R Q1 + R^2 Q2 = 0`` by logarithmic reduction; the expansion of
  Eq. 19 is ``v_{N+t} = v_N R^t``, and :func:`eigenvalues_inside_unit_disk`
  returns the eigenvalues of ``R``, the ``z_k`` of Eq. 17–18.
* :func:`solve_spectral`, :class:`SpectralSolution` — the exact steady state
  of the pool or any scenario chain (Eq. 19–20), with all its metrics.
* :func:`solve_geometric`, :class:`GeometricSolution`, :func:`decay_rate` —
  the heavy-load geometric approximation (Eq. 21) and the decay rate ``z_s``,
  both computed on one server.
"""

from .approximation import GeometricSolution, decay_rate, solve_geometric
from .eigen import eigenvalues_inside_unit_disk, rate_matrix
from .qbd import ModulatedQueueMatrices
from .solution import SpectralSolution, solve_spectral

__all__ = [
    "ModulatedQueueMatrices",
    "rate_matrix",
    "eigenvalues_inside_unit_disk",
    "SpectralSolution",
    "solve_spectral",
    "GeometricSolution",
    "solve_geometric",
    "decay_rate",
]
