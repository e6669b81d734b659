"""The geometric (heavy-load) approximation of Section 3.2 and the decay rate ``z_s``.

The exact spectral expansion needs the whole rate matrix ``R`` plus the
boundary solve.  The approximation keeps only the dominant eigenvalue ``z_s``
— always real and positive — and assumes the queue length is geometric with
parameter ``z_s`` and independent of the operational mode (paper Eq. 21):

.. math::

    v_j = \\frac{u_s}{u_s \\mathbf 1} (1 - z_s) z_s^j , \\qquad j = 0, 1, ...

It requires only one eigenvalue/eigenvector pair and is asymptotically exact
as the load approaches saturation (Mitrani 2005, reference [4] of the paper).

``z_s`` is found on one server, so the decay rate and the approximation
need a homogeneous model: one group and an unlimited crew, ``K = 1, R = N``
(:attr:`~repro.scenarios.ScenarioModel.is_homogeneous`).  Other scenarios
raise :class:`~repro.exceptions.UnsupportedScenarioError`.  For a
homogeneous model

.. math::

    Q(z) / z = (A - D^A) + (1 - z) (\\lambda / z \\cdot I - \\mu X)

is, lumped onto the modes, a Kronecker sum over the ``N`` identical servers
of one server's ``(n + m) x (n + m)`` matrix ``T - (1 - z) mu D`` (``T`` the
generator of its phases, ``D`` the indicator of its operative phases) plus
``lambda (1 - z) / z``.  Its Perron root is therefore
``lambda (1 - z) / z + N rho(z)``, with ``rho(z)`` the server's Perron root,
and ``z_s`` is the root of that in ``(0, 1)``.  Times ``z / N`` the same
expression is the Perron root of
``q(z) = lambda / N I + (T - lambda / N I - mu D) z + mu D z^2``, the
characteristic polynomial of one server fed ``lambda / N``: ``z_s`` is the
spectral radius of that server's rate matrix, which
:func:`~repro.spectral.eigen.rate_matrix` computes in ``(n + m) x (n + m)``
arithmetic whatever ``N``.  The mode vector ``u_s``, the left Perron vector
of ``Q(z_s)``, is the product of ``N`` copies of the server's left Perron
vector ``p`` lumped onto the modes: a mode with ``x_j`` servers in operative
phase ``j`` and ``y_k`` in inoperative phase ``k`` weighs
``N! / (prod x_j! prod y_k!) prod p_j^x_j prod p_k^y_k``.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import gammaln

from ..blas import single_threaded_blas
from ..exceptions import SolverError, UnsupportedScenarioError
from ..markov.scenario_env import _as_phase_mixture
from ..queueing.solution_base import QueueSolution
from .eigen import rate_matrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.model import ScenarioModel

#: Largest negative entry accepted in the server's left Perron vector.
_PERRON_NEGATIVITY_TOLERANCE = 1e-6


def _server_perron_pair(model: "ScenarioModel") -> tuple[float, np.ndarray]:
    """``z_s`` and one server's left Perron vector.

    Returns the spectral radius of the rate matrix of one server fed
    ``lambda / N`` arrivals and its left Perron vector, indexed by the
    phases in the order ``(operative phases, inoperative phases)`` and
    summing to one.
    """
    if not model.is_homogeneous:
        raise UnsupportedScenarioError(
            "the one-server reduction needs one server group with an unlimited repair crew"
        )
    model.require_stable()
    (server,) = model.groups
    alpha, xi = _as_phase_mixture(server.operative, "operative")
    beta, eta = _as_phase_mixture(server.inoperative, "inoperative")
    # Breakdowns leave operative phase j for inoperative phase k at
    # xi_j beta_k, repairs go back at eta_k alpha_j (paper Eq. 9, one server).
    # Built here rather than by a one-server ScenarioEnvironment, whose sparse
    # assembly costs more than the whole root.
    moves = np.block(
        [
            [np.zeros((xi.size, xi.size)), np.outer(xi, beta)],
            [np.outer(eta, alpha), np.zeros((eta.size, eta.size))],
        ]
    )
    service = np.concatenate([np.full(xi.size, server.service_rate), np.zeros(eta.size)])
    arrival = model.arrival_rate / model.num_servers
    rate, _ = rate_matrix(
        arrival * np.eye(service.size),
        moves - np.diag(moves.sum(axis=1) + arrival + service),
        np.diag(service),
    )
    values, vectors = np.linalg.eig(rate.T)
    dominant = int(np.argmax(values.real))
    vector = vectors[:, dominant].real
    vector = vector / vector.sum()
    if float(np.min(vector)) < -_PERRON_NEGATIVITY_TOLERANCE:
        raise SolverError("the server's left Perron vector has significantly negative entries")
    return float(values[dominant].real), np.clip(vector, 0.0, None)


@single_threaded_blas()
def decay_rate(model: "ScenarioModel") -> float:
    """The dominant eigenvalue ``z_s`` of ``Q(z)``: the queue length's decay rate.

    Raises
    ------
    UnsupportedScenarioError
        If the model is not homogeneous (one group, unlimited crew).
    UnstableQueueError
        If the stability condition (paper Eq. 11) is violated.
    ParameterError
        If the period distributions are not exponential/hyperexponential.
    SolverError
        If the one-server reduction fails to converge.
    """
    return _server_perron_pair(model)[0]


class GeometricSolution(QueueSolution):
    """The geometric approximation of the queue-length distribution (Eq. 21).

    The queue length is geometric with parameter ``z_s`` and independent of
    the operational mode, whose marginal distribution is the normalised
    dominant left eigenvector ``u_s / (u_s 1)``.
    """

    def __init__(
        self,
        model: "ScenarioModel",
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
    def model(self) -> "ScenarioModel":
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
def solve_geometric(model: "ScenarioModel") -> GeometricSolution:
    """Approximate a homogeneous model by the geometric law of Eq. 21.

    Raises
    ------
    UnsupportedScenarioError
        If the model is not homogeneous (one group, unlimited crew).
    UnstableQueueError
        If the stability condition (paper Eq. 11) is violated.
    SolverError
        If the decay rate cannot be computed.
    """
    decay, by_phase = _server_perron_pair(model)
    # Per mode, the servers in each phase, in the same (operative, inoperative) order.
    counts = np.array(
        [operative + inoperative for ((operative, inoperative),) in model.environment.modes],
        dtype=float,
    )
    log_multinomial = gammaln(model.num_servers + 1.0) - gammaln(counts + 1.0).sum(axis=1)
    mode_vector = np.exp(log_multinomial) * np.prod(by_phase**counts, axis=1)
    return GeometricSolution(model=model, decay_rate=decay, mode_vector=mode_vector)
