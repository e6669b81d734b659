"""Uniformization (randomization) of a CTMC: time-dependent distributions.

Uniformization turns the continuous-time problem ``pi(t) = pi(0) e^{Qt}``
into a randomly-stopped discrete-time one.  With a uniformization rate
``Lambda >= max_i |Q_ii|`` the matrix ``P = I + Q / Lambda`` is a proper
stochastic matrix and

.. math::

    \\pi(t) \\;=\\; \\sum_{k \\ge 0} e^{-\\Lambda t}
    \\frac{(\\Lambda t)^k}{k!} \\; v_k,
    \\qquad v_0 = \\pi(0), \\quad v_{k+1} = v_k P,

i.e. the transient distribution is a Poisson mixture of the DTMC iterates
``v_k``.  Three properties make this the work-horse of transient analysis and
are all exploited here:

* **numerical robustness** — every intermediate quantity is a probability
  vector and every weight is non-negative, so there is no catastrophic
  cancellation (unlike a truncated Taylor series of ``e^{Qt}``);
* **adaptive truncation** — the Poisson tail beyond ``k`` is an explicit
  bound on the neglected mass, so the series is cut once the accumulated
  weight reaches ``1 - tol`` *per evaluation time*;
* **checkpointed multi-``t`` evaluation** — the iterates ``v_k`` do not
  depend on ``t``; one sweep of vector-matrix products serves an entire time
  grid, each time point just mixing the same iterates with its own Poisson
  weights.  Evaluating ``m`` grid points costs one pass to the largest
  ``Lambda t``, not ``m`` passes.

On top of the sweep, :func:`transient_distributions` detects stationarity of
the DTMC iterates: once ``||v_{k+1} - v_k||_1`` falls below a threshold the
remaining Poisson mass of every time point is assigned to the current
iterate, which caps the cost of large-``t`` evaluations at the mixing time of
the uniformized chain rather than at ``Lambda t``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.stats

from ..exceptions import ParameterError, SolverError
from ..markov.kernels import UniformizedOperator

#: Default bound on the Poisson mass neglected per evaluation time.
DEFAULT_TAIL_TOLERANCE = 1e-12

#: Default L1 threshold under which the DTMC iterates are declared stationary.
DEFAULT_STATIONARY_TOLERANCE = 1e-13

#: Hard cap on the number of uniformization steps (runaway-loop backstop).
MAX_UNIFORMIZATION_STEPS = 20_000_000


@dataclass(frozen=True)
class UniformizationResult:
    """Transient distributions over a time grid, with diagnostics.

    Attributes
    ----------
    times:
        The evaluation times, in the caller's order.
    distributions:
        Array of shape ``(len(times), num_states)``; row ``i`` is ``pi(times[i])``.
    rate:
        The uniformization rate ``Lambda``.
    steps:
        Number of DTMC steps (vector-matrix products) actually performed.
    stationary_step:
        The step at which the iterates were detected stationary, or ``None``
        when the sweep ran to the Poisson truncation point instead.
    """

    times: tuple[float, ...]
    distributions: np.ndarray
    rate: float
    steps: int
    stationary_step: int | None


def uniformization_rate(generator: scipy.sparse.spmatrix | np.ndarray) -> float:
    """The uniformization rate ``Lambda = max_i |Q_ii|`` of a generator."""
    if scipy.sparse.issparse(generator):
        diagonal = generator.diagonal()
    else:
        diagonal = np.diag(np.asarray(generator, dtype=float))
    return float(np.max(-diagonal)) if diagonal.size else 0.0


def uniformized_matrix(
    generator: scipy.sparse.spmatrix | np.ndarray, rate: float | None = None
) -> tuple[scipy.sparse.csr_matrix, float]:
    """The uniformized DTMC matrix ``P = I + Q / Lambda`` and the rate used.

    A ``rate`` below the largest exit rate would produce negative entries, so
    it is rejected; ``None`` selects ``max_i |Q_ii|`` (the tightest valid
    choice, which minimises the number of steps per unit time).

    Delegates to the shared kernel layer
    (:class:`repro.markov.kernels.UniformizedOperator`); callers that run the
    sweep themselves should use the operator directly — it caches the CSR
    transpose, making each step a single matrix-vector product.
    """
    operator = UniformizedOperator.from_generator(generator, rate)
    return operator.matrix, operator.rate


def check_times(times: Sequence[float]) -> None:
    """Reject any evaluation time that is not finite and non-negative."""
    for t in times:
        if not (math.isfinite(t) and t >= 0.0):
            raise ParameterError(f"evaluation times must be finite and non-negative, got {t}")


def poisson_truncation_point(mean: float, tol: float) -> int:
    """The smallest ``K`` with Poisson tail ``P(X > K) <= tol`` for mean ``mean``."""
    if mean <= 0.0:
        return 0
    point = int(scipy.stats.poisson.isf(tol, mean))
    # isf returns the smallest k with sf(k) <= tol already, but guard against
    # boundary rounding by nudging upward while the tail is still too heavy.
    while scipy.stats.poisson.sf(point, mean) > tol:  # pragma: no cover - rare
        point += 1
    return point


def transient_distributions(
    generator: scipy.sparse.spmatrix | np.ndarray,
    initial: np.ndarray,
    times: float | Sequence[float] | np.ndarray,
    *,
    tol: float = DEFAULT_TAIL_TOLERANCE,
    stationary_tol: float = DEFAULT_STATIONARY_TOLERANCE,
) -> UniformizationResult:
    """Evaluate ``pi(t) = pi(0) e^{Qt}`` on a whole time grid in one pass.

    Parameters
    ----------
    generator:
        A CTMC generator (dense or sparse).  Rows of absorbing states may be
        zero, so the same routine serves first-passage (absorbing-state)
        analysis.
    initial:
        The initial distribution ``pi(0)`` (non-negative, sums to one).
    times:
        Evaluation times (non-negative, any order; each is evaluated exactly).
    tol:
        Bound on the Poisson mass neglected per time point.  The neglected
        tail is re-assigned to the last computed iterate, so the returned
        rows still sum to one.
    stationary_tol:
        L1 threshold under which the DTMC iterates are declared stationary
        and the remaining Poisson mass of every time point is closed in one
        step.  Set to ``0`` to disable detection.
    """
    requested = tuple(float(t) for t in np.atleast_1d(np.asarray(times, dtype=float)))
    if not requested:
        raise ParameterError("at least one evaluation time is required")
    check_times(requested)
    if not 0.0 < tol < 1.0:
        raise ParameterError(f"tol must lie strictly between 0 and 1, got {tol}")

    start = np.asarray(initial, dtype=float)
    operator = UniformizedOperator.from_generator(generator)
    rate = operator.rate
    if start.shape != (operator.size,):
        raise ParameterError(
            f"initial distribution has shape {start.shape}, expected ({operator.size},)"
        )
    if np.any(start < -1e-12) or not np.isclose(start.sum(), 1.0, atol=1e-9):
        raise ParameterError("initial distribution must be non-negative and sum to one")
    start = np.clip(start, 0.0, None)
    start = start / start.sum()

    result = np.zeros((len(requested), operator.size))
    if rate == 0.0:
        result[:] = start
        return UniformizationResult(requested, result, 0.0, 0, 0)

    means = np.array([rate * t for t in requested])
    horizon = poisson_truncation_point(float(means.max()), tol)
    if horizon > MAX_UNIFORMIZATION_STEPS:
        raise SolverError(
            f"uniformization needs ~{horizon} steps (Lambda*t = {means.max():.3g}); "
            f"the cap is {MAX_UNIFORMIZATION_STEPS} — reduce the horizon or the rate"
        )

    # Per-time Poisson weights via the stable recurrence w_k = w_{k-1} mean/k,
    # seeded at w_0 = e^-mean.  Large means underflow the seed, so each time
    # point is carried in log space (log w_k = log w_{k-1} + log mean - log k)
    # until its weight is comfortably inside the normal floating-point range,
    # then switched to the linear recurrence.  Never seed from a subnormal:
    # subnormals carry only a few significant bits and the recurrence would
    # amplify that error into the percent range as the weights climb.
    with np.errstate(divide="ignore"):
        log_means = np.where(means > 0.0, np.log(means), -np.inf)
    log_weights = -means.astype(float)
    weights = np.exp(log_weights)
    # Subnormal seeds (Lambda*t in roughly (708, 745)) carry only a few
    # significant bits; keep those times in log space until emergence.
    linear = weights >= np.finfo(float).tiny
    weights[~linear] = 0.0
    accumulated = weights.copy()
    active = accumulated < 1.0 - tol

    vector = start.copy()
    for index in np.nonzero(weights)[0]:
        result[index] += weights[index] * vector

    steps = 0
    stationary_step: int | None = None
    # One errstate context around the whole sweep (entering one per step is
    # measurable overhead at thousands of steps); the DTMC step itself goes
    # through the kernel operator, whose cached CSR transpose turns ``v P``
    # into a single matrix-vector product.
    with np.errstate(under="ignore", invalid="ignore"):
        for k in range(1, horizon + 1):
            if not active.any():
                break
            previous = vector
            vector = operator.step(previous)
            steps = k
            log_weights += log_means - np.log(k)
            weights[linear] *= means[linear] / k
            emerging = active & ~linear & (log_weights > -650.0)
            if emerging.any():
                weights[emerging] = np.exp(log_weights[emerging])
                linear |= emerging
            contributing = active & (weights > 0.0)
            for index in np.nonzero(contributing)[0]:
                result[index] += weights[index] * vector
            accumulated += np.where(active, weights, 0.0)
            active &= accumulated < 1.0 - tol

            if stationary_tol > 0.0 and float(np.abs(vector - previous).sum()) < stationary_tol:
                stationary_step = k
                break

    # Close the series: assign each time point's remaining Poisson mass to the
    # last iterate (exact under detected stationarity, a <= tol perturbation
    # otherwise), so every returned row sums to one.
    remaining = 1.0 - accumulated
    for index in np.nonzero(remaining > 0.0)[0]:
        result[index] += remaining[index] * vector

    result = np.clip(result, 0.0, None)
    return UniformizationResult(requested, result, rate, steps, stationary_step)
