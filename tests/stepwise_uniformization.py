"""Uniformization one step at a time: the test oracle for the blocked sweep.

:func:`repro.transient.uniformization.transient_distributions` prepares the
Poisson weights of a block of steps at once, runs the block's matrix-vector
steps into a buffer and mixes the block into the result with one matrix
product.  This module keeps the loop it replaced, for the test-suite to pin
the same iterates, stopping steps and distributions against: every step
advances the weights of every time point, adds each active time's weighted
iterate to its row, updates the accumulated mass and checks the iterates
for stationarity.  Each step pays a few dozen small array operations on top
of its matrix-vector product, so this is an oracle, not a solver.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from repro.markov.kernels import UniformizedOperator
from repro.transient.uniformization import UniformizationResult, poisson_truncation_point


def transient_distributions_stepwise(
    generator: scipy.sparse.spmatrix | np.ndarray,
    initial: np.ndarray,
    times: tuple[float, ...],
    *,
    tol: float = 1e-12,
    stationary_tol: float = 1e-13,
) -> UniformizationResult:
    """``pi(t) = pi(0) e^{Qt}`` on a time grid, one uniformization step at a time."""
    requested = tuple(float(t) for t in times)
    operator = UniformizedOperator.from_generator(generator)
    rate = operator.rate
    start = np.clip(np.asarray(initial, dtype=float), 0.0, None)
    start = start / start.sum()
    result = np.zeros((len(requested), operator.size))
    if rate == 0.0:
        result[:] = start
        return UniformizationResult(requested, result, 0.0, 0, 0)

    means = np.array([rate * t for t in requested])
    horizon = poisson_truncation_point(float(means.max()), tol)
    with np.errstate(divide="ignore"):
        log_means = np.where(means > 0.0, np.log(means), -np.inf)
    log_weights = -means.astype(float)
    weights = np.exp(log_weights)
    linear = weights >= np.finfo(float).tiny
    weights[~linear] = 0.0
    accumulated = weights.copy()
    active = accumulated < 1.0 - tol

    vector = start.copy()
    for index in np.nonzero(weights)[0]:
        result[index] += weights[index] * vector

    steps = 0
    stationary_step: int | None = None
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

    remaining = 1.0 - accumulated
    for index in np.nonzero(remaining > 0.0)[0]:
        result[index] += remaining[index] * vector

    result = np.clip(result, 0.0, None)
    return UniformizationResult(requested, result, rate, steps, stationary_step)
