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

The sweep runs a block of steps at a time (at most 256 steps, with the
block's buffers within 16 MiB).  The Poisson weights do not depend on the
iterates, so each block first advances every time point's weights by
cumulative sums and products seeded with the running values: the same
arithmetic as one step at a time, so each time's switch out of log space,
its accumulated mass and its last step are unchanged.  The block's DTMC
steps then fill one buffer, the first stationary step is found within it,
and one matrix product (weights x iterates) mixes the block into the result.
Per step this leaves the sparse matrix-vector product and a copy.
``tests/stepwise_uniformization.py`` keeps the step-by-step loop as the
test oracle.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.special

from ..exceptions import ParameterError, SolverError
from ..markov.kernels import UniformizedOperator

#: Default bound on the Poisson mass neglected per evaluation time.
DEFAULT_TAIL_TOLERANCE = 1e-12

#: Default L1 threshold under which the DTMC iterates are declared stationary.
DEFAULT_STATIONARY_TOLERANCE = 1e-13

#: Hard cap on the number of uniformization steps (runaway-loop backstop).
MAX_UNIFORMIZATION_STEPS = 20_000_000

#: Most steps one block of the sweep runs, and most bytes its two buffers
#: (the iterates and their changes) may take together.
_BLOCK_STEPS = 256
_BLOCK_BYTES = 16 * 2**20

#: A time point whose Poisson seed underflows stays in log space until its
#: log weight rises above this floor.
_LOG_SPACE_FLOOR = -650.0


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
    """The smallest ``K`` with Poisson tail ``P(X > K) <= tol`` for mean ``mean``.

    An integer bisection on the tail ``pdtrc(K, mean)``: ``heavy`` always has
    a tail above ``tol`` and ``light`` one at or below it.
    """
    if mean <= 0.0:
        return 0
    heavy, light = -1, max(1, math.ceil(mean))
    while scipy.special.pdtrc(light, mean) > tol:
        heavy, light = light, 2 * light
    while light - heavy > 1:
        middle = (heavy + light) // 2
        if scipy.special.pdtrc(middle, mean) > tol:
            heavy = middle
        else:
            light = middle
    return light


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
    threshold = 1.0 - tol
    active = accumulated < threshold

    for index in np.nonzero(weights)[0]:
        result[index] += weights[index] * start

    steps = 0
    stationary_step: int | None = None
    # The sweep runs in blocks.  The weights do not depend on the iterates,
    # so a block's weights, accumulated masses and stopping steps are known
    # before its DTMC steps run; the steps then fill one buffer of iterates
    # (row 0 holds the previous block's last iterate), and one matrix product
    # mixes the whole block into the result.  The buffers are allocated once:
    # a fresh block-sized temporary per block costs more than its arithmetic.
    block = max(1, min(_BLOCK_STEPS, _BLOCK_BYTES // (2 * start.itemsize * operator.size) - 1))
    iterates = np.empty((min(block, horizon) + 1, operator.size))
    changes = np.empty((iterates.shape[0] - 1, operator.size))
    iterates[0] = start
    step = operator.step
    with np.errstate(under="ignore", invalid="ignore"):
        while steps < horizon and active.any():
            ks = np.arange(steps + 1, steps + 1 + min(block, horizon - steps))
            log_block, weight_block = _advance_weights(
                ks, means, log_means, log_weights, weights, linear
            )
            # live[:, j]: after j steps of the block the time's accumulated
            # mass is still below 1 - tol.  A time mixes in every step it
            # starts live.
            mass = np.cumsum(np.column_stack([accumulated, weight_block]), axis=1)
            live = active[:, None] & (mass < threshold)
            mixing = np.where(live[:, :-1], weight_block, 0.0)
            # The sweep ends with the first step that leaves no time live.
            finished = np.nonzero(~live[:, 1:].any(axis=0))[0]
            count = int(finished[0]) + 1 if finished.size else ks.size

            for row in range(1, count + 1):
                iterates[row] = step(iterates[row - 1])
            if stationary_tol > 0.0:
                change = changes[:count]
                np.subtract(iterates[1 : count + 1], iterates[:count], out=change)
                np.abs(change, out=change)
                still = np.nonzero(change.sum(axis=1) < stationary_tol)[0]
                if still.size:
                    count = int(still[0]) + 1
                    stationary_step = steps + count

            result += mixing[:, :count] @ iterates[1 : count + 1]
            accumulated = np.cumsum(
                np.column_stack([accumulated, mixing[:, :count]]), axis=1
            )[:, -1]
            active = live[:, count]
            linear = linear | (log_block[:, :count] > _LOG_SPACE_FLOOR).any(axis=1)
            log_weights = log_block[:, count - 1]
            weights = weight_block[:, count - 1]
            steps += count
            iterates[0] = iterates[count]
            if stationary_step is not None:
                break

    # Close the series: assign each time point's remaining Poisson mass to the
    # last iterate (exact under detected stationarity, a <= tol perturbation
    # otherwise), so every returned row sums to one.
    remaining = 1.0 - accumulated
    for index in np.nonzero(remaining > 0.0)[0]:
        result[index] += remaining[index] * iterates[0]

    result = np.clip(result, 0.0, None)
    return UniformizationResult(requested, result, rate, steps, stationary_step)


def _advance_weights(
    ks: np.ndarray,
    means: np.ndarray,
    log_means: np.ndarray,
    log_weights: np.ndarray,
    weights: np.ndarray,
    linear: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Every time point's log weight and weight after each of the steps ``ks``.

    Both arrays have shape ``(len(means), len(ks))``.  Cumulative sums and
    products seeded with the running values repeat the one-step recurrences
    operation for operation, so every entry, and with it each time's switch
    from log space to the linear recurrence, is what a loop over the steps
    computes.
    """
    log_steps = np.column_stack([log_weights, log_means[:, None] - np.log(ks)])
    log_block = np.cumsum(log_steps, axis=1)[:, 1:]
    factors = np.column_stack([weights, means[:, None] / ks])
    weight_block = np.cumprod(factors, axis=1)[:, 1:]
    for index in np.nonzero(~linear)[0]:
        weight_block[index] = 0.0
        emerged = np.nonzero(log_block[index] > _LOG_SPACE_FLOOR)[0]
        if emerged.size:
            first = int(emerged[0])
            factors[index, first + 1] = np.exp(log_block[index, first])
            weight_block[index, first:] = np.cumprod(factors[index, first + 1 :])
    return log_block, weight_block

