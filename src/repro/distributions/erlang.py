"""The Erlang distribution (sum of independent exponentials with a common rate).

Erlang distributions have squared coefficient of variation ``1 / k < 1`` and
therefore sit on the *opposite* side of the exponential from the
hyperexponential family.  The library includes them for two reasons: they are
the natural low-variability counterpart when studying the effect of
operative-period variability (paper Figure 6 sweeps ``C^2`` from 0 upwards),
and they approximate the deterministic (``C^2 = 0``) case as ``k`` grows.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING
from collections.abc import Sequence

import numpy as np
import scipy.special

from .._validation import check_positive, check_positive_int
from .base import Distribution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .phase_type import PhaseType


class Erlang(Distribution):
    """Erlang distribution with ``shape`` stages of rate ``rate`` each.

    The mean is ``shape / rate`` and the squared coefficient of variation is
    ``1 / shape``.

    Parameters
    ----------
    shape:
        Number of exponential stages ``k >= 1``.
    rate:
        Rate of each stage (strictly positive).
    """

    def __init__(self, shape: int, rate: float) -> None:
        self._shape = check_positive_int(shape, "shape")
        self._rate = check_positive(rate, "rate")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_mean_and_shape(cls, mean: float, shape: int) -> "Erlang":
        """Construct an Erlang with the given mean and number of stages."""
        mean = check_positive(mean, "mean")
        shape = check_positive_int(shape, "shape")
        return cls(shape=shape, rate=shape / mean)

    # ------------------------------------------------------------------ #
    # Parameters
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> int:
        """The number of exponential stages."""
        return self._shape

    @property
    def stage_rate(self) -> float:
        """The rate of each individual stage."""
        return self._rate

    # ------------------------------------------------------------------ #
    # Distribution interface
    # ------------------------------------------------------------------ #

    # The gamma density and distribution function are evaluated as
    # ``scipy.stats.gamma`` evaluates them (the argument divided by the scale
    # ``1 / rate``), so the values are the same without importing
    # ``scipy.stats``.

    def pdf(self, x: float | Sequence[float]) -> np.ndarray | float:
        scale = 1.0 / self._rate
        y = np.asarray(x, dtype=float) / scale
        with np.errstate(invalid="ignore"):  # x = inf gives nan, as in scipy.stats
            log_density = scipy.special.xlogy(self._shape - 1.0, y) - y
        density = np.exp(log_density - scipy.special.gammaln(self._shape)) / scale
        result = np.where(y >= 0.0, density, np.where(np.isnan(y), np.nan, 0.0))
        return result if np.ndim(x) else float(result)

    def cdf(self, x: float | Sequence[float]) -> np.ndarray | float:
        y = np.asarray(x, dtype=float) / (1.0 / self._rate)
        probability = scipy.special.gammainc(self._shape, y)
        result = np.where(y > 0.0, probability, np.where(np.isnan(y), np.nan, 0.0))
        return result if np.ndim(x) else float(result)

    def moment(self, k: int) -> float:
        if k < 1:
            raise ValueError(f"moment order must be >= 1, got {k}")
        # E[X^k] = (shape)(shape+1)...(shape+k-1) / rate^k
        value = 1.0
        for i in range(k):
            value *= self._shape + i
        return value / self._rate**k

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray | float:
        draws = rng.gamma(shape=self._shape, scale=1.0 / self._rate, size=size)
        return draws if size is not None else float(draws)

    def laplace_transform(self, s: float | complex) -> complex:
        return complex((self._rate / (self._rate + s)) ** self._shape)

    def to_phase_type(self) -> "PhaseType":
        from .phase_type import PhaseType

        k = self._shape
        generator = np.zeros((k, k))
        for i in range(k):
            generator[i, i] = -self._rate
            if i + 1 < k:
                generator[i, i + 1] = self._rate
        initial = np.zeros(k)
        initial[0] = 1.0
        return PhaseType(initial=initial, generator=generator)

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #

    def parameter_key(self) -> tuple:
        """The defining parameters, for solution-cache keys."""
        return (self._shape, self._rate)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Erlang):
            return NotImplemented
        return self._shape == other._shape and self._rate == other._rate

    def __hash__(self) -> int:
        return hash(("Erlang", self._shape, self._rate))

    def __repr__(self) -> str:
        return f"Erlang(shape={self._shape}, rate={self._rate:.6g})"


def erlang_scv(shape: int) -> float:
    """Return the squared coefficient of variation ``1 / shape`` of an Erlang-``shape``."""
    shape = check_positive_int(shape, "shape")
    return 1.0 / shape


def stages_for_scv(scv: float) -> int:
    """Return the smallest Erlang stage count whose SCV does not exceed ``scv``.

    Useful when approximating a low-variability (``C^2 < 1``) operative-period
    distribution by an Erlang, e.g. for the ``C^2 -> 0`` end of Figure 6.
    """
    scv = float(scv)
    if scv <= 0.0:
        raise ValueError("scv must be positive; use a deterministic distribution for scv == 0")
    return max(1, math.ceil(1.0 / scv))
