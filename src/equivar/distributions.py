"""Standardized sampling distributions for the simulation study.

Six location-scale families spanning kurtosis 1.8 to 9.  Every sampler
returns draws with population mean 0 and variance 1, so a group with
target variance sigma^2 is obtained by multiplying draws by sigma.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import MAX_VALUES, count

__all__ = ["Distribution", "sample_standardized"]

_GUMBEL_SCALE = math.pi / math.sqrt(6.0)
_T5_SCALE = math.sqrt(5.0 / 3.0)
_UNIFORM_SCALE = math.sqrt(12.0)


class Distribution(str, enum.Enum):
    """The available sampling distributions (all standardized)."""

    UNIFORM = "uniform"
    NORMAL = "normal"
    EXTREME_VALUE = "extreme_value"
    LAPLACE = "laplace"
    STUDENT_T5 = "student_t5"
    EXPONENTIAL = "exponential"

    @property
    def kurtosis(self) -> float:
        """Population kurtosis of the family (scale-free, so unchanged by standardization)."""
        return _KURTOSIS[self]


_KURTOSIS = {
    Distribution.UNIFORM: 1.8,
    Distribution.NORMAL: 3.0,
    Distribution.EXTREME_VALUE: 5.4,
    Distribution.LAPLACE: 6.0,
    Distribution.STUDENT_T5: 9.0,
    Distribution.EXPONENTIAL: 9.0,
}


def sample_standardized(kind: Distribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` i.i.d. values from ``kind``, centered and scaled to unit variance.

    Student's t5 is sampled as normal / sqrt(chi2_5 / 5) and the extreme
    value (Gumbel) distribution by the inverse CDF -ln(-ln U); both are
    exact constructions.  ``n`` is an integer from 1 to ``MAX_VALUES``.
    """
    n = count("n", n, 1, MAX_VALUES)
    kind = Distribution(kind)
    if kind is Distribution.UNIFORM:
        return (rng.random(n) - 0.5) * _UNIFORM_SCALE
    if kind is Distribution.NORMAL:
        return rng.standard_normal(n)
    if kind is Distribution.EXTREME_VALUE:
        u = rng.random(n)
        u[u == 0.0] = np.nextafter(0.0, 1.0)  # -ln(-ln u) needs u in (0, 1)
        g = -np.log(-np.log(u))
        return (g - np.euler_gamma) / _GUMBEL_SCALE
    if kind is Distribution.LAPLACE:
        return rng.laplace(0.0, 1.0, n) / math.sqrt(2.0)
    if kind is Distribution.STUDENT_T5:
        z = rng.standard_normal(n)
        v = rng.chisquare(5.0, n)
        return z / np.sqrt(v / 5.0) / _T5_SCALE
    if kind is Distribution.EXPONENTIAL:
        return rng.standard_exponential(n) - 1.0
    raise ValueError(f"unknown distribution: {kind!r}")
