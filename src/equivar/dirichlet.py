"""Dirichlet sampling and normal-theory calibration of the acceptance box.

Under normality with equal variances, the vector of normalized weighted
sample variances is Dirichlet with shapes (n_i - 1) / 2.  The zero-sum log
contrasts of that vector drive an exact box-type acceptance region; the
half-width that gives the region 1 - alpha coverage is calibrated here by
Monte Carlo, as the order statistic of the row maxima that
``bootstrap.box_rank`` picks for the bootstrap box too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import box_rank
from .descriptive import column_reduce, row_sum
from .errors import NumericError, checked_tuple, is_int, is_real

__all__ = [
    "DirichletParams",
    "NormalTheoryBox",
    "sample_dirichlet",
    "log_contrast",
    "calibrate_box",
]


@dataclass(frozen=True)
class DirichletParams:
    """Shape parameters, one per group: a sequence of finite positive real numbers (booleans are not)."""

    nu: tuple[float, ...]

    def __post_init__(self):
        nu = checked_tuple("shape parameters", self.nu, is_real, "finite real numbers")
        object.__setattr__(self, "nu", tuple(float(v) for v in nu))
        if len(self.nu) < 2:
            raise ValueError("need at least two shape parameters")
        if any(v <= 0.0 for v in self.nu):
            raise ValueError(f"shape parameters must be positive, got {self.nu}")

    @classmethod
    def from_group_sizes(cls, sizes) -> "DirichletParams":
        """Shapes (n_i - 1) / 2 for normal groups of the given integer sizes."""
        sizes = list(sizes)
        if not all(is_int(s) for s in sizes):
            raise ValueError(f"group sizes must be integers, got {sizes}")
        if any(s < 2 for s in sizes):
            raise ValueError(f"group sizes must be at least 2, got {sizes}")
        return cls(tuple((s - 1) / 2.0 for s in sizes))


def sample_dirichlet(params: DirichletParams, rng: np.random.Generator, size: int):
    """Draw a (size, groups) matrix of Dirichlet vectors by normalizing Gamma(nu_i, 1) variates.

    ``size`` is an integer of at least 1.  Equal shapes are drawn with the
    one scalar shape, which gives the same variates as the broadcast shape
    array, faster.  Each row is divided by its ``row_sum``, so the result is
    ``g / g.sum(axis=1, keepdims=True)`` bit for bit.  A row whose gamma
    variates all underflow to 0, which shapes far below 1 make common,
    cannot be normalized: it raises ``NumericError``.
    """
    if not is_int(size) or size < 1:
        raise ValueError(f"size must be an integer of at least 1, got {size!r}")
    nu = params.nu
    if len(set(nu)) == 1:
        g = rng.standard_gamma(nu[0], size=(size, len(nu)))
    else:
        g = rng.standard_gamma(np.broadcast_to(nu, (size, len(nu))))
    total = row_sum(g)
    if not total.all():
        raise NumericError(f"every gamma variate of a Dirichlet row underflowed to 0 at shapes {nu}")
    g /= total[:, None]
    return g


def log_contrast(x) -> np.ndarray:
    """Zero-sum log contrasts ln x_i - mean_j ln x_j of finite positive vectors.

    Operates on the last axis, so a batch of simplex draws maps to a batch
    of contrast vectors.  The mean is ``row_sum / k`` over the vectors laid
    out as rows in the memory order of ``ln x``, which is
    ``mean(axis=-1)`` bit for bit; ``x`` is left unmodified.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError("log contrasts need at least one component along the last axis")
    if not (np.all(x > 0.0) and np.all(np.isfinite(x))):
        raise ValueError("log contrasts require finite, strictly positive components")
    lx = np.log(x)
    order = "F" if np.isfortran(lx) else "C"
    rows = lx.reshape(-1, lx.shape[-1], order=order)  # a view unless lx has neither layout
    rows -= (row_sum(rows) / rows.shape[1])[:, None]
    return rows.reshape(lx.shape, order=order)


@dataclass
class NormalTheoryBox:
    mean: np.ndarray          # Monte Carlo means of the contrast coordinates
    sd: np.ndarray            # Monte Carlo standard deviations
    half_width: float         # calibrated box half-width in standardized units
    shape_offset: np.ndarray  # ln(nu_i / geometric mean nu_j), the contrast offsets
    coverage: float           # achieved Monte Carlo coverage at half_width
    half_width_se: float      # spacing-based standard error of the quantile


def calibrate_box(
    params: DirichletParams, alpha: float, draws: int, rng: np.random.Generator
) -> NormalTheoryBox:
    """Monte Carlo calibration of the exact-normal acceptance box.

    Draws log contrasts of Dirichlet samples, standardizes each coordinate
    by its Monte Carlo mean and standard deviation, and returns the
    empirical 1 - alpha quantile of the max absolute standardized
    coordinate: the smallest half-width whose box reaches the target
    coverage, the row maximum of rank ``box_rank(draws, alpha)``.

    The mean and standard deviation are numpy's ``mean(axis=0)`` and
    ``std(axis=0, ddof=1)`` bit for bit, and the row maxima are taken over
    whole columns; ``draws`` is an integer of at least 1000.
    """
    if not is_int(draws):
        raise ValueError(f"draws must be an integer, got {draws!r}")
    if draws < 1000:
        raise ValueError(f"need at least 1000 draws for calibration, got {draws}")
    if not is_real(alpha):
        raise ValueError(f"alpha must be a finite real number, got {alpha!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    w = log_contrast(sample_dirichlet(params, rng, size=draws))
    # numpy's own mean and std(ddof=1) steps, the mean taken once: the
    # axis-0 sums add the rows in turn, as w.mean and w.std do
    mean = w.sum(axis=0) / draws
    w -= mean
    sd = np.sqrt((w * w).sum(axis=0) / (draws - 1))
    if not np.all(np.isfinite(sd)) or np.any(sd <= 0.0):
        raise NumericError(f"degenerate contrast spread in calibration: {sd}")
    w /= sd
    row_max = column_reduce(np.maximum, np.abs(w, out=w))
    row_max.sort()
    rank = box_rank(draws, alpha)
    c = float(row_max[rank])
    coverage = float(np.searchsorted(row_max, c, side="right") / draws)
    # Quantile standard error from the spacing of nearby order statistics.
    k = max(1, round(math.sqrt(draws)))
    lo_i = max(0, rank - k)
    hi_i = min(draws - 1, rank + k)
    gap = float(row_max[hi_i] - row_max[lo_i])
    density = (hi_i - lo_i) / draws / gap if gap > 0.0 else math.inf
    se = math.sqrt(alpha * (1.0 - alpha) / draws) / density if math.isfinite(density) else 0.0
    nu = np.asarray(params.nu)
    shape_offset = np.log(nu) - np.log(nu).mean()
    return NormalTheoryBox(mean, sd, c, shape_offset, coverage, se)
