"""Dirichlet sampling and normal-theory calibration of the acceptance box.

Under normality with equal variances, the vector of normalized weighted
sample variances is Dirichlet with shapes (n_i - 1) / 2.  The zero-sum log
contrasts of that vector drive an exact box-type acceptance region; the
half-width that gives the region 1 - alpha coverage is calibrated here by
Monte Carlo, as the order statistic of the row maxima that
``bootstrap.box_rank`` picks for the bootstrap box too.

The normalization and the log-contrast centring each take a 2-D array and
the axis of its coordinates: the public functions pass a batch with one
vector per row, ``calibrate_box`` a coordinate-major copy, one contiguous
row per coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import box_rank
from .descriptive import row_sum
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


def _gamma_rows(nu: tuple[float, ...], rng: np.random.Generator, size: int) -> np.ndarray:
    """A C-ordered (size, groups) array of Gamma(nu_i, 1) variates; equal shapes draw with the one scalar shape.

    The scalar shape gives the variates of the broadcast shape array, faster.
    """
    if len(set(nu)) == 1:
        return rng.standard_gamma(nu[0], size=(size, len(nu)))
    return rng.standard_gamma(np.broadcast_to(nu, (size, len(nu))))


def _coordinate_sums(x: np.ndarray, axis: int) -> np.ndarray:
    """The sum of each vector's coordinates, which run along ``axis`` of the 2-D ``x``, as numpy's ``sum`` adds them.

    numpy adds the k values of a vector pairwise when they are adjacent in
    memory, as in a C-ordered batch; ``row_sum`` repeats that order on such
    a batch, and on the list of the coordinate rows of its coordinate-major
    copy (axis 0).  It adds the columns of a Fortran-ordered batch in turn.
    """
    if axis == 0:
        return row_sum(list(x))
    return x.sum(axis=1) if np.isfortran(x) else row_sum(x)


def _normalize(g: np.ndarray, axis: int, nu: tuple[float, ...]) -> None:
    """Divide each vector of gamma variates, its coordinates along ``axis`` of the 2-D ``g``, by its sum, in place.

    A vector whose gamma variates all underflowed to 0, which shapes far
    below 1 make common, cannot be normalized: it raises ``NumericError``.
    """
    total = _coordinate_sums(g, axis)
    if not total.all():
        raise NumericError(f"every gamma variate of a Dirichlet row underflowed to 0 at shapes {nu}")
    g /= np.expand_dims(total, axis)


def _centre(lx: np.ndarray, axis: int) -> None:
    """Replace logs, each vector's coordinates along ``axis`` of the 2-D ``lx``, by their zero-sum contrasts, in place."""
    mean = _coordinate_sums(lx, axis)
    mean /= lx.shape[axis]
    lx -= np.expand_dims(mean, axis)


def _running_sum(row: np.ndarray, buf: np.ndarray) -> np.float64:
    """``row`` added in turn to 0.0 in the scratch ``buf`` (may be ``row``): numpy's axis-0 sum order for a C-ordered array."""
    return np.add.accumulate(row, out=buf)[-1] + 0.0


def sample_dirichlet(params: DirichletParams, rng: np.random.Generator, size: int):
    """Draw a C-ordered (size, groups) matrix of Dirichlet vectors by normalizing Gamma(nu_i, 1) variates.

    ``size`` is an integer of at least 1.  Each row is divided by its
    ``row_sum``, so the result is ``g / g.sum(axis=1, keepdims=True)`` bit
    for bit.  A row whose gamma variates all underflow to 0 raises
    ``NumericError``.
    """
    if not is_int(size) or size < 1:
        raise ValueError(f"size must be an integer of at least 1, got {size!r}")
    g = _gamma_rows(params.nu, rng, size)
    _normalize(g, 1, params.nu)
    return g


def log_contrast(x) -> np.ndarray:
    """Zero-sum log contrasts ln x_i - mean_j ln x_j of finite positive vectors.

    Operates on the last axis, so a batch of simplex draws maps to a batch
    of contrast vectors.  The result is ``lx - lx.mean(axis=-1,
    keepdims=True)`` bit for bit for every memory layout of ``lx = ln x``:
    the vectors are laid out as the rows of a C-ordered batch when their
    coordinates are innermost in memory and of a Fortran-ordered one when
    not, numpy's two summation orders.  ``x`` is left unmodified.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError("log contrasts need at least one component along the last axis")
    with np.errstate(invalid="ignore"):  # a NaN makes min and max NaN, which fails the comparisons
        positive = 0.0 < x.min() <= x.max() < math.inf
    if not positive:
        raise ValueError("log contrasts require finite, strictly positive components")
    lx = np.log(x)
    k = lx.shape[-1]
    inner = all(n == 1 or abs(s) > abs(lx.strides[-1]) for n, s in zip(lx.shape[:-1], lx.strides[:-1]))
    order = "C" if inner else "F"
    rows = lx.reshape(-1, k, order=order)  # a view when lx has that layout
    _centre(rows, 1)
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

    The gamma draws are those of ``sample_dirichlet``, copied once into
    coordinate rows of ``draws`` values; the normalization, the log
    contrasts, the mean and standard deviation (numpy's ``mean(axis=0)``
    and ``std(axis=0, ddof=1)`` bit for bit) and the row maxima all run
    along those rows.  A component that underflows to 0 raises
    ``NumericError``, naming the shapes.  ``draws`` is an integer of at
    least 1000.
    """
    if not is_int(draws):
        raise ValueError(f"draws must be an integer, got {draws!r}")
    if draws < 1000:
        raise ValueError(f"need at least 1000 draws for calibration, got {draws}")
    if not is_real(alpha):
        raise ValueError(f"alpha must be a finite real number, got {alpha!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    nu = params.nu
    # One transposed copy of the draws, then every pass runs over contiguous
    # coordinate rows of ``draws`` values; the C-ordered draws are freed at once.
    rows = np.ascontiguousarray(_gamma_rows(nu, rng, draws).T)
    _normalize(rows, 0, nu)
    if rows.min() == 0.0:
        raise NumericError(
            f"{np.count_nonzero(rows == 0.0)} Dirichlet components underflowed to 0 at shapes {nu}; "
            "their log contrasts are undefined"
        )
    np.log(rows, out=rows)
    _centre(rows, 0)
    # numpy's own mean and std(ddof=1) steps, the mean taken once
    buf = np.empty(draws)
    mean = np.array([_running_sum(r, buf) for r in rows]) / draws
    rows -= mean[:, None]
    sd = np.sqrt(np.array([_running_sum(np.multiply(r, r, out=buf), buf) for r in rows]) / (draws - 1))
    if not np.all(np.isfinite(sd)) or np.any(sd <= 0.0):
        raise NumericError(f"degenerate contrast spread in calibration: {sd}")
    rows /= sd[:, None]
    # into the scratch row: a fresh (draws,) array here raised the peak RSS of repeated calls by about 1 MB
    row_max =np.maximum.reduce(np.abs(rows, out=rows), axis=0, out=buf)
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
    nu = np.asarray(nu)
    shape_offset = np.log(nu) - np.log(nu).mean()
    return NormalTheoryBox(mean, sd, c, shape_offset, coverage, se)
