"""Dirichlet sampling and normal-theory calibration of the acceptance box.

Under normality with equal variances, the vector of normalized weighted
sample variances is Dirichlet with shapes (n_i - 1) / 2.  The zero-sum log
contrasts of that vector drive an exact box-type acceptance region; the
half-width that gives the region 1 - alpha coverage is calibrated here by
Monte Carlo, as the order statistic of the row maxima that
``bootstrap.box_rank`` picks for the bootstrap box too.

Draws are kept in one layout, coordinate rows: a (groups, size) array
with one contiguous row per coordinate, so every pass of the calibration
runs along rows of ``size`` values.  ``sample_dirichlet`` returns their
transpose, one vector per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import box_rank
from .descriptive import row_sum, running_sum, slice_rows, slices
from .errors import MAX_VALUES, NumericError, checked_tuple, count, is_real, level

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
        """Shapes (n_i - 1) / 2 for normal groups of the given sizes, two or more integers of at least 2 each."""
        sizes = [count(f"sizes[{i}]", s, 2) for i, s in enumerate(sizes)]
        if len(sizes) < 2:
            raise ValueError(f"need at least two group sizes, got {sizes}")
        beyond = [s for s in sizes if not is_real(s)]
        if beyond:
            raise ValueError(f"group size {beyond[0]} is beyond the float range")
        return cls(tuple((s - 1) / 2.0 for s in sizes))


def _gamma_rows(nu: tuple[float, ...], rng: np.random.Generator, size: int) -> np.ndarray:
    """A C-ordered (size, groups) array of Gamma(nu_i, 1) variates; equal shapes draw with the one scalar shape.

    The scalar shape gives the variates of the broadcast shape array, faster.
    """
    if len(set(nu)) == 1:
        return rng.standard_gamma(nu[0], size=(size, len(nu)))
    return rng.standard_gamma(np.broadcast_to(nu, (size, len(nu))))


def _dirichlet_rows(nu: tuple[float, ...], rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` Dirichlet vectors as a (groups, size) array, one contiguous row per coordinate.

    The ``_gamma_rows`` draws come in chunks of at most
    ``slice_rows(groups)`` vectors, in stream order, and each chunk is
    divided by its totals, ``row_sum`` of its rows, the order in which
    numpy adds the values of each row of the C-ordered draws, straight
    into its columns of the result.  So the vectors are
    ``g / g.sum(axis=1, keepdims=True)`` of the whole draws bit for bit,
    and no whole-length copy of the draws is held.  A vector whose gamma
    variates all underflowed to 0, which shapes far below 1 make common,
    or whose total overflowed, which shapes near the float maximum do,
    raises ``NumericError`` naming the shapes.
    """
    rows = np.empty((len(nu), size))
    for part in slices(size, slice_rows(len(nu))):
        g = _gamma_rows(nu, rng, part.stop - part.start)
        with np.errstate(over="ignore"):  # an infinite total is reported below
            total = row_sum(g)
        if total.max() == math.inf:
            raise NumericError(f"the gamma variates of a Dirichlet row overflowed their float sum at shapes {nu}")
        if total.min() == 0.0:
            raise NumericError(f"every gamma variate of a Dirichlet row underflowed to 0 at shapes {nu}")
        np.divide(g.T, total, out=rows[:, part])
        del g  # before the next chunk is drawn: holding two chunks raised the peak RSS of `critical` by 1.5 MB
    return rows


def sample_dirichlet(params: DirichletParams, rng: np.random.Generator, size: int):
    """Draw a C-ordered (size, groups) matrix of Dirichlet vectors by normalizing Gamma(nu_i, 1) variates.

    ``size`` is an integer from 1 to ``MAX_VALUES // groups``.  The result is
    ``g / g.sum(axis=1, keepdims=True)`` bit for bit.  A row whose gamma
    variates all underflow to 0, or whose total overflows, raises
    ``NumericError``.
    """
    size = count("size", size, 1, MAX_VALUES // len(params.nu))
    return np.ascontiguousarray(_dirichlet_rows(params.nu, rng, size).T)


def log_contrast(x) -> np.ndarray:
    """Zero-sum log contrasts ln x_i - mean_j ln x_j of finite positive vectors.

    Operates on the last axis, so a batch of simplex draws maps to a batch
    of contrast vectors: ``lx - lx.mean(axis=-1, keepdims=True)`` with
    ``lx = ln x``.  ``x`` is left unmodified.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError("log contrasts need at least one component along the last axis")
    with np.errstate(invalid="ignore"):  # a NaN makes min and max NaN, which fails the comparisons
        positive = 0.0 < x.min() <= x.max() < math.inf
    if not positive:
        raise ValueError("log contrasts require finite, strictly positive components")
    lx = np.log(x)
    return lx - lx.mean(axis=-1, keepdims=True)


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

    The Dirichlet draws are those of ``sample_dirichlet``, kept as
    coordinate rows of ``draws`` values; the log contrasts, the mean and
    standard deviation (numpy's ``mean(axis=0)`` and ``std(axis=0,
    ddof=1)`` bit for bit) and the row maxima all run along those rows.  A
    component that underflows to 0 raises ``NumericError``, naming the
    shapes.  ``draws`` passes the count rule (``errors.count``) from 1000
    to ``MAX_VALUES // groups`` and ``alpha`` the level rule
    (``errors.level``); an alpha whose box would be no draw (alpha = 1) or
    the largest draw, covering every draw, is refused.
    """
    draws = count("draws", draws, 1000, MAX_VALUES // len(params.nu))
    alpha = level(alpha)
    rank = box_rank(draws, alpha)
    # alpha = 1 gives rank -1, no box; the largest draw covers every draw whatever alpha is
    if not 0 <= rank < draws - 1:
        raise ValueError(
            f"alpha {alpha} leaves no box among {draws} draws: the box would cover every draw or none; "
            "use an alpha below 1, and more draws for a smaller one"
        )
    nu = params.nu
    rows = _dirichlet_rows(nu, rng, draws)
    if rows.min() == 0.0:
        raise NumericError(
            f"{np.count_nonzero(rows == 0.0)} Dirichlet components underflowed to 0 at shapes {nu}; "
            "their log contrasts are undefined"
        )
    np.log(rows, out=rows)
    # the log-contrast centres go into the scratch row: dividing into a second (draws,) array raised peak RSS 0.6 MB
    buf = row_sum(list(rows))
    buf /= len(rows)
    rows -= buf
    # numpy's own mean and std(ddof=1) steps, the mean taken once
    mean = np.array([running_sum(r, buf) for r in rows]) / draws
    rows -= mean[:, None]
    sd = np.sqrt(np.array([running_sum(np.multiply(r, r, out=buf), buf) for r in rows]) / (draws - 1))
    if not np.all(np.isfinite(sd)) or np.any(sd <= 0.0):
        raise NumericError(f"degenerate contrast spread in calibration: {sd}")
    rows /= sd[:, None]
    # into the scratch row: a fresh (draws,) array here raised the peak RSS of repeated calls by about 1 MB
    row_max = np.maximum.reduce(np.abs(rows, out=rows), axis=0, out=buf)
    row_max.sort()
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
