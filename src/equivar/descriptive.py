"""The one-dataset input type and the moment kernels over stacked datasets.

A dataset enters the library as a :class:`GroupedSample`.  The kernels
take a stack of datasets with equal group sizes: a list whose entry i is
the (R, n_i) array of group i over R datasets, one dataset per row
(``GroupedSample.rows`` is the stack of one).  ``moment_rows`` gives the
sample variances and the pooled fourth and second central moments of
each row, and ``log_variance_rows`` the per-group var(ln s_i^2)
estimates and the standardized log-variance contrasts built from them,
which feed the kurtosis-adjusted log-variance test and the box-type
bootstrap test (``log_variance_t`` gives the contrasts' t ratios alone,
for bootstrap resamples).  ``moment_rows`` is one reduction per group
(``group_moments``) and one combine step (``pooled_moments``), so a
caller can reduce each group as it is drawn, in slices of rows, and
combine the (R,) summaries after.  Every per-group statistic is held as
group rows, a C-ordered (groups, R) array with one contiguous row per
group, and a sum across the groups is ``row_sum`` over the list of those
rows, in numpy's order for a C-ordered (R, groups) array.  The per-value
kernels, the group moments here and the Levene deviations, run a stack
of many short rows (``by_columns``) one whole column at a time, in
numpy's own order of operations, so the bits do not depend on the
stack's shape, and a row gives the same bits in a slice of any size.
``slice_rows`` bounds every large array the package draws: resample
batches, slices and ``critical``'s chunks of gamma variates.
"""

from __future__ import annotations

import numbers
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, NumericError

__all__ = [
    "GroupedSample",
    "LogVarianceContrasts",
    "log_variance_contrasts",
    "moment_rows",
    "log_variance_rows",
]

# numpy sums a row in blocks of up to 128 values (PW_BLOCKSIZE in
# numpy/_core/src/umath/loops_utils.h.src): a row of fewer than 8 values
# left to right from 0.0, one of 8 or more in 8 interleaved accumulators
# combined pairwise, and the row total is added to the reduction's 0.0.
# From 16 values the accumulators take more than one value each, which
# ``row_sum`` leaves to numpy.
_PAIRWISE_FROM, _ONE_PASS_BELOW = 8, 16

# The shape rule: a stack of at least this many rows of fewer than 16
# values runs the row kernels one whole column at a time.  numpy runs its
# inner loop once per row when it sums a row of 8 or more values, or
# broadcasts an (R, 1) column or a (k,) row against short rows; columns
# take one loop per column instead, at a fixed cost per call.  Measured on
# a 2-core Xeon with numpy 2.4.6 (``moment_rows``, ``log_variance_t`` and
# the Levene statistic on two groups), columns overtake rows at about 750
# to 1000 rows for groups of 5 to 10 values, and at 1500 to 2000 for 15.
# A one-dataset test's stack of b = 500 resamples stays with the rows.
_COLUMNS_FROM_ROWS = 1000

# Cap on the values in one drawn array: 5 * 2**15 float64 values, 1.25 MiB.
# ``slice_rows`` applies it to every large draw: a bootstrap test's batch of
# datasets x b x n resamples (at least one dataset); a slice of rows of one
# group's box resamples, or of bootstrap Levene's pooled resamples, when one
# dataset's are more; and a chunk of ``critical``'s gamma variates.  Sliced,
# run_all on two groups of 20 000 at b = 500 traces a 4.3 MiB peak, against
# 381.8 MiB drawn whole.  Each batch pays a fixed cost per kernel call, and
# on threads retakes the GIL after each one.
# Measured on a 2-core Xeon against 2**16: a laplace 4x40 cell at B=500
# (80 000 values a dataset) stacks two datasets, not one, and runs about 15%
# faster on 2 threads; the 36-cell null grid runs about 5% faster; peak RSS
# rises 4-7%.  2**17 leaves that cell at one dataset.  2**18 ran the null grid
# about 2% slower than 2**17 or this cap, and raised the traced peak of a
# 105-replication tally from 3.0-4.9 MB to 4.9-7.5 MB.
_RESAMPLE_ELEMENTS = 5 * 2**15

# Bounds on the largest |x - mean| of a group.  Fourth powers of the
# deviations then stay within 1e-288..1e288, far inside the normal float
# range, so pooled moments neither overflow nor lose digits to underflow.
_MIN_SPREAD, _MAX_SPREAD = 1e-72, 1e72


def _real_values(name, group) -> np.ndarray:
    """Group ``name`` as a float array; a group that is not a flat sequence of real numbers raises a DegenerateDataError.

    A one-dimensional numpy array of integer or float dtype is taken as it
    is; any other sequence only if each item is a real number
    (``numbers.Real``, not a bool), so booleans, strings, bytes and None
    are refused, not coerced.  A group that is not one-dimensional, an
    array of two or more dimensions or a sequence holding sequences or
    arrays, is refused, not flattened.
    """
    if isinstance(group, np.ndarray) and group.ndim != 1:
        raise DegenerateDataError(f"group {name!r} is not one-dimensional: an array of shape {group.shape}")
    if isinstance(group, np.ndarray) and group.dtype.kind in "iuf":
        return group.astype(float, copy=False).ravel()
    try:
        items = list(group)
        types = set(map(type, items))
        if all(issubclass(t, numbers.Real) and not issubclass(t, bool) for t in types):
            return np.asarray(items, dtype=float)
    except (TypeError, OverflowError):  # not a sequence; an int beyond the float range
        pass
    else:
        if any(issubclass(t, (list, tuple, np.ndarray)) for t in types):
            raise DegenerateDataError(f"group {name!r} is not one-dimensional: it holds a sequence")
    raise DegenerateDataError(f"group {name!r} holds a value that is not a real number in float range")


class GroupedSample:
    """Two or more groups of real observations: one dataset, as the one-dataset tests take it.

    ``groups`` is a sequence of groups, or a mapping from group label to
    group in the order the groups are to take; error messages name a group
    by its label, or else by its position.  Each group must hold at least
    two finite values so that its sample variance exists, and its largest
    deviation from the group mean must be zero or lie in [1e-72, 1e72],
    where the moment kernels are exact to rounding.
    """

    __slots__ = ("groups", "sizes")

    def __init__(self, groups):
        named = list(groups.items() if isinstance(groups, Mapping) else enumerate(groups))
        gs = tuple(_real_values(name, g) for name, g in named)
        if len(gs) < 2:
            raise DegenerateDataError(f"need at least two groups, got {len(gs)}")
        for (name, _), g in zip(named, gs):
            if g.size < 2:
                raise DegenerateDataError(f"group {name!r} has {g.size} observation(s); need at least two")
            if not np.all(np.isfinite(g)):
                raise DegenerateDataError(f"group {name!r} contains non-finite values")
            with np.errstate(over="ignore", invalid="ignore"):  # an overflowed spread is out of range
                spread = float(np.abs(g - g.mean()).max())
            if spread != 0.0 and not _MIN_SPREAD <= spread <= _MAX_SPREAD:
                raise DegenerateDataError(
                    f"group {name!r} deviates from its mean by up to {spread:.3g}; "
                    f"supported scales are {_MIN_SPREAD:g} to {_MAX_SPREAD:g}"
                )
        self.groups = gs
        self.sizes = tuple(int(g.size) for g in gs)

    @property
    def rows(self) -> list[np.ndarray]:
        """Each group as a (1, n_i) array: this dataset as a batch of one for the row kernels."""
        return [g[None, :] for g in self.groups]

    def __len__(self) -> int:
        return len(self.groups)

    def __repr__(self) -> str:
        return f"GroupedSample(sizes={self.sizes})"


@dataclass
class LogVarianceContrasts:
    contrast: np.ndarray   # ln s_i^2 centered at the mean log variance; sums to 0
    se: np.ndarray         # standard error of each contrast
    t: np.ndarray          # standardized contrasts, contrast / se


def by_columns(rows: int, n: int) -> bool:
    """The shape rule: whether a stack of ``rows`` rows of ``n`` values runs its kernels by columns."""
    return n < _ONE_PASS_BELOW and rows >= _COLUMNS_FROM_ROWS


def slice_rows(values_per_row: int) -> int:
    """Rows per drawn array: as many rows of ``values_per_row`` values as fit in ``_RESAMPLE_ELEMENTS``, at least one."""
    return max(1, _RESAMPLE_ELEMENTS // values_per_row)


def slices(stop: int, step: int) -> list[slice]:
    """The slices of at most ``step`` indices that cover ``range(stop)`` in order."""
    return [slice(lo, min(lo + step, stop)) for lo in range(0, stop, step)]


_row_sum_checked = False


def _check_row_sum() -> None:
    """Compare ``row_sum`` with numpy's ``x.sum(axis=1)`` on a fixed probe, once per process.

    The probe has 1 to 17 columns of values of mixed signs and magnitudes,
    at 1 and at 1000 rows, as arrays and as lists of columns, so it takes
    every branch.  A mismatch means that this numpy sums rows in another
    order than ``row_sum`` repeats, and raises a ``RuntimeError`` naming
    numpy's version.
    """
    global _row_sum_checked
    cells = np.arange(1000.0 * 17).reshape(1000, 17)
    probe = np.sin(cells * 0.7) * 10.0 ** (cells % 13 - 6)
    for rows in (1, 1000):
        for n in range(1, 18):
            x = np.ascontiguousarray(probe[:rows, :n])
            expected = x.sum(axis=1).tobytes()
            if _row_sum(x).tobytes() != expected or _row_sum(list(x.T.copy())).tobytes() != expected:
                raise RuntimeError(
                    f"row_sum does not repeat numpy {np.__version__}'s row sums ({rows} rows of {n} values); "
                    "numpy changed its summation order"
                )
    _row_sum_checked = True


def row_sum(x) -> np.ndarray:
    """``x.sum(axis=1)`` of an (R, n) array, bit for bit, in whole-column adds when rows are short.

    ``x`` may also be a list of n (R,) arrays: the columns of an array,
    or the group rows of a per-group statistic, summed across the groups
    as numpy sums the C-ordered (R, n) array they make.  numpy
    reduces a short row on its own, one call per row, which dominates the
    cost on rows of a few values.  Below 8 values its order is a left to
    right sum from 0.0 (not from the first value: an all -0.0 row sums to
    +0.0), which adding the columns in turn into a zero vector repeats.
    From 8 to 15 values it is ((c0+c1)+(c2+c3)) + ((c4+c5)+(c6+c7)), then
    the remaining values left to right, then the total added to 0.0.  An
    array takes the columns below 8 values or under the shape rule, and
    numpy's own sum otherwise; 16 or more columns are stacked for numpy.
    A Fortran-ordered array, whose columns numpy adds in turn, goes to
    numpy's own sum.  The first call in a process checks these orders
    against numpy's (``_check_row_sum``).
    """
    if not _row_sum_checked:
        _check_row_sum()
    return _row_sum(x)


def _row_sum(x) -> np.ndarray:
    """``row_sum`` without the check of the first call."""
    if isinstance(x, list):
        if len(x) >= _ONE_PASS_BELOW:
            return np.stack(x, axis=1).sum(axis=1)
        cols = x
    elif (x.shape[1] < _PAIRWISE_FROM or by_columns(*x.shape)) and not np.isfortran(x):
        cols = [x[:, j] for j in range(x.shape[1])]
    else:
        return x.sum(axis=1)
    if len(cols) < _PAIRWISE_FROM:
        total = np.zeros(len(x[0]) if cols is x else x.shape[0])
        for c in cols:
            total += c
        return total
    total = cols[0] + cols[1]
    total += cols[2] + cols[3]
    upper = cols[4] + cols[5]
    upper += cols[6] + cols[7]
    total += upper
    for c in cols[_PAIRWISE_FROM:]:
        total += c
    total += 0.0
    return total


def running_sum(x, out=None):
    """The sums along the last axis of ``x``, each value added in turn and the total to 0.0.

    ``out``, of x's shape, is optional scratch for the running sums.  numpy
    reduces an axis that is not innermost in memory, such as
    ``mean(axis=0)`` of a C-ordered batch or the middle axis of an (R, b, k)
    stack, one whole slice after another into its result, so each value of
    the result is a left to right sum; a pairwise ``sum`` along the last
    axis differs.  Adding 0.0 turns an all -0.0 sum into +0.0, as numpy's
    zero start does.
    """
    return np.add.accumulate(x, axis=-1, out=out)[..., -1] + 0.0


def centred(x, centre: np.ndarray):
    """x minus ``centre``, (R,), along each row; under the shape rule, as the list of its columns.

    ``x`` is an (R, n) array or the list of its columns.  The values are
    those of ``x - centre[:, None]``; by columns, the (R, 1) broadcast and
    its per-row loop are spared.
    """
    if isinstance(x, list):
        return [c - centre for c in x]
    if by_columns(*x.shape):
        return [x[:, j] - centre for j in range(x.shape[1])]
    return x - centre[:, None]


def in_place(ufunc: np.ufunc, x):
    """``ufunc(x, x)`` (binary) or ``ufunc(x)`` written over x, an array or a list of columns; returns x."""
    for part in x if isinstance(x, list) else [x]:
        ufunc(*(part,) * ufunc.nin, out=part)
    return x


def group_moments(x) -> tuple[np.ndarray, np.ndarray]:
    """One group's part of ``moment_rows``: per row of x, (R, n), the within sum of squares and the sum of fourth powers.

    The deviations are from each row's mean, squared, and squared again,
    in place, by columns under the shape rule (``centred``).
    """
    dev = centred(x, row_sum(x) / x.shape[1])
    within = row_sum(in_place(np.multiply, dev))
    return within, row_sum(in_place(np.multiply, dev))


def pooled_moments(sizes, parts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``moment_rows`` of groups of ``sizes`` from each group's ``group_moments``, ``parts``, in group order."""
    s2 = np.empty((len(sizes), len(parts[0][0])))
    ss2 = ss4 = 0.0
    for i, (size, (within, fourth)) in enumerate(zip(sizes, parts)):
        s2[i] = within / (size - 1)
        ss2 = ss2 + within
        ss4 = ss4 + fourth
    return s2, ss4 / sum(sizes), ss2 / sum(sizes)


def moment_rows(groups) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample variances and pooled central moments of datasets stacked row-wise.

    ``groups[i]`` is an (R, n_i) array holding group i of R datasets; one
    dataset is the case R = 1.  Returns the sample variances s2 as group
    rows, shape (groups, R), with divisor n_i - 1, and the fourth and
    second central moments about the group means, mu4 and sigma2, shape
    (R,), pooled over groups with divisor n.  Every sum runs along a
    dataset's values in the same order whatever R is (``row_sum``), so a
    dataset's values do not depend on the other rows: ``pooled_moments``
    of the ``group_moments`` of any slices of rows, joined, gives the same
    bits.
    """
    return pooled_moments([g.shape[1] for g in groups], [group_moments(g) for g in groups])


def _contrast_rows(sizes, use_harmonic: bool, moments):
    """Kurtosis ratios, sizes m, var(ln s_i^2) and contrasts of each row from its moments; see ``log_variance_rows``.

    Each per-group result is computed as group rows, (groups, R): the
    (R,) kurtosis ratios broadcast along each group's row, and the mean
    log variance and the summed var(ln s_i^2) are ``row_sum`` over the
    list of group rows.
    """
    s2, mu4, sigma2 = moments
    m = np.asarray(sizes, dtype=float)
    if use_harmonic:
        m = np.full(len(m), len(m) / float((1.0 / m).sum()))
    k = len(sizes)
    with np.errstate(divide="ignore", invalid="ignore"):  # undefined rows
        kurt = mu4 / (sigma2 * sigma2)
        log_s2 = np.log(s2)
        var_log_s2 = (kurt - ((m - 3.0) / m)[:, None]) / (m - 1.0)[:, None]
        contrast = log_s2 - row_sum(list(log_s2)) / k
        se = np.sqrt((1.0 - 2.0 / k) * var_log_s2 + row_sum(list(var_log_s2)) / k**2)
        t = contrast / se
    return kurt, m, var_log_s2, LogVarianceContrasts(contrast, se, t)


def log_variance_t(sizes, moments) -> np.ndarray:
    """The contrasts' t ratios, as group rows, from ``moments``, the ``moment_rows`` of groups of ``sizes``.

    They are ``log_variance_rows(groups)[0].t`` without the error mapping:
    an undefined row has a non-finite entry.
    """
    return _contrast_rows(sizes, False, moments)[-1].t


def log_variance_rows(groups, use_harmonic: bool = False, moments=None):
    """Log-variance contrasts of datasets stacked row-wise, as in ``moment_rows``.

    var(ln s_i^2) is estimated as [mu4/sigma2^2 - (m-3)/m] / (m-1), where
    m is the harmonic mean group size when ``use_harmonic`` is set (the
    convention of the kurtosis-adjusted chi-square test, making the
    estimate identical across groups) and the group's own size otherwise.
    Returns (contrasts, var_log_s2, errors): ``contrasts`` and the
    estimates ``var_log_s2`` hold group rows, (groups, R) arrays; ``errors``
    maps each row on which the contrasts are undefined to the exception a
    one-dataset call raises.  ``moments`` is ``moment_rows(groups)``,
    when the caller has it already.
    """
    moments = moment_rows(groups) if moments is None else moments
    kurt, m, var_log_s2, contrasts = _contrast_rows([g.shape[1] for g in groups], use_harmonic, moments)
    s2 = moments[0]
    # the first zero-variance group of each undefined row, without a per-row loop
    zero = s2 <= 0.0
    undefined = zero.any(axis=0)
    rows = np.flatnonzero(undefined)
    errors: dict[int, Exception] = {
        r: DegenerateDataError(f"group {i} has zero sample variance; log variance undefined")
        for r, i in zip(rows.tolist(), zero[:, rows].argmax(axis=0).tolist())
    }
    for r in np.flatnonzero(~undefined & ~(var_log_s2 > 0.0).all(axis=0)):
        # kurt >= 1 by Cauchy-Schwarz while the pooled moments are exact, as
        # the scale bounds ensure for observed data; a resample of such data
        # can still lose its fourth powers to underflow (mu4 = 0)
        errors[int(r)] = NumericError(
            f"nonpositive var(ln s^2) estimate: kurtosis ratio {float(kurt[r]):.6g}, sizes {m.tolist()}"
        )
    return contrasts, var_log_s2, errors


def log_variance_contrasts(data: GroupedSample) -> LogVarianceContrasts:
    """Centered log sample variances, their standard errors, and t ratios.

    The contrast for group i is ln s_i^2 minus the mean log variance
    (equivalently, the log of s_i^2 over the geometric mean variance).
    Standard errors combine the per-group var(ln s_i^2) estimates with the
    weights induced by the centering.
    """
    rows, _, errors = log_variance_rows(data.rows)
    if errors:
        raise errors[0]
    return LogVarianceContrasts(rows.contrast[:, 0], rows.se[:, 0], rows.t[:, 0])
