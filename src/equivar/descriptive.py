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
for bootstrap resamples).
"""

from __future__ import annotations

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

# Bounds on the largest |x - mean| of a group.  Fourth powers of the
# deviations then stay within 1e-288..1e288, far inside the normal float
# range, so pooled moments neither overflow nor lose digits to underflow.
_MIN_SPREAD, _MAX_SPREAD = 1e-72, 1e72


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
        gs = tuple(np.asarray(g, dtype=float).ravel() for _, g in named)
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


def moment_rows(groups) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample variances and pooled central moments of datasets stacked row-wise.

    ``groups[i]`` is an (R, n_i) array holding group i of R datasets; one
    dataset is the case R = 1.  Returns the sample variances s2, shape
    (R, groups), with divisor n_i - 1, and the fourth and second central
    moments about the group means, mu4 and sigma2, shape (R,), pooled over
    groups with divisor n.  Every sum runs along a row in the same order
    whatever R is, so a row's values do not depend on the other rows.
    """
    n = sum(g.shape[1] for g in groups)
    s2 = np.empty((groups[0].shape[0], len(groups)))
    ss2 = ss4 = 0.0
    for i, g in enumerate(groups):
        dev = g - g.mean(axis=1, keepdims=True)
        d2 = dev * dev
        within = d2.sum(axis=1)
        s2[:, i] = within / (g.shape[1] - 1)
        ss2 = ss2 + within
        ss4 = ss4 + (d2 * d2).sum(axis=1)
    return s2, ss4 / n, ss2 / n


def _contrast_rows(groups, use_harmonic: bool):
    """Moments, kurtosis ratios, sizes m, var(ln s_i^2) and contrasts of each row; see ``log_variance_rows``."""
    s2, mu4, sigma2 = moment_rows(groups)
    m = np.asarray([g.shape[1] for g in groups], dtype=float)
    if use_harmonic:
        m = np.full(len(m), len(m) / float((1.0 / m).sum()))
    count = len(groups)
    with np.errstate(divide="ignore", invalid="ignore"):  # undefined rows
        kurt = mu4 / (sigma2 * sigma2)
        var_log_s2 = (kurt[:, None] - (m - 3.0) / m) / (m - 1.0)
        log_s2 = np.log(s2)
        contrast = log_s2 - log_s2.mean(axis=1, keepdims=True)
        se = np.sqrt((1.0 - 2.0 / count) * var_log_s2 + var_log_s2.sum(axis=1, keepdims=True) / count**2)
        t = contrast / se
    return s2, kurt, m, var_log_s2, LogVarianceContrasts(contrast, se, t)


def log_variance_t(groups) -> np.ndarray:
    """``log_variance_rows(groups)[0].t`` without the error mapping: an undefined row has a non-finite entry."""
    return _contrast_rows(groups, False)[-1].t


def log_variance_rows(groups, use_harmonic: bool = False):
    """Log-variance contrasts of datasets stacked row-wise, as in ``moment_rows``.

    var(ln s_i^2) is estimated as [mu4/sigma2^2 - (m-3)/m] / (m-1), where
    m is the harmonic mean group size when ``use_harmonic`` is set (the
    convention of the kurtosis-adjusted chi-square test, making the
    estimate identical across groups) and the group's own size otherwise.
    Returns (contrasts, var_log_s2, errors): ``contrasts`` and the
    estimates ``var_log_s2`` hold (R, groups) arrays; ``errors`` maps each
    row on which the contrasts are undefined to the exception a
    one-dataset call raises.
    """
    s2, kurt, m, var_log_s2, contrasts = _contrast_rows(groups, use_harmonic)
    # the first zero-variance group of each undefined row, without a per-row loop
    zero = s2 <= 0.0
    undefined = zero.any(axis=1)
    rows = np.flatnonzero(undefined)
    errors: dict[int, Exception] = {
        r: DegenerateDataError(f"group {i} has zero sample variance; log variance undefined")
        for r, i in zip(rows.tolist(), zero[rows].argmax(axis=1).tolist())
    }
    for r in np.flatnonzero(~undefined & ~(var_log_s2 > 0.0).all(axis=1)):
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
    return LogVarianceContrasts(rows.contrast[0], rows.se[0], rows.t[0])
