"""The grouped sample that every test takes, and the shared moment estimators.

The moment machinery here feeds both the kurtosis-adjusted log-variance
test and the box-type bootstrap test: a pooled fourth central moment, a
pooled variance, per-group estimates of var(ln s_i^2), and the
standardized log-variance contrasts built from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, NumericError

__all__ = [
    "GroupedSample",
    "MomentEstimates",
    "LogVarianceContrasts",
    "estimate_moments",
    "log_variance_contrasts",
    "stack",
    "moment_rows",
    "log_variance_rows",
]


class GroupedSample:
    """Two or more groups of real observations, the input to every test.

    Each group must hold at least two finite values so that its sample
    variance exists.  ``k`` is one less than the number of groups, i.e. the
    numerator degrees of freedom of the classical one-way comparisons.
    """

    __slots__ = ("groups", "sizes", "n", "k")

    def __init__(self, groups):
        gs = tuple(np.asarray(g, dtype=float).ravel() for g in groups)
        if len(gs) < 2:
            raise DegenerateDataError(f"need at least two groups, got {len(gs)}")
        for i, g in enumerate(gs):
            if g.size < 2:
                raise DegenerateDataError(f"group {i} has {g.size} observation(s); need at least two")
            if not np.all(np.isfinite(g)):
                raise DegenerateDataError(f"group {i} contains non-finite values")
        self.groups = gs
        self.sizes = tuple(int(g.size) for g in gs)
        self.n = int(sum(self.sizes))
        self.k = len(gs) - 1

    def __len__(self) -> int:
        return len(self.groups)

    def __repr__(self) -> str:
        return f"GroupedSample(sizes={self.sizes})"


@dataclass
class MomentEstimates:
    mu4: float                # pooled fourth central moment about the group means
    sigma2: float             # pooled variance, n divisor
    var_log_s2: np.ndarray    # estimated var(ln s_i^2) per group
    harmonic_n: float         # harmonic mean of the group sizes


@dataclass
class LogVarianceContrasts:
    contrast: np.ndarray   # ln s_i^2 centered at the mean log variance; sums to 0
    se: np.ndarray         # standard error of each contrast
    t: np.ndarray          # standardized contrasts, contrast / se


def stack(datasets) -> list[np.ndarray]:
    """Group i of every dataset as one (R, n_i) array; the datasets share their group sizes."""
    return [np.stack(column) for column in zip(*(d.groups for d in datasets))]


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


def _var_log_s2(kurt, m):
    # var(ln s^2) estimated as [mu4/sigma2^2 - (m-3)/m] / (m-1) for group size m
    return (kurt - (m - 3.0) / m) / (m - 1.0)


def _moment_sizes(sizes, use_harmonic: bool) -> tuple[np.ndarray, float]:
    """Group sizes m entering var(ln s_i^2), and the harmonic mean group size."""
    sizes = np.asarray(sizes, dtype=float)
    harmonic_n = len(sizes) / float((1.0 / sizes).sum())
    return (np.full(len(sizes), harmonic_n) if use_harmonic else sizes), harmonic_n


def _nonpositive_var(kurt: float, m: np.ndarray) -> NumericError:
    # unreachable for kurt >= 1, which Cauchy-Schwarz guarantees; kept as a tripwire
    return NumericError(f"nonpositive var(ln s^2) estimate: kurtosis ratio {kurt:.6g}, sizes {m.tolist()}")


def estimate_moments(data: GroupedSample, use_harmonic: bool = False) -> MomentEstimates:
    """Pooled moment estimates and the variance of each log sample variance.

    var(ln s_i^2) is estimated as [mu4/sigma2^2 - (m-3)/m] / (m-1) where m
    is the harmonic mean group size when ``use_harmonic`` is set (the
    convention of the kurtosis-adjusted chi-square test, making the
    estimate identical across groups) and the group's own size otherwise.
    """
    _, mu4, sigma2 = moment_rows(stack([data]))
    mu4, sigma2 = float(mu4[0]), float(sigma2[0])
    if sigma2 <= 0.0:
        raise DegenerateDataError("every group is constant; pooled variance is zero")
    kurt = mu4 / (sigma2 * sigma2)
    m, harmonic_n = _moment_sizes(data.sizes, use_harmonic)
    var_log_s2 = _var_log_s2(kurt, m)
    if not np.all(var_log_s2 > 0.0):
        raise _nonpositive_var(kurt, m)
    return MomentEstimates(mu4, sigma2, var_log_s2, harmonic_n)


def log_variance_rows(groups, use_harmonic: bool = False):
    """Log-variance contrasts of datasets stacked row-wise, as in ``moment_rows``.

    Returns (contrasts, var_log_s2, errors): ``contrasts`` and the per-group
    var(ln s_i^2) estimates ``var_log_s2`` hold (R, groups) arrays, with m
    as in ``estimate_moments``; ``errors`` maps each row on which the
    contrasts are undefined to the exception a one-dataset call raises.
    """
    s2, mu4, sigma2 = moment_rows(groups)
    m, _ = _moment_sizes([g.shape[1] for g in groups], use_harmonic)
    count = len(groups)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows listed in errors
        kurt = mu4 / (sigma2 * sigma2)
        var_log_s2 = _var_log_s2(kurt[:, None], m)
        log_s2 = np.log(s2)
        contrast = log_s2 - log_s2.mean(axis=1, keepdims=True)
        se = np.sqrt((1.0 - 2.0 / count) * var_log_s2 + var_log_s2.sum(axis=1, keepdims=True) / count**2)
        t = contrast / se
    errors: dict[int, Exception] = {}
    for r in np.flatnonzero((s2 <= 0.0).any(axis=1)):
        bad = int(np.argmax(s2[r] <= 0.0))
        errors[int(r)] = DegenerateDataError(f"group {bad} has zero sample variance; log variance undefined")
    for r in np.flatnonzero(~(var_log_s2 > 0.0).all(axis=1)):
        errors.setdefault(int(r), _nonpositive_var(float(kurt[r]), m))
    return LogVarianceContrasts(contrast, se, t), var_log_s2, errors


def log_variance_contrasts(data: GroupedSample) -> LogVarianceContrasts:
    """Centered log sample variances, their standard errors, and t ratios.

    The contrast for group i is ln s_i^2 minus the mean log variance
    (equivalently, the log of s_i^2 over the geometric mean variance).
    Standard errors combine the per-group var(ln s_i^2) estimates with the
    weights induced by the centering.
    """
    rows, _, errors = log_variance_rows(stack([data]))
    if errors:
        raise errors[0]
    return LogVarianceContrasts(rows.contrast[0], rows.se[0], rows.t[0])
