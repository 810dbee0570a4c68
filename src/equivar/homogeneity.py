"""Four tests of the hypothesis that all group variances are equal.

* ``levene`` - one-way ANOVA on absolute deviations from group medians,
  referred to an F distribution.
* ``shoemaker`` - kurtosis-adjusted sum of squared centered log variances,
  referred to a chi-square distribution.
* ``bootstrap_levene`` - the Levene statistic calibrated by resampling a
  pooled residual pool, with smoothing for small groups; yields a p-value.
* ``box_test`` - standardized log-variance contrasts checked against a
  box-type acceptance region whose half-width is calibrated by a
  within-group bootstrap.

Each test takes one dataset, a :class:`~equivar.descriptive.GroupedSample`,
and a level ``alpha`` and returns a :class:`TestResult`.  At the degenerate
boundary ``alpha = 1`` every test rejects unconditionally (the level-1
test has an empty acceptance region); the comparison rules below describe
levels in (0, 1).

Every test is written once, for a batch of datasets with equal group
sizes (``batched``): a batch is a list whose entry i is the (R, n_i)
array of group i over the R datasets, the statistics come from row
kernels over it, and a bootstrap test draws each dataset's resamples
from that dataset's own generator before one kernel evaluates all of
them.  The functions above pass their dataset as the batch of one
(``GroupedSample.rows``); the Monte Carlo harness draws chunks of
replications straight into batches.  Rows are evaluated
independently, in the same arithmetic order whatever the batch, so
results do not depend on how datasets are batched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bootstrap import SMOOTH_FACTOR, search_critical
from .descriptive import GroupedSample, column_reduce, log_variance_rows, log_variance_t, moment_rows, row_sum
from .errors import DegenerateDataError, NumericError, is_int, is_real
from .rng import stream
from .special import chi2_quantile, f_quantile

__all__ = [
    "LEVENE",
    "SHOEMAKER",
    "BOOTSTRAP_LEVENE",
    "BOX",
    "ALL_METHODS",
    "TestResult",
    "BootstrapConfig",
    "levene",
    "shoemaker",
    "bootstrap_levene",
    "box_test",
    "run_all",
    "Outcomes",
    "batched",
]

LEVENE = "levene"
SHOEMAKER = "shoemaker"
BOOTSTRAP_LEVENE = "bootstrap_levene"
BOX = "box"
ALL_METHODS = (LEVENE, SHOEMAKER, BOOTSTRAP_LEVENE, BOX)

_MAX_REDRAWS = 100
_EPS = np.finfo(float).eps


@dataclass
class TestResult:
    method: str
    statistic: float | np.ndarray   # t vector for the box test, scalar otherwise
    reject: bool
    alpha: float
    critical_value: float | None = None
    p_value: float | None = None    # bootstrap Levene only
    df: tuple[float, ...] | None = None

    def as_dict(self) -> dict:
        """JSON-friendly representation (arrays become lists)."""
        stat = self.statistic
        if isinstance(stat, np.ndarray):
            stat = [float(v) for v in stat]
        else:
            stat = float(stat)
        return {
            "method": self.method,
            "statistic": stat,
            "reject": bool(self.reject),
            "alpha": float(self.alpha),
            "critical_value": None if self.critical_value is None else float(self.critical_value),
            "p_value": None if self.p_value is None else float(self.p_value),
            "df": None if self.df is None else [float(v) for v in self.df],
        }


@dataclass
class BootstrapConfig:
    """Shared knobs for the two bootstrap tests."""

    rng: np.random.Generator
    b: int = 500                 # bootstrap replicates
    pivot_variant: bool = False  # center box-test replicates at the observed t

    @classmethod
    def from_seed(cls, seed: int, b: int = 500, pivot_variant: bool = False) -> "BootstrapConfig":
        return cls(rng=stream(seed), b=b, pivot_variant=pivot_variant)


@dataclass
class Outcomes:
    """One test applied to each dataset of a batch; row r belongs to dataset r."""

    method: str
    alpha: float
    statistic: np.ndarray         # (R,), or (R, groups) t vectors for the box test
    reject: np.ndarray            # (R,) bool; meaningless on rows in ``errors``
    errors: dict[int, Exception]  # rows the test cannot run on, with the reason
    critical_value: np.ndarray | None = None  # (R,)
    p_value: np.ndarray | None = None         # (R,), bootstrap Levene only
    df: tuple[float, ...] | None = None

    @property
    def rejections(self) -> int:
        """Number of rows, among those the test ran on, that reject."""
        return int(self.reject.sum()) - sum(bool(self.reject[r]) for r in self.errors)

    def result(self, row: int = 0) -> TestResult:
        """The result for one dataset; raises the reason if the test cannot run on it."""
        if row in self.errors:
            raise self.errors[row]
        stat = self.statistic[row]
        return TestResult(
            self.method,
            stat.copy() if stat.ndim else float(stat),
            bool(self.reject[row]),
            self.alpha,
            critical_value=None if self.critical_value is None else float(self.critical_value[row]),
            p_value=None if self.p_value is None else float(self.p_value[row]),
            df=self.df,
        )


def _decide(alpha: float, reject: np.ndarray) -> np.ndarray:
    # the level-1 test has an empty acceptance region
    return np.ones_like(reject) if alpha >= 1.0 else reject


def _levene_df(sizes) -> tuple[int, int]:
    """(k, n - k - 1): the numerator and one-way ANOVA residual degrees of freedom."""
    k = len(sizes) - 1
    return k, sum(sizes) - (k + 1)


def _row_medians(x: np.ndarray) -> np.ndarray:
    """Medians of the rows of x as an (R, 1) column; for an even row size, the midpoint of the central pair.

    On rows as short as group samples and their resamples, sorting is
    several times faster than the partition in ``np.median``; the values
    are the same.
    """
    s = np.sort(x, axis=1)
    h = x.shape[1] // 2
    if x.shape[1] % 2:
        return s[:, h:h + 1]
    return (s[:, h - 1:h] + s[:, h:h + 1]) / 2.0


def _levene_stat_rows(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Levene/Brown-Forsythe F ratios with median centering, one per row; blocks[i] is (R, n_i).

    Returns the statistics and the rows that are degenerate: zero
    within-group variation with nonzero between variation.  Those map to
    +inf and rows with zero between variation to 0, so that resampled
    statistics compare with an observed one in every case.  Within-group
    variation at rounding level, at most eps * n * (grand mean)^2, counts
    as zero: in a two-point group both deviations from the median are
    equal, but their computed values can differ in the last bit.
    """
    k, df2 = _levene_df([bl.shape[1] for bl in blocks])
    n = df2 + k + 1
    e = [np.abs(bl - _row_medians(bl)) for bl in blocks]
    sums = [row_sum(x) for x in e]
    means = np.stack([total / x.shape[1] for total, x in zip(sums, e)], axis=1)
    grand = sum(sums) / n
    sizes = np.array([x.shape[1] for x in e], dtype=float)
    ssb = row_sum(sizes * (means - grand[:, None]) ** 2)
    ssw = sum(row_sum((x - m[:, None]) ** 2) for x, m in zip(e, means.T))
    out = np.zeros_like(ssb)
    ok = ssw > _EPS * n * grand * grand
    out[ok] = (ssb[ok] / k) / (ssw[ok] / df2)
    degenerate = ~ok & (ssb > 0.0)
    out[degenerate] = np.inf
    return out, degenerate


def _observed_levene(groups) -> tuple[np.ndarray, dict[int, Exception]]:
    stat, degenerate = _levene_stat_rows(groups)
    message = "absolute deviations from the group medians have no within-group variation"
    return stat, {int(r): DegenerateDataError(message) for r in np.flatnonzero(degenerate)}


def _levene_outcomes(groups, alpha: float, critical: float) -> Outcomes:
    stat, errors = _observed_levene(groups)
    return Outcomes(
        LEVENE, alpha, stat, _decide(alpha, stat > critical), errors,
        critical_value=np.full(len(stat), critical), df=_levene_df([g.shape[1] for g in groups]),
    )


def levene(data: GroupedSample, alpha: float = 0.05) -> TestResult:
    """Median-centered Levene test at level ``alpha``.

    Scale variables are |observation - group median|; their one-way ANOVA
    F ratio is compared with the F(k, n - k - 1) quantile at 1 - alpha.
    """
    return batched(LEVENE, data.sizes, alpha)(data.rows, None).result()


def _shoemaker_outcomes(groups, alpha: float, critical: float) -> Outcomes:
    contrasts, var_log_s2, errors = log_variance_rows(groups, use_harmonic=True)
    stat = row_sum(contrasts.contrast**2 / var_log_s2)
    return Outcomes(
        SHOEMAKER, alpha, stat, _decide(alpha, stat > critical), errors,
        critical_value=np.full(len(stat), critical), df=(len(groups) - 1,),
    )


def shoemaker(data: GroupedSample, alpha: float = 0.05) -> TestResult:
    """Kurtosis-adjusted log-variance chi-square test at level ``alpha``.

    The statistic sums (ln s_i^2 - mean ln s^2)^2 / var(ln s_i^2), with
    var(ln s_i^2) estimated from the pooled kurtosis ratio and the harmonic
    mean group size, and is compared with the chi-square(k) quantile.
    """
    return batched(SHOEMAKER, data.sizes, alpha)(data.rows, None).result()


def _jitter_scale(groups) -> np.ndarray:
    """Smoothing scale q of each row: the pooled standard deviation about the group means."""
    return np.sqrt(moment_rows(groups)[2])


def _take(values: np.ndarray, indices: np.ndarray, out: np.ndarray) -> np.ndarray:
    # values[indices] written straight into out; the indices are in range,
    # and mode="clip" spares take the copy it makes under mode="raise"
    return np.take(values, indices, out=out, mode="clip")


def _pooled_resamples(pool: np.ndarray, q: float, sizes, rng, out: np.ndarray) -> None:
    """Fill ``out``, shape (b, n), with one dataset's bootstrap-Levene resamples.

    Each row draws n residuals with replacement from ``pool``; the groups
    take contiguous blocks of the row, and blocks for groups smaller than
    10 are smoothed with variance-preserving uniform jitter of scale q.
    """
    _take(pool, rng.integers(0, pool.size, size=out.shape), out)
    start = 0
    for ni in sizes:
        if ni < 10:
            block = out[:, start:start + ni]
            block[...] = SMOOTH_FACTOR * (block + q * rng.uniform(-0.5, 0.5, block.shape))
        start += ni


def _bootstrap_levene_outcomes(groups, alpha: float, rngs, b: int) -> Outcomes:
    stat, errors = _observed_levene(groups)
    pools = np.concatenate([g - _row_medians(g) for g in groups], axis=1)
    for r in np.flatnonzero(np.all(pools == 0.0, axis=1)):
        errors.setdefault(int(r), DegenerateDataError("residual pool is identically zero"))
    q = _jitter_scale(groups)
    sizes = tuple(g.shape[1] for g in groups)
    rows = [r for r in range(len(stat)) if r not in errors]
    p = np.full(len(stat), np.nan)
    if rows:
        draws = np.empty((len(rows) * b, pools.shape[1]))
        for j, r in enumerate(rows):
            _pooled_resamples(pools[r], q[r], sizes, rngs[r], draws[j * b:(j + 1) * b])
        bounds = np.cumsum((0,) + sizes)
        boot, _ = _levene_stat_rows([draws[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])])
        p[rows] = (boot.reshape(len(rows), b) > stat[rows, None]).sum(axis=1) / b
    return Outcomes(
        BOOTSTRAP_LEVENE, alpha, stat, _decide(alpha, p < alpha), errors,
        p_value=p, df=_levene_df(sizes),
    )


def bootstrap_levene(data: GroupedSample, alpha: float, cfg: BootstrapConfig) -> TestResult:
    """Pooled-residual bootstrap of the Levene test; rejects when p < alpha.

    Residuals are observations minus their group median, pooled across
    groups.  Each of ``cfg.b`` rounds redraws n residuals with replacement
    and assigns them to groups in contiguous blocks; blocks for groups
    smaller than 10 are smoothed with variance-preserving uniform jitter of
    scale q, the pooled standard deviation about group means.  The p-value
    is the fraction of rounds whose statistic exceeds the observed one.
    """
    return batched(BOOTSTRAP_LEVENE, data.sizes, alpha, cfg.b)(data.rows, [cfg.rng]).result()


def _resample_rows(groups, rng: np.random.Generator, outs) -> list[np.ndarray]:
    """Fill outs[i], shape (count, n_i), with resamples of group i drawn with replacement."""
    return [_take(g, rng.integers(0, g.size, size=out.shape), out) for g, out in zip(groups, outs)]


def _redraw_degenerate(t: np.ndarray, groups, rngs) -> np.ndarray:
    """Replace the non-finite rows of bootstrap t rows, in place, by t rows of fresh resamples.

    ``t`` is (R, b, k), dataset j's resamples of ``[g[j] for g in groups]``
    drawn from ``rngs[j]``.  Each round draws fresh resamples for every
    row still non-finite, each dataset from its own generator in row
    order, and evaluates them in one ``log_variance_t`` call.  Returns the
    datasets that still have such a row after ``_MAX_REDRAWS`` rounds.
    """
    b = t.shape[1]
    flat = t.reshape(-1, t.shape[2])  # a view: writes go through into t
    bad = np.flatnonzero(~column_reduce(np.logical_and, np.isfinite(flat)))
    for _ in range(_MAX_REDRAWS):
        if not bad.size:
            break
        fresh = [np.empty((bad.size, g.shape[1])) for g in groups]
        owners, starts, counts = np.unique(bad // b, return_index=True, return_counts=True)
        for j, lo, count in zip(owners, starts, counts):
            _resample_rows([g[j] for g in groups], rngs[j], [f[lo:lo + count] for f in fresh])
        flat[bad] = t_fresh = log_variance_t(fresh)
        bad = bad[~column_reduce(np.logical_and, np.isfinite(t_fresh))]
    return np.unique(bad // b)


def _box_outcomes(groups, alpha: float, rngs, b: int, pivot_variant: bool) -> Outcomes:
    contrasts, _, errors = log_variance_rows(groups)
    observed = contrasts.t
    rows = [r for r in range(len(observed)) if r not in errors]
    c_star = np.full(len(observed), np.nan)
    if rows:
        groups, rngs = [g[rows] for g in groups], [rngs[r] for r in rows]
        samples = [np.empty((len(rows) * b, g.shape[1])) for g in groups]
        for j, rng in enumerate(rngs):
            _resample_rows([g[j] for g in groups], rng, [s[j * b:(j + 1) * b] for s in samples])
        t = log_variance_t(samples).reshape(len(rows), b, -1)
        for j in _redraw_degenerate(t, groups, rngs):
            errors[rows[j]] = NumericError(f"a bootstrap replicate stayed degenerate after {_MAX_REDRAWS} redraws")
        keep = [j for j, r in enumerate(rows) if r not in errors]  # a failed redraw leaves non-finite t rows
        if keep:
            t = t[keep]
            kept = [rows[j] for j in keep]
            centre = observed[kept, None, :] if pivot_variant else t.mean(axis=1, keepdims=True)
            c_star[kept] = search_critical(t - centre, alpha).c_star
    t_max = np.abs(observed).max(axis=1)
    return Outcomes(BOX, alpha, observed, _decide(alpha, t_max > c_star), errors, critical_value=c_star)


def box_test(data: GroupedSample, alpha: float, cfg: BootstrapConfig) -> TestResult:
    """Box-type bootstrap test on standardized log-variance contrasts.

    The observed statistics are t_i = contrast_i / se_i.  Groups are
    resampled with replacement within themselves ``cfg.b`` times, the t
    vector is recomputed on each resample, replicates are centered (column
    means by default, the observed t under ``cfg.pivot_variant``), and the
    smallest symmetric box covering 1 - alpha of the centered rows sets
    the critical half-width.  Reject when any |t_i| exceeds it.  A
    resample whose t vector is not finite (a group with s^2 = 0 after
    rounding, or a pooled fourth moment lost to underflow) is redrawn until
    it is; after 100 redraws the test raises NumericError.
    """
    return batched(BOX, data.sizes, alpha, cfg.b, cfg.pivot_variant)(data.rows, [cfg.rng]).result()


def batched(method: str, sizes, alpha: float, b: int = 500, pivot_variant: bool = False):
    """Test ``method`` at level ``alpha`` as a function (groups, rngs) -> Outcomes.

    ``groups[i]`` is the (R, n_i) array of group i over R datasets, one
    dataset per row, with n_i = ``sizes[i]``.  The F and chi-square
    critical values depend on nothing else, so they are computed here,
    once.  The bootstrap tests take ``b`` resamples per dataset, dataset r
    drawing from ``rngs[r]``; the other tests ignore ``rngs``.
    ``pivot_variant`` is the box-test option of ``BootstrapConfig``.
    """
    if not is_real(alpha):
        raise ValueError(f"alpha must be a finite real number, got {alpha!r}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if method == LEVENE:
        crit = 0.0 if alpha >= 1.0 else f_quantile(1.0 - alpha, *_levene_df(sizes))
        return lambda groups, rngs: _levene_outcomes(groups, alpha, crit)
    if method == SHOEMAKER:
        crit = 0.0 if alpha >= 1.0 else chi2_quantile(1.0 - alpha, len(sizes) - 1)
        return lambda groups, rngs: _shoemaker_outcomes(groups, alpha, crit)
    if not is_int(b):
        raise ValueError(f"bootstrap replicate count b must be an integer, got {b!r}")
    if b < 1:
        raise ValueError(f"bootstrap replicate count b must be >= 1, got {b}")
    if method == BOOTSTRAP_LEVENE:
        return lambda groups, rngs: _bootstrap_levene_outcomes(groups, alpha, rngs, b)
    if method == BOX:
        return lambda groups, rngs: _box_outcomes(groups, alpha, rngs, b, pivot_variant)
    raise ValueError(f"unknown test {method!r}; choose from {list(ALL_METHODS)}")


def run_all(
    data: GroupedSample, alpha: float, cfg: BootstrapConfig
) -> tuple[list[TestResult], dict[str, str]]:
    """Run all four tests on the same data.

    The two bootstrap tests consume disjoint child streams spawned from
    ``cfg.rng``.  A test that cannot run on this data contributes an entry
    in the returned error mapping instead of aborting the rest.
    """
    rngs = dict(zip((BOOTSTRAP_LEVENE, BOX), cfg.rng.spawn(2)))
    results: list[TestResult] = []
    errors: dict[str, str] = {}
    for method in ALL_METHODS:
        try:
            test = batched(method, data.sizes, alpha, cfg.b, cfg.pivot_variant)
            results.append(test(data.rows, [rngs.get(method)]).result())
        except (DegenerateDataError, NumericError) as exc:
            errors[method] = str(exc)
    return results, errors
