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
array of group i over the R datasets, and the statistics come from row
kernels over it.  A bootstrap test resamples the batch in windows of
``resample_width`` datasets through one draw, ``_resample``: dataset j
draws rows with replacement from its own pool (a group's values for the
box test, the pooled median residuals for bootstrap Levene) and its own
generator.  Every draw lands through one loop, ``_landed``, in slices of
at most ``descriptive.slice_rows(n)`` rows, so no drawn array exceeds
the cap, each slice reduced per group as it lands (``group_moments``,
``_levene_group``) and combined in one step (``pooled_moments``,
``_levene_combine``), as the observed statistics are.  Bootstrap Levene
lands its smoothed blocks whole, for their jitter, and without p-values
may evaluate a window in two rounds (see ``batched``).  One call runs
the selected tests on a batch and computes each observed statistic that
several of them use once.  The functions above pass their dataset as the
batch of one (``GroupedSample.rows``), ``run_all`` passes it to all four
tests at once, and the Monte Carlo harness draws chunks of replications
straight into batches.  Rows are evaluated independently, in the same
arithmetic order whatever the batch, so results do not depend on how
datasets are batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from .bootstrap import SMOOTH_FACTOR, first_count, search_critical
from .descriptive import (
    GroupedSample, centred, group_moments, in_place, log_variance_rows, log_variance_t, moment_rows, pooled_moments,
    row_sum, running_sum, slice_rows, slices,
)
from .errors import MAX_VALUES, DegenerateDataError, NumericError, count, level
from .rng import spawned, stream
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
    """Shared knobs for the two bootstrap tests.

    Construction checks ``rng`` and ``pivot_variant``; the tests check ``b``.
    """

    rng: np.random.Generator
    b: int = 500                 # bootstrap replicates
    pivot_variant: bool = False  # center box-test replicates at the observed t

    def __post_init__(self):
        if not isinstance(self.rng, np.random.Generator):
            raise ValueError(f"rng must be a numpy.random.Generator, got {self.rng!r}")
        if not isinstance(self.pivot_variant, (bool, np.bool_)):
            raise ValueError(f"pivot_variant must be a bool, got {self.pivot_variant!r}")

    @classmethod
    def from_seed(cls, seed: int, b: int = 500, pivot_variant: bool = False) -> "BootstrapConfig":
        return cls(rng=stream(seed), b=b, pivot_variant=pivot_variant)


@dataclass
class Outcomes:
    """One test applied to each dataset of a batch; row r belongs to dataset r.

    ``p_value`` is None for every test but bootstrap Levene, and for that
    one too when ``batched`` ran it with ``p_values=False``.
    """

    method: str
    alpha: float
    statistic: np.ndarray         # (R,), or (R, groups) t vectors for the box test
    reject: np.ndarray            # (R,) bool; meaningless on rows in ``errors``
    errors: dict[int, Exception]  # rows the test cannot run on, with the reason
    critical_value: np.ndarray | None = None  # (R,)
    p_value: np.ndarray | None = None         # (R,), bootstrap Levene with p_values=True only
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
    """Medians of the rows of x, shape (R,); for an even row size, the midpoint of the central pair.

    On rows as short as group samples and their resamples, sorting is
    several times faster than the partition in ``np.median``; the values
    are the same.
    """
    s = np.sort(x, axis=1)
    h = x.shape[1] // 2
    if x.shape[1] % 2:
        return s[:, h]
    return (s[:, h - 1] + s[:, h]) / 2.0


def _levene_group(block) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One group's part of the Levene statistic: per row of ``block``, (R, n_i), three (R,) arrays.

    They are the row's median, the sum of its absolute deviations from
    the median, and the sum of squares of those deviations about their
    mean.  The absolute and squared deviations are taken in place, by
    columns under the shape rule (``centred``).
    """
    median = _row_medians(block)
    e = in_place(np.absolute, centred(block, median))
    total = row_sum(e)
    return median, total, row_sum(in_place(np.multiply, centred(e, total / block.shape[1])))


def _levene_combine(sizes, parts) -> tuple[np.ndarray, np.ndarray]:
    """Levene/Brown-Forsythe F ratios, one per row, and the degenerate rows, from ``parts``, each group's ``_levene_group``.

    A row is degenerate when it has zero within-group variation with
    nonzero between variation.  Those map to +inf and rows with zero
    between variation to 0, so that resampled statistics compare with an
    observed one in every case.  Within-group variation at rounding
    level, at most eps * n * (grand mean)^2, counts as zero: in a
    two-point group both deviations from the median are equal, but their
    computed values can differ in the last bit.  Each row is combined on
    its own, so parts of any slices of rows, joined, give the same bits.
    """
    k, df2 = _levene_df(sizes)
    n = df2 + k + 1
    grand = sum(total for _, total, _ in parts) / n
    ssb = row_sum([size * (total / size - grand) ** 2 for size, (_, total, _) in zip(sizes, parts)])
    ssw = sum(within for _, _, within in parts)
    out = np.zeros_like(ssb)
    ok = ssw > _EPS * n * grand * grand
    out[ok] = (ssb[ok] / k) / (ssw[ok] / df2)
    degenerate = ~ok & (ssb > 0.0)
    out[degenerate] = np.inf
    return out, degenerate


def _levene_stat_rows(blocks) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Levene/Brown-Forsythe F ratios with median centering, one per row; blocks[i] is (R, n_i).

    Returns the statistics, the group medians (the (R,) medians of each
    block) and the degenerate rows (``_levene_combine``).
    """
    parts = [_levene_group(bl) for bl in blocks]
    stat, degenerate = _levene_combine([bl.shape[1] for bl in blocks], parts)
    return stat, [median for median, _, _ in parts], degenerate


class _Observed:
    """The observed statistics of one batch that several tests use, each computed on first use and kept.

    ``batched`` makes one per call, so a statistic is computed at most
    once per batch, and only when a selected test uses it.
    """

    def __init__(self, groups):
        self.groups = groups
        self.sizes = tuple(g.shape[1] for g in groups)

    @cached_property
    def levene(self) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
        """``_levene_stat_rows(groups)``: Levene's statistics and bootstrap Levene's residual centres."""
        return _levene_stat_rows(self.groups)

    @cached_property
    def moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``moment_rows(groups)``: Shoemaker's and the box test's variances, and the jitter scale."""
        return moment_rows(self.groups)

    def levene_errors(self) -> dict[int, Exception]:
        """A fresh mapping of the rows with a degenerate Levene statistic to their reason."""
        message = "absolute deviations from the group medians have no within-group variation"
        return {int(r): DegenerateDataError(message) for r in np.flatnonzero(self.levene[2])}


def _reference_outcomes(method: str, alpha: float, stat: np.ndarray, errors, quantile, df) -> Outcomes:
    """A test that refers ``stat`` to a fixed distribution with ``df``: Levene's F or Shoemaker's chi-square.

    The critical value is ``quantile(1 - alpha, *df)``, or 0.0 at alpha = 1.
    """
    critical = 0.0 if alpha >= 1.0 else quantile(1.0 - alpha, *df)
    reject = _decide(alpha, stat > critical)
    return Outcomes(method, alpha, stat, reject, errors, critical_value=np.full(len(stat), critical), df=df)


def levene(data: GroupedSample, alpha: float = 0.05) -> TestResult:
    """Median-centered Levene test at level ``alpha``.

    Scale variables are |observation - group median|; their one-way ANOVA
    F ratio is compared with the F(k, n - k - 1) quantile at 1 - alpha.
    """
    return batched((LEVENE,), data.rows, {}, alpha)[LEVENE].result()


def shoemaker(data: GroupedSample, alpha: float = 0.05) -> TestResult:
    """Kurtosis-adjusted log-variance chi-square test at level ``alpha``.

    The statistic sums (ln s_i^2 - mean ln s^2)^2 / var(ln s_i^2), with
    var(ln s_i^2) estimated from the pooled kurtosis ratio and the harmonic
    mean group size, and is compared with the chi-square(k) quantile.
    """
    return batched((SHOEMAKER,), data.rows, {}, alpha)[SHOEMAKER].result()


def _resample(pools, rngs, count: int) -> np.ndarray:
    """(R, count, n) resample rows: dataset j draws ``count`` rows from ``pools[j]`` with replacement, by ``rngs[j]``."""
    out = np.empty((len(rngs), count, pools.shape[1]))
    for pool, rng, rows in zip(pools, rngs, out):
        # pool[indices] written straight into the rows; the indices are in range, and mode="clip" spares take the
        # copy it makes under mode="raise".  The method, not np.take, whose Python wrapper costs about as much
        # again on one dataset's resamples (3.7 against 7.6 µs on (500, 10))
        pool.take(rng.integers(0, pool.size, size=rows.shape), out=rows, mode="clip")
    return out


def _landed(reduce, pools, rngs, rows: int) -> list[np.ndarray]:
    """The outputs of ``reduce`` over the next ``rows`` resample rows of a batch, each an (R, rows, ...) array.

    ``_resample`` draws the rows in slices of at most ``slice_rows(n)``,
    and ``reduce`` maps each slice, (R, count, n), to (R, count, ...)
    arrays placed in turn, not joined: a join keeps each slice's draws alive
    through a smoothed block's view (78.7 against 5.4 MiB on groups of 6 and
    20 000 at b = 500), and copying those blocks slows smoothed cells 4-10%.
    """
    parts = slices(rows, slice_rows(pools.shape[1]))
    if len(parts) == 1:
        return reduce(_resample(pools, rngs, rows))
    landed = None
    for part in parts:
        outputs = reduce(_resample(pools, rngs, part.stop - part.start))
        landed = landed or [np.empty((len(rngs), rows) + y.shape[2:]) for y in outputs]
        for whole, y in zip(landed, outputs):
            whole[:, part] = y
    return landed


def _per_resample(kernel):
    """A ``reduce`` for ``_landed``: ``kernel`` over a draw's (R * count, n) rows, each output shaped (R, count)."""
    return lambda draws: [y.reshape(draws.shape[:2]) for y in kernel(draws.reshape(-1, draws.shape[2]))]


def _jitter(blocks, q: np.ndarray, rngs) -> None:
    """Smooth ``blocks``, each (R, b, n_i), in place: dataset j's values plus uniform jitter of scale ``q[j]``.

    Generator j draws each block's uniforms in turn, as
    ``uniform(-0.5, 0.5)`` would: that is ``-0.5 + U`` on the same doubles
    U.  Only the draws run per dataset; the variance-preserving arithmetic,
    ``((u * q) + block) * SMOOTH_FACTOR`` in that order, runs once for all
    R, its last step writing straight into the block.
    """
    jitter = [np.empty(block.shape) for block in blocks]
    for j, rng in enumerate(rngs):
        for u in jitter:
            rng.random(out=u[j])
    for u, block in zip(jitter, blocks):
        u -= 0.5
        u *= q[:, None, None]
        u += block
        # into the block, often a strided view of the draws: two in-place passes over it made this loop 20-60% slower
        np.multiply(u, SMOOTH_FACTOR, out=block)


def resample_width(sizes, b: int) -> int:
    """Datasets per resample batch: as many as keep b resamples of each within the cap (``slice_rows``)."""
    return slice_rows(b * sum(sizes))


def _resample_batches(count: int, errors, sizes, b: int) -> list[list[int]]:
    """The rows of ``range(count)`` not in ``errors``, split at multiples of ``resample_width(sizes, b)``."""
    width = resample_width(sizes, b)
    rows = (r for r in range(count) if r not in errors)
    return [list(batch) for _, batch in groupby(rows, key=lambda r: r // width)]


def _curtailment(alpha: float, b: int, sizes) -> tuple[int, int, float]:
    """(c, m, gate) of the decision-only bootstrap Levene; ``batched`` sets out their use.

    c = ``first_count(b, alpha)``, the smallest count with c / b >= alpha,
    m = max(1, b // 5), and gate the F(k, n - k - 1) quantile at 1 - c / m
    for groups of ``sizes``, the batch's own, or -inf when c >= m.
    """
    c = first_count(b, alpha)
    m = max(1, b // 5)
    return c, m, f_quantile(1.0 - c / m, *_levene_df(sizes)) if c < m else -math.inf


def _levene_counts(pools, q, sizes, rngs, observed, b: int, curtailment) -> np.ndarray:
    """Per dataset of a resample batch, how many of its resampled Levene statistics exceed ``observed``, (R,).

    Dataset j resamples ``pools[j]`` from ``rngs[j]``; ``q`` is the
    jitter scale, None when no group is smoothed, and ``curtailment`` the
    (c, m, gate) of ``_curtailment``, (b, b, -inf) for full counts.  When
    a dataset is below the gate, the first m resamples of every dataset
    are counted in an early round, and the datasets that reach c stop
    there.  Each group's block lands (``_landed``) as its ``_levene_group``
    parts, or whole, to be reduced in each round.  Without smoothed groups
    each round lands its own rows.  With them every stream draws all b
    rows before its jitter: the smoothed blocks land whole, and every
    block does when the b rows fit in one slice, so that a dataset settled
    in the early round reduces none of its later rows.
    """
    c, m, gate = curtailment
    bounds = np.cumsum((0,) + tuple(sizes)).tolist()
    blocks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    whole = [q is not None and (size < 10 or slice_rows(bounds[-1]) >= b) for size in sizes]
    levene_parts = _per_resample(_levene_group)

    def reduce(draws):
        out = []
        for block, keep in zip(blocks, whole):
            out += [draws[:, :, block]] if keep else levene_parts(draws[:, :, block])
        return out

    def land(rows, count):
        # each block as its drawn (R, count, n_i) array if whole, else the list of its three (R, count) parts
        landed = iter(_landed(reduce, pools[rows], [rngs[r] for r in rows], count))
        return [next(landed) if keep else [next(landed) for _ in range(3)] for keep in whole]

    hits = np.zeros(len(observed), dtype=int)
    rows = np.arange(len(observed))
    if q is not None:
        landed = land(rows, b)
        _jitter([x for x, size in zip(landed, sizes) if size < 10], q, rngs)
    for lo, hi in [(0, m), (m, b)] if (observed < gate).any() else [(0, b)]:
        if q is None:
            landed, window = land(rows, hi - lo), np.s_[:, :]
        else:
            window = np.s_[:, lo:hi] if rows.size == len(observed) else np.s_[rows, lo:hi]
        parts = [[y[window].reshape(-1) for y in x] if isinstance(x, list)
                 else _levene_group(x[window].reshape(-1, x.shape[2])) for x in landed]
        boot = _levene_combine(sizes, parts)[0].reshape(rows.size, -1)  # each dataset's resamples in turn
        hits[rows] += (boot > observed[rows, None]).sum(axis=1)
        rows = rows[hits[rows] < c]  # a row with c exceedances accepts, whatever its other resamples give
        if not rows.size:
            break
    return hits


def _bootstrap_levene_outcomes(obs: _Observed, alpha: float, rngs, b: int, p_values: bool) -> Outcomes:
    stat, medians, _ = obs.levene
    errors = obs.levene_errors()
    pools = np.concatenate([g - m[:, None] for g, m in zip(obs.groups, medians)], axis=1)
    for r in np.flatnonzero(np.all(pools == 0.0, axis=1)):
        errors.setdefault(int(r), DegenerateDataError("residual pool is identically zero"))
    sizes = obs.sizes
    q = None if min(sizes) >= 10 else np.sqrt(obs.moments[2])  # the pooled standard deviation about the group means
    curtailment = (b, b, -math.inf) if p_values else _curtailment(alpha, b, sizes)
    count = np.full(len(stat), np.nan)
    for rows in _resample_batches(len(stat), errors, sizes, b):
        count[rows] = _levene_counts(
            pools[rows], None if q is None else q[rows], sizes, [rngs[r] for r in rows], stat[rows], b, curtailment,
        )
    p = count / b
    return Outcomes(
        BOOTSTRAP_LEVENE, alpha, stat, _decide(alpha, p < alpha), errors,
        p_value=p if p_values else None, df=_levene_df(sizes),
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
    rngs = {BOOTSTRAP_LEVENE: [cfg.rng]}
    return batched((BOOTSTRAP_LEVENE,), data.rows, rngs, alpha, cfg.b)[BOOTSTRAP_LEVENE].result()


def _box_t(groups, rngs, b: int) -> np.ndarray:
    """The t vectors of b resamples of each dataset of a batch, as a (k, R, b) stack of group rows.

    Dataset j resamples ``g[j]`` of each of ``groups`` in turn from
    ``rngs[j]``.  Each group's resamples land as their ``group_moments``
    (``_landed``), and ``pooled_moments`` combines the groups.
    """
    sizes = [g.shape[1] for g in groups]
    parts = [[y.reshape(-1) for y in _landed(_per_resample(group_moments), g, rngs, b)] for g in groups]
    return log_variance_t(sizes, pooled_moments(sizes, parts)).reshape(-1, len(rngs), b)


def _redraw_degenerate(t: np.ndarray, groups, rngs) -> np.ndarray:
    """Replace the non-finite t vectors of bootstrap resamples, in place, by those of fresh resamples.

    ``t`` is (k, R, b), group rows: ``t[:, j]`` holds the t vectors of
    dataset j's b resamples of ``g[j]`` of each of ``groups``, drawn from
    ``rngs[j]``.  Each round draws fresh resamples for every resample
    whose t vector is still non-finite, group by group (no two datasets
    share a generator), and evaluates them in one ``log_variance_t`` call.
    Returns the datasets that still have such a resample after
    ``_MAX_REDRAWS`` rounds.
    """
    b = t.shape[2]
    flat = t.reshape(t.shape[0], -1)  # a view: writes go through into t
    bad = np.flatnonzero(~np.logical_and.reduce(np.isfinite(flat)))
    for _ in range(_MAX_REDRAWS):
        if not bad.size:
            break
        owners, counts = np.unique(bad // b, return_counts=True)
        fresh = [np.concatenate([_resample(g[j, None], [rngs[j]], n)[0] for j, n in zip(owners, counts)])
                 for g in groups]
        flat[:, bad] = t_fresh = log_variance_t([g.shape[1] for g in groups], moment_rows(fresh))
        bad = bad[~np.logical_and.reduce(np.isfinite(t_fresh))]
    return np.unique(bad // b)


def _box_outcomes(obs: _Observed, alpha: float, rngs, b: int, pivot_variant: bool) -> Outcomes:
    """The box test on a batch; see ``box_test`` and ``batched``.

    The observed t vectors are group rows, (k, R), and each resample
    batch's t vectors a (k, R, b) stack: redrawn, centred along its
    contiguous rows and searched through its (R, b, k) view.  The
    outcomes' statistic is the (R, k) transpose of the observed group rows.
    """
    groups = obs.groups
    contrasts, _, errors = log_variance_rows(obs.sizes, obs.moments)
    observed = contrasts.t  # group rows, (k, R)
    c_star = np.full(observed.shape[1], np.nan)
    for rows in _resample_batches(observed.shape[1], errors, obs.sizes, b):
        batch, streams = [g[rows] for g in groups], [rngs[r] for r in rows]
        t = _box_t(batch, streams, b)
        for j in _redraw_degenerate(t, batch, streams):
            errors[rows[j]] = NumericError(f"a bootstrap replicate stayed degenerate after {_MAX_REDRAWS} redraws")
        keep = [j for j, r in enumerate(rows) if r not in errors]  # a failed redraw leaves non-finite t vectors
        if keep:
            t = t[:, keep]
            kept = [rows[j] for j in keep]
            # each (group, dataset) row of b resamples summed left to right, as numpy sums an axis
            # that is not innermost in memory: the bits of t.mean(axis=1) in an (R, b, k) layout
            t -= (observed[:, kept] if pivot_variant else running_sum(t) / b)[:, :, None]
            c_star[kept] = search_critical(np.moveaxis(t, 0, -1), alpha).c_star
    t_max = np.abs(observed).max(axis=0)
    return Outcomes(BOX, alpha, observed.T, _decide(alpha, t_max > c_star), errors, critical_value=c_star)


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

    Groups of two observations are outside the method's range: a usable
    resample of one holds both points, so it repeats the observed s^2.
    When every group has two, each replicate equals the observed t up to
    rounding, the half-width is rounding noise and the test rejects.
    """
    return batched((BOX,), data.rows, {BOX: [cfg.rng]}, alpha, cfg.b, cfg.pivot_variant)[BOX].result()


def batched(methods, groups, rngs, alpha: float, b: int = 500, pivot_variant: bool = False, p_values: bool = True):
    """The tests ``methods``, a tuple of names, at level ``alpha`` on a batch of datasets, as {method: Outcomes}.

    ``groups[i]`` is the (R, n_i) array of group i over R datasets, one
    dataset per row; the result maps each of ``methods``, in order, to its
    outcomes.  The tests run one after another, and each reads the group
    sizes n_i off ``groups``: Levene's F(k, n - k - 1) and Shoemaker's
    chi-square(k) critical values and degrees of freedom, and bootstrap
    Levene's early-round gate, follow the batch.  The observed statistics
    that several tests use are computed once per call, and only when a
    selected test uses them: the Levene statistics and their group medians
    (Levene, and bootstrap Levene's residual pools), and ``moment_rows``
    (Shoemaker, the box test, and bootstrap Levene's jitter scale when a
    group is smoothed).  The bootstrap tests take ``b`` resamples per
    dataset, dataset r drawing from ``rngs[method][r]``; ``rngs`` needs no
    entry for the other tests.  ``pivot_variant`` is the box-test option
    of ``BootstrapConfig``.  Before anything is drawn, ``alpha`` passes
    the level rule (``errors.level``) and, for a bootstrap test, ``b`` the
    count rule (``errors.count``) from 1 to ``MAX_VALUES // sum(n_i)``.

    A bootstrap test computes its observed statistics over all R rows,
    then resamples the rows that have one in batches: the rows r with
    equal ``r // resample_width(sizes, b)``, where ``sizes`` are the n_i,
    drawn by ``_resample`` and reduced as they land (``_landed``).  It
    fetches ``rngs[method][r]`` once, just before that batch's draws, and
    in increasing r, so each entry of ``rngs`` may be any sequence whose
    item r is row r's generator when fetched; the rows of one batch may
    not share a generator object, as the box redraws from all of them
    after the batch's first draws, and bootstrap Levene with
    ``p_values=False`` may draw from all of them after its early round.

    ``p_values=False`` makes bootstrap Levene decide without p-values
    (``Outcomes.p_value`` is None), with the same ``reject`` and
    ``errors``.  Let c be the smallest count with c / b >= alpha and
    m = max(1, b // 5).  A row whose count of resampled statistics above
    the observed one reaches c accepts, whatever its other resamples
    give.  When c < m, a resample batch holding a row whose observed
    statistic is below the F(k, n - k - 1) quantile at 1 - c / m (an
    F-test p-value above c / m, so likely to accept) evaluates the first
    m resamples of all its rows in an early round, and the rows that
    reach c stop there; the other rows evaluate their remaining resamples
    in one more kernel call.  A batch without such a row takes one kernel
    call, as with p-values.  Without smoothed groups (every n_i >= 10) a
    row below the quantile draws only its first m resamples' indices, and
    the rest only if it goes on: bounded integers carry no state between
    calls, so the draws are those of one call.  With smoothed groups the
    jitter follows all b rows of indices in the stream, so every row
    draws in full up front, and reduces only the rows of its rounds when
    they fit in one slice.  The other tests ignore ``p_values``.
    """
    alpha = level(alpha)
    for method in methods:
        if method not in ALL_METHODS:
            raise ValueError(f"unknown test {method!r}; choose from {list(ALL_METHODS)}")
    if BOOTSTRAP_LEVENE in methods or BOX in methods:
        b = count("b", b, 1, MAX_VALUES // sum(g.shape[1] for g in groups))
    obs = _Observed(groups)
    outcomes = {}
    for method in methods:
        if method == LEVENE:
            outcomes[method] = _reference_outcomes(
                method, alpha, obs.levene[0], obs.levene_errors(), f_quantile, _levene_df(obs.sizes),
            )
        elif method == SHOEMAKER:
            contrasts, var_log_s2, errors = log_variance_rows(obs.sizes, obs.moments, use_harmonic=True)
            stat = row_sum(list(contrasts.contrast**2 / var_log_s2))
            outcomes[method] = _reference_outcomes(method, alpha, stat, errors, chi2_quantile, (len(obs.sizes) - 1,))
        elif method == BOOTSTRAP_LEVENE:
            outcomes[method] = _bootstrap_levene_outcomes(obs, alpha, rngs[method], b, p_values)
        else:
            outcomes[method] = _box_outcomes(obs, alpha, rngs[method], b, pivot_variant)
    return outcomes


def run_all(
    data: GroupedSample, alpha: float, cfg: BootstrapConfig
) -> tuple[list[TestResult], dict[str, str]]:
    """Run all four tests on the same data.

    The two bootstrap tests consume disjoint child streams of ``cfg.rng``:
    the two that ``cfg.rng.spawn(2)`` gives, with its spawn counter
    advanced as that advances it, so each call on one config takes the
    next two children.  For an MT19937 they are drawn by generators of the
    calling thread's pool, re-keyed (``rng.spawned``), so the call builds
    no generator.  The four tests run as one batch of one dataset, so the
    Levene statistic, the group medians and the group moments are computed
    once.  A test that cannot run on this data contributes an entry in the
    returned error mapping instead of aborting the rest.
    """
    rngs = {method: [rng] for method, rng in zip((BOOTSTRAP_LEVENE, BOX), spawned(cfg.rng, 2))}
    outcomes = batched(ALL_METHODS, data.rows, rngs, alpha, cfg.b, cfg.pivot_variant)
    results: list[TestResult] = []
    errors: dict[str, str] = {}
    for method, outcome in outcomes.items():
        try:
            results.append(outcome.result())
        except (DegenerateDataError, NumericError) as exc:
            errors[method] = str(exc)
    return results, errors
