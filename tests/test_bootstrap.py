import numpy as np
import pytest

from equivar import (
    SMOOTH_FACTOR,
    BootstrapConfig,
    GroupedSample,
    box_test,
    log_variance_contrasts,
    search_critical,
    stream,
)
from equivar.bootstrap import box_rank, first_count
from equivar.descriptive import log_variance_rows, moment_rows
from equivar.homogeneity import _jitter, _resample


def brute_force_search(rows, alpha):
    """Exhaustive scan over every candidate half-width; the reference answer."""
    rows = np.asarray(rows, dtype=float)
    b = rows.shape[0]
    for cand in np.sort(np.abs(rows), axis=None):
        covered = int(np.all(np.abs(rows) <= cand, axis=1).sum())
        if covered / b >= 1.0 - alpha:
            return float(cand), covered / b
    raise AssertionError("unreachable: the largest candidate always covers everything")


def _within(data, rng, count):
    """``count`` within-group resamples of each group of ``data``, one (count, n_i) array per group."""
    return [_resample(g, [rng], count)[0] for g in data.rows]


def _pooled_batch(pools, q, sizes, rngs, b):
    """The ``b`` bootstrap-Levene resamples of each dataset of a batch, (R, b, n), drawn as bootstrap Levene draws them.

    Every row is drawn whole, then the smoothed blocks, of groups under
    10, are jittered.
    """
    bounds = np.cumsum((0,) + tuple(sizes))
    out = _resample(pools, rngs, b)
    _jitter([out[:, :, lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi - lo < 10], q, rngs)
    return out


def _pooled(pool, q, sizes, rng, b):
    """One dataset's ``b`` bootstrap-Levene resamples, drawn as a batch of one from its pool of sum(sizes) values."""
    return _pooled_batch(np.asarray(pool, dtype=float)[None], np.array([q]), sizes, [rng], b)[0]


class TestResampleWithinGroups:
    def test_single_value_group_round_trips(self):
        data = GroupedSample([[3.0, 3.0, 3.0], [1.0, 2.0]])
        out = _within(data, stream(0, 1), 50)
        np.testing.assert_array_equal(out[0], 3.0)

    def test_sizes_preserved(self):
        data = GroupedSample([np.arange(5), np.arange(10)])
        out = _within(data, stream(0, 2), 7)
        assert [o.shape for o in out] == [(7, 5), (7, 10)]
        assert all(np.isin(o, g).all() for o, g in zip(out, data.groups))

    def test_selection_is_uniform(self):
        data = GroupedSample([[1.0, 2.0, 3.0, 4.0], [0.0, 1.0]])
        out = _within(data, stream(0, 3), 25_000)
        freqs = np.bincount(out[0].astype(int).ravel() - 1) / out[0].size
        np.testing.assert_allclose(freqs, 0.25, atol=0.01)


# Groups of 10 or more are resampled without smoothing.
class TestResamplePooled:
    def test_single_atom_pool(self):
        out = _pooled(np.full(22, 7.5), 1.0, (10, 12), stream(0, 4), 5)
        np.testing.assert_array_equal(out, 7.5)

    def test_block_sizes(self):
        # only the first block, a group of 3, is smoothed; with q = 0 smoothing only shrinks
        pool = np.arange(1.0, 16.0)
        out = _pooled(pool, 0.0, (3, 12), stream(0, 5), 40)
        assert out.shape == (40, 15)
        assert np.isin(out[:, 3:], pool).all()
        assert np.isin(out[:, :3] / SMOOTH_FACTOR, pool).all()
        assert not np.isin(out[:, :3], pool).any()

    def test_marginal_uniformity(self):
        out = _pooled(np.tile(np.arange(8.0), 3), 1.0, (12, 12), stream(0, 7), 2_000)
        np.testing.assert_allclose(np.bincount(out.astype(int).ravel()) / out.size, 1.0 / 8.0, atol=0.01)


class TestSmooth:
    def test_zero_scale_only_shrinks(self):
        pool = np.tile([1.0, -2.0, 0.5], 3)
        out = _pooled(pool, 0.0, (4, 5), stream(0, 8), 30)
        drawn = pool[stream(0, 8).integers(0, pool.size, size=out.shape)]
        np.testing.assert_array_equal(out, SMOOTH_FACTOR * drawn)

    def test_jitter_range_on_zeros(self):
        out = _pooled(np.zeros(10), 1.0, (5, 5), stream(0, 9), 1_000)
        bound = SMOOTH_FACTOR / 2.0
        assert np.all(out >= -bound) and np.all(out <= bound)
        assert out.std() > bound / 2.0

    def test_variance_preserved_at_matching_scale(self):
        # Smoothing draws from a unit-variance pool with q = 1 keeps variance
        # at (12/13) * (1 + 1/12) = 1.
        rng = stream(0, 10)
        pool = rng.standard_normal(10)
        pool = (pool - pool.mean()) / pool.std()
        out = _pooled(pool, 1.0, (5, 5), rng, 100_000)
        assert out.var() == pytest.approx((12.0 / 13.0) * (pool.var() + 1.0 / 12.0), rel=5e-3)
        assert out.var() == pytest.approx(1.0, abs=0.01)


def _per_row_pooled(pool, q, sizes, rng, b):
    """One dataset's resamples by the per-row formula: the indices, then each smoothed block's uniform jitter."""
    out = pool[rng.integers(0, pool.size, size=(b, sum(sizes)))]
    start = 0
    for n in sizes:
        if n < 10:
            u = rng.uniform(-0.5, 0.5, (b, n))
            out[:, start:start + n] = ((u * q) + out[:, start:start + n]) * SMOOTH_FACTOR
        start += n
    return out


class TestBatchJitter:
    """Datasets draw one by one and are jittered as a batch, with the bits of the per-row formula."""

    @pytest.mark.parametrize("q_zero", [True, False], ids=["q0", "q"])
    @pytest.mark.parametrize("sizes", [(3, 12), (5, 5), (7, 9, 15)])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_batch_matches_the_per_row_formula(self, rows, sizes, q_zero):
        seed, b = 21, 40
        source = stream(seed, 99)
        pools = source.standard_normal((rows, sum(sizes))) * 10.0 ** source.integers(-3, 4, (rows, 1))
        q = np.zeros(rows) if q_zero else source.uniform(0.1, 5.0, rows)
        out = _pooled_batch(pools, q, sizes, [stream(seed, r, 1) for r in range(rows)], b)
        for r in range(rows):
            expected = _per_row_pooled(pools[r], q[r], sizes, stream(seed, r, 1), b)
            assert np.array_equal(out[r], expected)
            assert np.array_equal(np.signbit(out[r]), np.signbit(expected))


def _box_rows(data, seed, b):
    """The bootstrap t rows box_test draws from BootstrapConfig.from_seed(seed, b)."""
    samples = _within(data, BootstrapConfig.from_seed(seed, b).rng, b)
    rows, _, errors = log_variance_rows(data.sizes, moment_rows(samples))
    assert errors == {}  # no resample is degenerate, so box_test redraws none
    return np.ascontiguousarray(rows.t.T)  # (b, k), C-ordered as the reference means take it


class TestCenter:
    """The box test centres its bootstrap t rows before the critical search."""

    DATA = GroupedSample([s * stream(0, 12, n).normal(size=n) for n, s in ((9, 1), (11, 2), (8, 1))])

    def test_single_row_centers_to_zero(self):
        assert box_test(self.DATA, 0.05, BootstrapConfig.from_seed(3, b=1)).critical_value == 0.0

    def test_column_means_subtracted(self):
        t = _box_rows(self.DATA, 4, 60)
        found = box_test(self.DATA, 0.1, BootstrapConfig.from_seed(4, b=60))
        assert found.critical_value == brute_force_search(t - t.mean(axis=0), 0.1)[0]

    def test_pivot_subtracts_observed(self):
        t = _box_rows(self.DATA, 5, 60)
        observed = log_variance_contrasts(self.DATA).t
        found = box_test(self.DATA, 0.1, BootstrapConfig.from_seed(5, b=60, pivot_variant=True))
        assert found.critical_value == brute_force_search(t - observed, 0.1)[0]


class TestSearchCritical:
    def test_worked_example(self):
        rows = [(0.5, -0.2), (-1.0, 0.3), (0.2, 0.9), (-0.4, -0.6)]
        found = search_critical(rows, alpha=0.25)
        assert found.c_star == 0.9
        assert found.coverage == 0.75

    def test_tiny_alpha_gives_full_box(self):
        rows = stream(0, 14).standard_normal((30, 2))
        found = search_critical(rows, alpha=1e-9)
        assert found.c_star == np.abs(rows).max()
        assert found.coverage == 1.0

    def test_identical_rows(self):
        rows = np.tile([1.5, -0.25, 0.75], (8, 1))
        for alpha in (0.01, 0.3, 0.9):
            found = search_critical(rows, alpha)
            assert found.c_star == 1.5
            assert found.coverage == 1.0

    def test_matches_brute_force(self):
        rng = stream(0, 15)
        for _ in range(200):
            b = int(rng.integers(1, 17))
            width = int(rng.integers(1, 5))
            rows = rng.standard_normal((b, width))
            alpha = float(rng.uniform(0.01, 0.5))
            found = search_critical(rows, alpha)
            c_ref, cov_ref = brute_force_search(rows, alpha)
            assert found.c_star == c_ref
            assert found.coverage == cov_ref

    def test_contract_pair(self):
        rng = stream(0, 16)
        for _ in range(100):
            rows = rng.standard_normal((int(rng.integers(2, 13)), int(rng.integers(1, 4))))
            alpha = float(rng.uniform(0.05, 0.5))
            found = search_critical(rows, alpha)
            assert found.coverage >= 1.0 - alpha
            distinct = np.unique(np.abs(rows))
            pos = int(np.searchsorted(distinct, found.c_star))
            if pos > 0:
                prev_cov = np.all(np.abs(rows) <= distinct[pos - 1], axis=1).mean()
                assert prev_cov < 1.0 - alpha

    def test_coverage_monotone_in_c(self):
        rows = stream(0, 17).standard_normal((25, 3))
        cands = np.sort(np.abs(rows), axis=None)
        cov = [np.all(np.abs(rows) <= c, axis=1).mean() for c in cands]
        assert all(a <= b for a, b in zip(cov, cov[1:]))

    def test_c_star_non_increasing_in_alpha(self):
        rows = stream(0, 18).standard_normal((40, 2))
        alphas = np.linspace(0.01, 0.99, 30)
        cs = [search_critical(rows, float(a)).c_star for a in alphas]
        assert all(a >= b for a, b in zip(cs, cs[1:]))

    def test_alpha_one_gives_smallest_entry(self):
        rows = stream(0, 19).standard_normal((10, 2))
        found = search_critical(rows, 1.0)
        assert (found.c_star, found.coverage) == brute_force_search(rows, 1.0)
        assert found.c_star == np.abs(rows).min()

    def test_stack_matches_slices(self):
        # mean and pivot centring of (R, B, groups) stacks, with ties
        rng = stream(0, 20)
        for trial in range(60):
            r, b, width = (int(v) for v in rng.integers(1, (6, 30, 5)))
            t = rng.standard_normal((r, b, width))
            if trial % 3 == 0:
                t = np.round(t, 1)
            pivot = trial % 2 == 1
            centre = rng.standard_normal((r, 1, width)) if pivot else t.mean(axis=1, keepdims=True)
            alpha = float(rng.choice([rng.uniform(0.01, 0.99), 1.0 / b, 1.0]))
            found = search_critical(t - centre, alpha)
            assert found.c_star.shape == found.coverage.shape == (r,)
            for i in range(r):
                one = search_critical(t[i] - centre[i], alpha)
                assert (found.c_star[i], found.coverage[i]) == (one.c_star, one.coverage)
                assert (one.c_star, one.coverage) == brute_force_search(t[i] - centre[i], alpha)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            search_critical(np.empty((0, 2)), 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        rows = np.zeros((2, 5, 3))
        rows[1, 4, 2] = bad
        for centered in (rows[1], rows):
            with pytest.raises(ValueError, match="centered statistics contain non-finite values"):
                search_critical(centered, 0.1)

    @pytest.mark.parametrize(
        "alpha, message",
        [
            (True, "alpha must be a finite real number, got True"),
            ("0.1", "alpha must be a finite real number"),
            (np.nan, "alpha must be a finite real number"),
            (np.inf, "alpha must be a finite real number"),
            (0.0, r"alpha must lie in \(0, 1\]"),
            (1.01, r"alpha must lie in \(0, 1\]"),
            # the box would be the largest row maximum, with coverage 1.0, whatever alpha is
            (1e-17, "alpha must leave 1 - alpha below 1.0 in floating point, got 1e-17"),
        ],
    )
    def test_bad_alpha_rejected(self, alpha, message):
        with pytest.raises(ValueError, match=message):
            search_critical(np.ones((5, 2)), alpha)


@pytest.mark.parametrize("level", [0.01, 0.05, 0.1, 0.3, 1.0 / 3.0, 0.7, 0.95, 1.0])
def test_first_count_is_the_brute_force_count(level):
    for b in range(1, 601):
        assert first_count(b, level) == min(m for m in range(1, b + 1) if m / b >= level), (b, level)


def test_box_rank_is_the_first_count_reaching_the_level():
    # (19444, 0.27052...) is a case where ceil(B * (1 - alpha)) is one too high
    rng = stream(0, 21)
    cases = [(19444, 0.2705204690392923), (200_000, 0.05), (500, 0.05), (1, 0.5), (3, 1.0 / 3.0)]
    cases += [(int(rng.integers(1, 50_000)), float(rng.uniform(0.001, 0.999))) for _ in range(300)]
    for b, alpha in cases:
        m = next(m for m in range(1, b + 1) if m / b >= 1.0 - alpha)
        assert box_rank(b, alpha) == m - 1, (b, alpha)
