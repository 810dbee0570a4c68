import math

import numpy as np
import pytest

from equivar import (
    DegenerateDataError,
    GroupedSample,
    log_variance_contrasts,
    stream,
)
from equivar.descriptive import column_reduce, log_variance_rows, moment_rows, row_sum
from equivar.homogeneity import _row_medians

# A fixed two-group dataset reused by the oracle comparisons here and in the
# test-statistic checks.
FIXED_A = [0.1, -0.3, 0.5, 1.2, -0.9]
FIXED_B = [0.4, 0.0, -0.2, 0.8, -1.1]


def _oracle_moments(groups, use_harmonic):
    """Plain-Python, single-pass evaluation of the moment formulas."""
    count = len(groups)
    n = sum(len(g) for g in groups)
    mu4 = 0.0
    ss = 0.0
    s2 = []
    for g in groups:
        m = sum(g) / len(g)
        mu4 += sum((v - m) ** 4 for v in g)
        ss += sum((v - m) ** 2 for v in g)
        s2.append(sum((v - m) ** 2 for v in g) / (len(g) - 1))
    mu4 /= n
    sigma2 = ss / n
    kurt = mu4 / sigma2**2
    h = count / sum(1.0 / len(g) for g in groups)
    var_log = []
    for g in groups:
        m = h if use_harmonic else len(g)
        var_log.append((kurt - (m - 3.0) / m) / (m - 1.0))
    return mu4, sigma2, s2, var_log, h


def _oracle_contrasts(groups):
    _, _, s2, var_log, _ = _oracle_moments(groups, use_harmonic=False)
    count = len(groups)
    logs = [math.log(v) for v in s2]
    center = sum(logs) / count
    eta = [v - center for v in logs]
    lam = [math.sqrt((1.0 - 2.0 / count) * var_log[i] + sum(var_log) / count**2) for i in range(count)]
    return eta, lam, [e / l for e, l in zip(eta, lam)]


class TestGroupedSample:
    def test_requires_two_groups(self):
        with pytest.raises(DegenerateDataError, match="two groups"):
            GroupedSample([[1.0, 2.0]])

    def test_requires_two_observations_per_group(self):
        with pytest.raises(DegenerateDataError, match="group 1"):
            GroupedSample([[1.0, 2.0], [3.0]])
        with pytest.raises(DegenerateDataError, match="group 'b' has 1 observation"):
            GroupedSample({"a": [1.0, 2.0], "b": [3.0]})

    def test_mapping_keeps_its_order(self):
        d = GroupedSample({"z": [1.0, 2.0, 4.0], "a": [3.0, 5.0]})
        assert d.sizes == (3, 2)
        np.testing.assert_array_equal(d.groups[1], [3.0, 5.0])

    def test_rejects_non_finite(self):
        with pytest.raises(DegenerateDataError, match="non-finite"):
            GroupedSample([[1.0, float("nan")], [1.0, 2.0]])
        with pytest.raises(DegenerateDataError, match="group 'c' contains non-finite"):
            GroupedSample({"b": [1.0, 2.0], "c": [1.0, np.inf]})

    def test_counts(self):
        d = GroupedSample([[1, 2, 3], [4, 5], [6, 7, 8, 9]])
        assert d.sizes == (3, 2, 4)
        assert len(d) == 3
        assert [g.shape for g in d.rows] == [(1, 3), (1, 2), (1, 4)]

    def test_rejects_spreads_outside_the_supported_scales(self):
        base = np.array([[1, 2, 3, 4, 6], [1, 5, 9, 2, 14], [3, 3.5, 7, 1, 2]], dtype=float)
        for scale in (1e70, 1e-70):
            assert GroupedSample(scale * base).sizes == (5, 5, 5)
        for scale in (1e80, 1e-80, 1e-200):
            with pytest.raises(DegenerateDataError, match="group 0 deviates"):
                GroupedSample(scale * base)
        with pytest.raises(DegenerateDataError, match="group 1 deviates"):
            GroupedSample([[1.0, 2.0], [1e308, -1e308]])  # the deviation overflows
        assert GroupedSample([[1e200, 1e200], [1.0, 2.0]]).sizes == (2, 2)  # zero spread passes


def _s2(data):
    return moment_rows(data.rows)[0][0]


def _moments(groups, use_harmonic=False):
    """mu4, sigma2, var(ln s_i^2) and the error rows of one dataset, from the row kernels."""
    rows = GroupedSample(groups).rows
    _, mu4, sigma2 = moment_rows(rows)
    _, var_log, errors = log_variance_rows(rows, use_harmonic)
    return mu4[0], sigma2[0], var_log[0], errors


class TestSummarize:
    """Per-group summaries as the row kernels compute them."""

    def test_textbook_variances(self):
        s2, _, sigma2 = moment_rows(GroupedSample([[1, 2, 3], [2, 4, 6]]).rows)
        np.testing.assert_allclose(s2, [[1.0, 4.0]])
        assert sigma2[0] * 6 == pytest.approx(2 * 1.0 + 2 * 4.0)

    def test_even_n_median_is_midpoint(self):
        assert _row_medians(np.array([[1.0, 2.0, 3.0, 4.0]]))[0, 0] == 2.5

    def test_constant_group_has_zero_variance(self):
        np.testing.assert_allclose(_s2(GroupedSample([[5, 5, 5], [1, 2, 3]])), [0.0, 1.0])


class TestEstimateMoments:
    """The pooled moments and var(ln s_i^2) estimates of one dataset."""

    def test_harmonic_mean(self):
        # with use_harmonic, every group's estimate uses m = 2 / (1/5 + 1/10) = 20/3
        mu4, sigma2, var_log, _ = _moments([list(range(5)), list(range(10))], use_harmonic=True)
        m = 20.0 / 3.0
        np.testing.assert_allclose(var_log, (mu4 / sigma2**2 - (m - 3.0) / m) / (m - 1.0), rtol=1e-14)

    def test_var_log_s2_at_kurtosis_three(self):
        # Symmetric 10-point set engineered so the pooled fourth-moment ratio
        # is 3; the per-group formula then gives (3 - 7/10) / 9 = 23/90.
        y = math.sqrt(6.0 + math.sqrt(50.0))
        g = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, y, -y]
        mu4, sigma2, var_log, _ = _moments([g, g])
        assert mu4 / sigma2**2 == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(var_log, 23.0 / 90.0, rtol=1e-12)

    def test_oracle_agreement_fixed_dataset(self):
        for harmonic in (False, True):
            mu4, sigma2, var_log, _ = _moments([FIXED_A, FIXED_B], use_harmonic=harmonic)
            mu4_o, sigma2_o, _, var_log_o, _ = _oracle_moments([FIXED_A, FIXED_B], harmonic)
            assert mu4 == pytest.approx(mu4_o, rel=1e-12)
            assert sigma2 == pytest.approx(sigma2_o, rel=1e-12)
            np.testing.assert_allclose(var_log, var_log_o, rtol=1e-12)

    def test_oracle_agreement_random(self):
        rng = stream(100)
        for trial in range(20):
            groups = [list(rng.normal(size=rng.integers(2, 12))) for _ in range(rng.integers(2, 5))]
            mu4, sigma2, var_log, _ = _moments(groups)
            mu4_o, sigma2_o, _, var_log_o, _ = _oracle_moments(groups, use_harmonic=False)
            assert mu4 == pytest.approx(mu4_o, rel=1e-12)
            assert sigma2 == pytest.approx(sigma2_o, rel=1e-12)
            np.testing.assert_allclose(var_log, var_log_o, rtol=1e-12)

    def test_kurtosis_ratio_at_least_one(self):
        rng = stream(101)
        for _ in range(50):
            groups = [rng.normal(size=5) for _ in range(3)]
            mu4, sigma2, _, _ = _moments(groups)
            assert mu4 / sigma2**2 >= 1.0

    def test_all_constant_rejected(self):
        _, sigma2, _, errors = _moments([[2, 2, 2], [3, 3]])
        assert sigma2 == 0.0
        assert set(errors) == {0} and isinstance(errors[0], DegenerateDataError)
        assert "zero sample variance" in str(errors[0])


class TestLogVarianceContrasts:
    def test_equal_variances_give_zero(self):
        d = GroupedSample([[0, 1, 2], [5, 6, 7], [9, 10, 11]])
        c = log_variance_contrasts(d)
        np.testing.assert_allclose(c.contrast, 0.0, atol=1e-14)
        np.testing.assert_allclose(c.t, 0.0, atol=1e-14)

    def test_two_group_log_ratio(self):
        d = GroupedSample([[-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])  # variances 4 and 1
        c = log_variance_contrasts(d)
        np.testing.assert_allclose(c.contrast, [math.log(2.0), -math.log(2.0)], rtol=1e-14)

    def test_oracle_agreement(self):
        c = log_variance_contrasts(GroupedSample([FIXED_A, FIXED_B]))
        eta, lam, t = _oracle_contrasts([FIXED_A, FIXED_B])
        np.testing.assert_allclose(c.contrast, eta, rtol=1e-12)
        np.testing.assert_allclose(c.se, lam, rtol=1e-12)
        np.testing.assert_allclose(c.t, t, rtol=1e-12)

    def test_contrasts_sum_to_zero(self):
        rng = stream(102)
        for _ in range(50):
            groups = [rng.normal(size=rng.integers(2, 10)) for _ in range(rng.integers(2, 6))]
            c = log_variance_contrasts(GroupedSample(groups))
            scale = max(1.0, float(np.abs(c.contrast).max()))
            assert abs(c.contrast.sum()) < 1e-12 * scale

    def test_zero_variance_group_rejected(self):
        with pytest.raises(DegenerateDataError, match="zero sample variance"):
            log_variance_contrasts(GroupedSample([[1, 1, 1], [1, 2, 3]]))


class TestInvariances:
    def test_scale_invariance_of_t(self):
        rng = stream(103)
        groups = [rng.normal(size=8) for _ in range(3)]
        base = log_variance_contrasts(GroupedSample(groups))
        for c in (10.0, 0.001, 7.3):
            scaled = log_variance_contrasts(GroupedSample([c * np.asarray(g) for g in groups]))
            np.testing.assert_allclose(scaled.t, base.t, rtol=1e-10)

    def test_location_invariance(self):
        rng = stream(104)
        groups = [rng.normal(size=6) for _ in range(3)]
        data = GroupedSample(groups)
        shifted = GroupedSample([np.asarray(g) + off for g, off in zip(groups, (5.0, -2.0, 100.0))])
        np.testing.assert_allclose(_s2(shifted), _s2(data), rtol=1e-9)
        _, mu4_0, sigma2_0 = moment_rows(data.rows)
        _, mu4_1, sigma2_1 = moment_rows(shifted.rows)
        assert mu4_1[0] == pytest.approx(mu4_0[0], rel=1e-9)
        assert sigma2_1[0] == pytest.approx(sigma2_0[0], rel=1e-9)
        np.testing.assert_allclose(
            log_variance_contrasts(shifted).t, log_variance_contrasts(data).t, rtol=1e-9
        )


def _awkward_rows(n, r):
    """r rows of n values: first rows that test the order's edge cases, then values spread over many scales."""
    alternating = np.where(np.arange(n) % 2, 0.0, -0.0)
    special = [
        np.full(n, -0.0),                       # +0.0 from a zero start, -0.0 from the first value
        alternating,                            # +-0.0
        np.full(n, 5e-324) * (-1.0) ** np.arange(n),  # subnormals
        np.full(n, 1.5e308),                    # overflows past the first pair
        np.where(np.arange(n) == n // 2, np.nan, 1.0),
        alternating - 5e-324,
    ]
    rng = stream(n, r)
    x = rng.standard_normal((r, n)) * 10.0 ** rng.integers(-20, 21, (r, n))
    for i, row in enumerate(special[:r]):
        x[i] = row
    return x


def _layouts(x):
    """x as a contiguous array and as a strided column block of a wider array."""
    draws = np.full((x.shape[0], x.shape[1] + 7), np.nan)
    draws[:, 3:3 + x.shape[1]] = x
    return [x, draws[:, 3:3 + x.shape[1]]]


def _same_bits(ours, theirs):
    return np.array_equal(ours, theirs, equal_nan=True) and np.array_equal(np.signbit(ours), np.signbit(theirs))


class TestRowReductions:
    """The short-row helpers give numpy's row reductions bit for bit, signs of zeros included."""

    @pytest.mark.parametrize("r", [1, 2, 13, 6500])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_row_sum_is_numpys_row_sum(self, n, r):
        for x in _layouts(_awkward_rows(n, r)):
            with np.errstate(over="ignore", invalid="ignore"):
                assert _same_bits(row_sum(x), x.sum(axis=1))
                assert _same_bits(row_sum(x) / n, x.mean(axis=1))

    @pytest.mark.parametrize("r", [1, 2, 13, 6500])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_column_reductions_are_numpys(self, n, r):
        for x in _layouts(_awkward_rows(n, r)):
            assert _same_bits(column_reduce(np.maximum, x), x.max(axis=-1))
            assert _same_bits(column_reduce(np.maximum, x[None]), x[None].max(axis=-1))  # an (R, B, k) stack
            finite = np.isfinite(x)
            assert np.array_equal(column_reduce(np.logical_and, finite), finite.all(axis=1))
