import math
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest

import equivar.descriptive
from equivar import (
    DegenerateDataError,
    GroupedSample,
    log_variance_contrasts,
    stream,
)
from equivar.descriptive import (
    _COLUMNS_FROM_ROWS, by_columns, group_moments, log_variance_rows, log_variance_t, moment_rows, pooled_moments,
    row_sum, running_sum,
)
from equivar.homogeneity import (
    BOOTSTRAP_LEVENE, BOX, SHOEMAKER, _curtailment, _levene_combine, _levene_group, _levene_stat_rows, _row_medians,
    batched,
)

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

    @pytest.mark.parametrize("groups, name", [
        ({"a": [1, 2], "b": [3, "x"]}, "'b'"),
        ([[1.0, 2.0], [3.0, 2j]], "1"),
        ([np.array([1.0, 2.0 + 1e-9j]), [1.0, 2.0]], "0"),
        ([[1, 2], [3, 10**400]], "1"),
        ([[True, False, True], [1.0, 2.0, 3.0]], "0"),
        ([np.array([True, False, True]), [1.0, 2.0, 3.0]], "0"),
        ([["1.5", "2", "3"], [1.0, 2.0, 3.0]], "0"),
        ([[1.0, 2.0], [b"1", b"2"]], "1"),
        ([[None, 1.0], [1.0, 2.0]], "0"),
    ], ids=["string", "complex", "complex_array", "int_beyond_float", "bool", "bool_array", "numeric_string",
            "bytes", "none"])
    def test_rejects_a_value_that_is_not_a_real_number(self, groups, name):
        with pytest.raises(DegenerateDataError, match=f"group {name} holds a value that is not a real number"):
            GroupedSample(groups)

    @pytest.mark.parametrize("group", [
        np.array([[1.0, 2.0], [3.0, 4.0]]),
        [[1.0, 2.0], [3.0, 4.0]],
        np.array(2.5),
        [np.array([1.0, 2.0]), np.array([3.0, 4.0])],
        ([1.0], [2.0], [3.0]),
    ], ids=["array_2d", "nested_list", "array_0d", "list_of_arrays", "tuple_of_lists"])
    def test_rejects_a_group_that_is_not_one_dimensional(self, group):
        # the same values are refused whether they come as an array or as nested sequences, not flattened
        with pytest.raises(DegenerateDataError, match="group 0 is not one-dimensional"):
            GroupedSample([group, [1.0, 2.0, 3.0]])
        with pytest.raises(DegenerateDataError, match="group 'b' is not one-dimensional"):
            GroupedSample({"a": [1.0, 2.0, 3.0], "b": group})

    def test_accepts_real_numbers_of_any_numeric_type(self):
        d = GroupedSample([np.array([1, 2, 3], dtype=np.int32), [np.float32(0.5), 2, Fraction(3, 2)], range(4)])
        np.testing.assert_array_equal(d.groups[1], [0.5, 2.0, 1.5])
        assert [g.dtype for g in d.groups] == [np.float64] * 3

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
    return moment_rows(data.rows)[0][:, 0]


def _moments(groups, use_harmonic=False):
    """mu4, sigma2, var(ln s_i^2) and the error rows of one dataset, from the row kernels."""
    rows = GroupedSample(groups).rows
    _, mu4, sigma2 = moment_rows(rows)
    _, var_log, errors = log_variance_rows(rows, use_harmonic)
    return mu4[0], sigma2[0], var_log[:, 0], errors


class TestSummarize:
    """Per-group summaries as the row kernels compute them."""

    def test_textbook_variances(self):
        s2, _, sigma2 = moment_rows(GroupedSample([[1, 2, 3], [2, 4, 6]]).rows)
        np.testing.assert_allclose(s2.T, [[1.0, 4.0]])
        assert sigma2[0] * 6 == pytest.approx(2 * 1.0 + 2 * 4.0)

    def test_even_n_median_is_midpoint(self):
        assert _row_medians(np.array([[1.0, 2.0, 3.0, 4.0]]))[0] == 2.5

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


# row counts on both sides of the shape rule, which takes columns from _COLUMNS_FROM_ROWS rows
_ROW_COUNTS = [1, 2, 13, _COLUMNS_FROM_ROWS - 1, _COLUMNS_FROM_ROWS, 6500]


class TestRowReductions:
    """The short-row helpers give numpy's row reductions bit for bit, signs of zeros included."""

    def test_shape_rule(self):
        assert by_columns(_COLUMNS_FROM_ROWS, 15) and not by_columns(_COLUMNS_FROM_ROWS, 16)
        assert not by_columns(_COLUMNS_FROM_ROWS - 1, 2)

    @pytest.mark.parametrize("r", _ROW_COUNTS)
    @pytest.mark.parametrize("n", range(1, 18))
    def test_row_sum_is_numpys_row_sum(self, n, r):
        rows = _awkward_rows(n, r)
        # numpy adds the columns of a Fortran-ordered array in turn, not in its C-order pairwise order
        for x in _layouts(rows) + [np.asfortranarray(rows)]:
            with np.errstate(over="ignore", invalid="ignore"):
                assert _same_bits(row_sum(x), x.sum(axis=1))
                assert _same_bits(row_sum(x) / n, x.mean(axis=1))
                assert _same_bits(row_sum([x[:, j].copy() for j in range(n)]), rows.sum(axis=1))

    @pytest.mark.parametrize("r", _ROW_COUNTS)
    @pytest.mark.parametrize("n", range(1, 13))
    def test_column_reductions_are_numpys(self, n, r):
        # the box test's reductions over group rows: n rows of r values, the columns of x
        for x in _layouts(_awkward_rows(n, r)):
            rows = np.ascontiguousarray(x.T)
            assert _same_bits(np.moveaxis(rows, 0, -1).max(axis=-1), x.max(axis=-1))
            stack = np.moveaxis(rows[:, None], 0, -1)  # the (R, B, k) view of a (k, R, B) stack
            assert _same_bits(stack.max(axis=-1), x[None].max(axis=-1))
            assert np.array_equal(np.logical_and.reduce(np.isfinite(rows)), np.isfinite(x).all(axis=1))


def _reference_moments(groups):
    """``moment_rows`` as plain numpy broadcasts and row sums."""
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


def _reference_contrasts(groups, use_harmonic):
    """var(ln s_i^2), contrast, se and t of ``log_variance_rows`` as plain numpy broadcasts and row sums."""
    s2, mu4, sigma2 = _reference_moments(groups)
    m = np.asarray([g.shape[1] for g in groups], dtype=float)
    if use_harmonic:
        m = np.full(len(m), len(m) / float((1.0 / m).sum()))
    k = len(groups)
    kurt = mu4 / (sigma2 * sigma2)
    var_log_s2 = (kurt[:, None] - (m - 3.0) / m) / (m - 1.0)
    log_s2 = np.log(s2)
    contrast = log_s2 - log_s2.mean(axis=1, keepdims=True)
    se = np.sqrt((1.0 - 2.0 / k) * var_log_s2 + var_log_s2.sum(axis=1, keepdims=True) / k**2)
    return var_log_s2, contrast, se, contrast / se


def _reference_levene(blocks):
    """The Levene statistic of ``_levene_stat_rows`` as plain numpy broadcasts and row sums, sort medians."""
    k = len(blocks) - 1
    n = sum(bl.shape[1] for bl in blocks)
    e = []
    for bl in blocks:
        s, h = np.sort(bl, axis=1), bl.shape[1] // 2
        median = s[:, h:h + 1] if bl.shape[1] % 2 else (s[:, h - 1:h] + s[:, h:h + 1]) / 2.0
        e.append(np.abs(bl - median))
    sums = [x.sum(axis=1) for x in e]
    means = np.stack([total / x.shape[1] for total, x in zip(sums, e)], axis=1)
    grand = sum(sums) / n
    sizes = np.array([x.shape[1] for x in e], dtype=float)
    ssb = (sizes * (means - grand[:, None]) ** 2).sum(axis=1)
    ssw = sum(((x - m[:, None]) ** 2).sum(axis=1) for x, m in zip(e, means.T))
    out = np.zeros_like(ssb)
    ok = ssw > np.finfo(float).eps * n * grand * grand
    out[ok] = (ssb[ok] / k) / (ssw[ok] / (n - k - 1))
    out[~ok & (ssb > 0.0)] = np.inf
    return out


# from 8 groups a sum across the groups takes numpy's pairwise order, from 16 numpy's own sum
_MANY_GROUPS = [(5, 6, 7, 8, 9, 10, 11, 12, 13), (4,) * 17]


class TestKernelBits:
    """The row kernels give their plain numpy formulas bit for bit, by rows and by columns."""

    @pytest.mark.parametrize("r", [13, _COLUMNS_FROM_ROWS - 1, _COLUMNS_FROM_ROWS, 2600])
    @pytest.mark.parametrize("sizes", [(2, 3), (5, 5), (7, 15), (8, 9, 16), (10, 15, 12), (4, 40)] + _MANY_GROUPS)
    def test_kernels_match_plain_numpy(self, sizes, r):
        bounds = np.cumsum((0,) + sizes)
        for x in _layouts(_awkward_rows(int(bounds[-1]), r)):
            groups = [x[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])]
            with np.errstate(all="ignore"):
                s2, mu4, sigma2 = moment_rows(groups)
                for ours, theirs in zip((s2.T, mu4, sigma2), _reference_moments(groups)):
                    assert _same_bits(ours, theirs)
                for use_harmonic in (False, True):
                    contrasts, var_log_s2, _ = log_variance_rows(groups, use_harmonic)
                    ours = (var_log_s2, contrasts.contrast, contrasts.se, contrasts.t)
                    for a, b in zip(ours, _reference_contrasts(groups, use_harmonic)):
                        assert _same_bits(a.T, b)
                assert _same_bits(_levene_stat_rows(groups)[0], _reference_levene(groups))

    @pytest.mark.parametrize("r", [105, 1200])
    @pytest.mark.parametrize("sizes", _MANY_GROUPS)
    def test_shoemaker_sums_the_groups_in_numpys_order(self, sizes, r):
        bounds = np.cumsum((0,) + sizes)
        x = _awkward_rows(int(bounds[-1]), r)
        groups = [np.ascontiguousarray(x[:, lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        with np.errstate(all="ignore"):
            stat = batched((SHOEMAKER,), groups, {}, 0.05)[SHOEMAKER].statistic
            var_log_s2, contrast, _, _ = _reference_contrasts(groups, True)
            assert _same_bits(stat, (contrast**2 / var_log_s2).sum(axis=1))


def _sliced(reduce, group, cuts):
    """``reduce`` of the slices ``group[lo:hi]`` between ``cuts``, each of its (R,) results joined across the slices."""
    parts = [reduce(group[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    return tuple(np.concatenate(column) for column in zip(*parts))


class TestSlicedKernels:
    """Per-group reductions of slices of rows, joined and combined, give the whole-stack kernels bit for bit.

    The slices fall on both sides of the shape rule: a row alone, a dozen
    rows and stacks of 1000 and more.
    """

    @pytest.mark.parametrize("r", [13, _COLUMNS_FROM_ROWS + 300, 2600])
    @pytest.mark.parametrize("sizes", [(2, 3), (7, 15), (8, 9, 16), (4, 40)] + _MANY_GROUPS)
    def test_slices_match_the_whole_stack(self, sizes, r):
        bounds = np.cumsum((0,) + sizes)
        x = _awkward_rows(int(bounds[-1]), r)
        groups = [np.ascontiguousarray(x[:, lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        cuts = sorted({0, 1, min(r, 13), min(r, _COLUMNS_FROM_ROWS + 13), r})
        assert any(by_columns(hi - lo, 2) for lo, hi in zip(cuts, cuts[1:])) == (r > _COLUMNS_FROM_ROWS)
        with np.errstate(all="ignore"):
            whole = moment_rows(groups)
            moments = pooled_moments(sizes, [_sliced(group_moments, g, cuts) for g in groups])
            for ours, theirs in zip(moments, whole):
                assert _same_bits(ours, theirs)
            assert _same_bits(log_variance_t(sizes, moments), log_variance_rows(groups)[0].t)
            stat, medians, degenerate = _levene_stat_rows(groups)
            parts = [_sliced(_levene_group, g, cuts) for g in groups]
            assert _same_bits(_levene_combine(sizes, parts)[0], stat)
            assert np.array_equal(_levene_combine(sizes, parts)[1], degenerate)
            for (median, _, _), whole_median in zip(parts, medians):
                assert _same_bits(median, whole_median)


class TestSlicedResamples:
    """Bootstrap resamples drawn and reduced in slices give the outcomes of whole draws, bit for bit.

    The cap is patched down to slices of 7 pooled rows, which divide
    neither b nor the early round's m, and to slices of one row.  The
    mixes put smoothed groups (under 10) with unsmoothed ones, whose
    blocks are reduced as their slices land; the observed statistics of
    two of the four datasets fall below the early round's gate.
    """

    @pytest.mark.parametrize("sizes", [(12, 15), (4, 12), (3, 5), (5, 6, 7, 8, 9, 10, 11, 12, 13), (4,) * 16 + (12,)],
                             ids=["unsmoothed", "mixed", "smoothed", "nine_groups", "seventeen_groups"])
    def test_slices_match_whole_draws(self, sizes, monkeypatch):
        rng = stream(81, len(sizes))
        groups = [rng.normal(size=(4, n)) for n in sizes]
        for g in groups:  # even spreads in the first two datasets, a wide last group in the other two
            g[:2] = np.linspace(-1.0, 1.0, g.shape[1]) + 0.01 * g[:2]
        groups[-1][2:] *= 4.0
        b, alpha = 60, 0.1  # c = 6 exceedances of b, and an early round of m = 12 resamples
        early = _levene_stat_rows(groups)[0] < _curtailment(alpha, b, sizes)[2]
        assert early.tolist() == [True, True, False, False]
        methods = (BOOTSTRAP_LEVENE, BOX)

        def run(p_values):
            rngs = {method: [stream(82, r, i) for r in range(4)] for i, method in enumerate(methods)}
            return pickle.dumps(batched(methods, groups, rngs, alpha, b, p_values=p_values))

        assert equivar.descriptive.slice_rows(sum(sizes)) >= 4 * b  # one batch, drawn whole
        whole = [run(p_values) for p_values in (True, False)]
        for cap in (7 * sum(sizes), 1):
            monkeypatch.setattr(equivar.descriptive, "_RESAMPLE_ELEMENTS", cap)
            assert [run(p_values) for p_values in (True, False)] == whole


class TestRowSumCheck:
    """The first ``row_sum`` call in a process compares its orders with numpy's own row sums."""

    def test_the_first_call_checks(self, monkeypatch):
        checks = []
        real = equivar.descriptive._check_row_sum
        monkeypatch.setattr(equivar.descriptive, "_row_sum_checked", False)
        monkeypatch.setattr(equivar.descriptive, "_check_row_sum", lambda: checks.append(1) or real())
        x = stream(80).normal(size=(3, 9))
        assert _same_bits(row_sum(x), x.sum(axis=1))
        assert _same_bits(row_sum(x), x.sum(axis=1))
        assert checks == [1] and equivar.descriptive._row_sum_checked

    def test_another_order_raises_naming_numpy(self, monkeypatch):
        real = equivar.descriptive._row_sum

        def reversed_order(x):
            x = np.stack(x, axis=1) if isinstance(x, list) else x
            return real(np.ascontiguousarray(x[:, ::-1]))

        monkeypatch.setattr(equivar.descriptive, "_row_sum", reversed_order)
        with pytest.raises(RuntimeError, match=f"numpy {re.escape(np.__version__)}'s row sums"):
            equivar.descriptive._check_row_sum()


class TestColumnMean:
    """``running_sum`` over group rows and row by row gives ``t.mean(axis=1)`` of an (R, b, k) stack bit for bit."""

    @pytest.mark.parametrize("k", [2, 4, 6])
    @pytest.mark.parametrize("b", [1, 7, 500, 2000])
    @pytest.mark.parametrize("r", [1, 13])
    def test_matches_the_stack_mean(self, r, b, k):
        rng = stream(0, r, b, k)
        t = rng.standard_normal((r, b, k)) * 10.0 ** rng.choice([-150.0, 0.0, 150.0], (r, b, k))
        t[:, :, 0] = -0.0           # sums to +0.0 from numpy's zero start
        t[:, : b // 2 + 1, 1] = -0.0  # a run of -0.0, then other values
        expected = t.mean(axis=1)
        scratch = np.empty(b)
        rows = np.ascontiguousarray(np.moveaxis(t, -1, 0))  # (k, R, b), as the box test centres its resamples
        for i in range(k):
            assert _same_bits(running_sum(rows[i]) / b, expected[:, i])
            # one row at a time into scratch, as calibrate_box sums its coordinate rows
            assert _same_bits(np.array([running_sum(row, scratch) for row in t[:, :, i]]) / b, expected[:, i])
