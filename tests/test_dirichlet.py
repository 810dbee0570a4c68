import math
import warnings

import numpy as np
import pytest
from scipy.special import gammaln

import equivar.descriptive
from equivar import DirichletParams, NumericError, calibrate_box, log_contrast, sample_dirichlet, search_critical, stream
from equivar.bootstrap import box_rank
from equivar.descriptive import slice_rows


def two_group_contrast_pdf(w, nu1, nu2):
    """Closed-form density of the first contrast coordinate for two groups.

    Derived from the joint contrast density restricted to the line
    w1 + w2 = 0: the normalizing constant carries the group-count factor.
    """
    nu = nu1 + nu2
    log_const = math.log(2.0) + gammaln(nu) - gammaln(nu1) - gammaln(nu2)
    return np.exp(log_const - nu * np.logaddexp(w, -w) + (nu1 - nu2) * w)


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    assert actual.tobytes() == expected.tobytes()


# Oracles: the plain numpy formulas the calibration reproduces bit for bit.
def numpy_dirichlet(params, rng, size):
    shape = np.asarray(params.nu)
    g = rng.standard_gamma(np.broadcast_to(shape, (size, shape.size)))
    return g / g.sum(axis=1, keepdims=True)


def numpy_log_contrast(x):
    lx = np.log(x)
    return lx - lx.mean(axis=-1, keepdims=True)


def numpy_box(params, alpha, draws, rng):
    w = numpy_log_contrast(numpy_dirichlet(params, rng, draws))
    mean = w.mean(axis=0)
    sd = w.std(axis=0, ddof=1)
    row_max = np.sort(np.abs((w - mean) / sd).max(axis=1))
    c = row_max[box_rank(draws, alpha)]
    return mean, sd, c, np.searchsorted(row_max, c, side="right") / draws


# row sums: k = 9 repeat numpy's pairwise order by whole columns, k = 17 go to numpy's own sum, shorter rows add columns in turn
SHAPES = [
    (4.5, 4.5),
    (2.0, 7.0),
    (1.5, 1.5, 1.5),
    (2.0, 4.5, 7.0),
    (9.5, 9.5, 9.5, 9.5),
    (0.5, 2.0, 2.0, 9.5),
    (3.0,) * 9,
    tuple(0.5 + i for i in range(9)),
    (3.0,) * 17,
]

# Memory layouts of a (6, rows, k) batch; numpy sums a vector pairwise when its k values are adjacent, else in turn
LAYOUTS = {
    "1-D": lambda x: x[0, 0],
    "2-D": lambda x: x[0],
    "3-D": lambda x: x,
    "2-D Fortran": lambda x: np.asfortranarray(x[0]),
    "3-D Fortran": lambda x: np.asfortranarray(x),
    "strided": lambda x: x[::2, ::-1],
    "axes swapped": lambda x: x.transpose(1, 0, 2),
    "last axis inner": lambda x: np.asfortranarray(x.transpose(2, 0, 1)).transpose(1, 2, 0),
    "last axis between": lambda x: np.asfortranarray(x.transpose(0, 2, 1)).transpose(0, 2, 1),
}


class TestNumpyBits:
    @pytest.mark.parametrize("nu", SHAPES)
    def test_sample_dirichlet(self, nu):
        params = DirichletParams(nu)
        x = sample_dirichlet(params, stream(70), size=3001)
        assert_same_bits(x, numpy_dirichlet(params, stream(70), 3001))
        assert x.flags.c_contiguous

    @pytest.mark.parametrize("nu", [(4.5, 4.5), (2.0, 4.5, 7.0), (3.0,) * 9, (3.0,) * 17])
    def test_sample_dirichlet_in_chunks(self, nu, monkeypatch):
        # the gamma variates come in chunks of slice_rows(k) vectors; neither count below is a multiple of it
        params = DirichletParams(nu)
        size = 2 * slice_rows(len(nu)) + 5
        assert_same_bits(sample_dirichlet(params, stream(73), size), numpy_dirichlet(params, stream(73), size))
        monkeypatch.setattr(equivar.descriptive, "_RESAMPLE_ELEMENTS", 8 * len(nu) - 1)
        assert slice_rows(len(nu)) == 7
        assert_same_bits(sample_dirichlet(params, stream(74), 3001), numpy_dirichlet(params, stream(74), 3001))

    @pytest.mark.parametrize("nu", SHAPES)
    def test_calibrate_box(self, nu):
        params = DirichletParams(nu)
        box = calibrate_box(params, 0.05, 20_000, stream(71))
        mean, sd, c, coverage = numpy_box(params, 0.05, 20_000, stream(71))
        assert_same_bits(box.mean, mean)
        assert_same_bits(box.sd, sd)
        assert (box.half_width, box.coverage) == (c, coverage)

    @pytest.mark.parametrize("k", [2, 3, 4, 9, 12])
    @pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
    def test_log_contrast(self, k, layout):
        x = layout(np.exp(stream(72).normal(size=(6, 40, k))))
        before = x.copy()
        assert_same_bits(log_contrast(x), numpy_log_contrast(x))
        assert_same_bits(x, before)

    # from 1000 rows, row sums of 8 to 15 values go by whole columns
    @pytest.mark.parametrize("k", [9, 12])
    @pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
    def test_log_contrast_many_rows(self, k, layout):
        x = layout(np.exp(stream(72).normal(size=(6, 1000, k))))
        assert_same_bits(log_contrast(x), numpy_log_contrast(x))


class TestDirichletParams:
    def test_from_group_sizes(self):
        p = DirichletParams.from_group_sizes((10, 10))
        assert p.nu == (4.5, 4.5)

    def test_minimum_group_size(self):
        with pytest.raises(ValueError, match="at least 2"):
            DirichletParams.from_group_sizes((10, 1))

    def test_positive_shapes_required(self):
        with pytest.raises(ValueError, match="positive"):
            DirichletParams((1.0, 0.0))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: DirichletParams.from_group_sizes([5.7, 5]), r"sizes\[0\] must be an integer of at least 2, got 5.7"),
            (lambda: DirichletParams.from_group_sizes([True, 5]), r"sizes\[0\] must be an integer of at least 2, got True"),
            (lambda: DirichletParams.from_group_sizes(["5", 5]), r"sizes\[0\] must be an integer of at least 2, got '5'"),
            (lambda: DirichletParams((1.0, math.nan)), "shape parameters must hold finite real numbers"),
            (lambda: DirichletParams((1.0, math.inf)), "shape parameters must hold finite real numbers"),
            (lambda: DirichletParams((True, 1.0)), "shape parameters must hold finite real numbers"),
            (lambda: DirichletParams(3.0), "shape parameters must be a sequence of finite real numbers"),
            (lambda: DirichletParams("12"), "shape parameters must be a sequence of finite real numbers"),
            (lambda: DirichletParams((1.0,)), "need at least two shape parameters"),
            (lambda: DirichletParams.from_group_sizes([10**400, 5]), r"group size 10{400} is beyond the float range"),
            (lambda: DirichletParams.from_group_sizes([10]), r"need at least two group sizes, got \[10\]"),
            (lambda: DirichletParams.from_group_sizes([5, 1]), r"sizes\[1\] must be an integer of at least 2, got 1"),
        ],
        ids=["size 5.7", "size True", "size '5'", "shape nan", "shape inf", "shape True", "scalar", "string",
             "one shape", "size 10**400", "one size", "size 1"],
    )
    def test_malformed_input_rejected_at_construction(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_shapes_stored_as_a_hashable_tuple(self):
        from_list = DirichletParams([1.0, 2.0])
        assert from_list.nu == (1.0, 2.0)
        assert hash(from_list) == hash(DirichletParams((1.0, 2.0)))

    def test_numpy_integer_sizes_accepted(self):
        assert DirichletParams.from_group_sizes(np.array([10, 5])).nu == (4.5, 2.0)


class TestSampleDirichlet:
    def test_simplex_constraint(self):
        x = sample_dirichlet(DirichletParams((2.0, 3.0, 0.5)), stream(50), size=1000)
        assert np.all(x >= 0.0)
        np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-12)

    def test_uniform_marginal(self):
        # With both shapes 1 the first coordinate is Beta(1, 1) = U(0, 1).
        x = sample_dirichlet(DirichletParams((1.0, 1.0)), stream(52), size=100_000)
        assert x[:, 0].mean() == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("size", [0, -1, 2.5, 1000.0, True, None, "10"])
    def test_size_must_be_a_positive_integer(self, size):
        with pytest.raises(ValueError, match="size must be an integer of at least 1"):
            sample_dirichlet(DirichletParams((1.0, 2.0)), stream(0), size)

    def test_numpy_integer_size_accepted(self):
        assert sample_dirichlet(DirichletParams((1.0, 2.0)), stream(0), np.int64(3)).shape == (3, 2)

    def test_mean_matches_shape_ratio(self):
        x = sample_dirichlet(DirichletParams((2.0, 3.0)), stream(53), size=100_000)
        assert x[:, 0].mean() == pytest.approx(0.4, abs=0.005)

    def test_underflowed_row_raises_naming_the_shapes(self):
        # at shape 1e-3 both gamma variates of 454 of these 2000 rows underflow to 0
        params = DirichletParams((1e-3, 1e-3))
        with pytest.raises(NumericError, match=r"underflowed to 0 at shapes \(0\.001, 0\.001\)"):
            sample_dirichlet(params, stream(0), 2000)
        with pytest.raises(NumericError, match="underflowed"):
            calibrate_box(params, 0.05, 2000, stream(0))

    def test_underflowed_component_fails_calibration_naming_the_shapes(self):
        # at shapes 1e-3 and 5 the first gamma variate of 962 of these 2000 rows underflows to 0: the rows
        # normalize, but their log contrasts are undefined
        params = DirichletParams((1e-3, 5.0))
        assert np.count_nonzero(sample_dirichlet(params, stream(0), 2000) == 0.0) == 962
        with pytest.raises(NumericError, match=r"^962 Dirichlet components underflowed to 0 at shapes \(0\.001, 5\.0\)"):
            calibrate_box(params, 0.05, 2000, stream(0))


    def test_overflowed_total_raises_naming_the_shapes(self):
        # at shapes 1e308 each gamma variate is about 1e308, so every pair sums past the float maximum
        params = DirichletParams((1e308, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for draw in (
                lambda: sample_dirichlet(params, stream(0), 1000),
                lambda: calibrate_box(params, 0.05, 1000, stream(0)),
            ):
                with pytest.raises(NumericError, match=r"overflowed their float sum at shapes \(1e\+308, 1e\+308\)"):
                    draw()


class TestLogContrast:
    def test_equal_components_map_to_zero(self):
        np.testing.assert_allclose(log_contrast([0.5, 0.5]), [0.0, 0.0], atol=1e-15)

    def test_worked_example(self):
        e = math.e
        w = log_contrast([e / (e + 1.0), 1.0 / (e + 1.0)])
        np.testing.assert_allclose(w, [0.5, -0.5], rtol=1e-12)

    def test_zero_sum(self):
        x = sample_dirichlet(DirichletParams((1.5, 2.5, 3.5)), stream(54), size=500)
        w = log_contrast(x)
        assert np.abs(w.sum(axis=1)).max() < 1e-12

    def test_zero_component_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            log_contrast([0.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_component_rejected(self, bad):
        with pytest.raises(ValueError, match="log contrasts require finite, strictly positive components"):
            log_contrast([[0.5, 0.5], [bad, 1.0]])

    @pytest.mark.parametrize("x", [0.5, np.empty((3, 0))], ids=["scalar", "no components"])
    def test_needs_a_last_axis(self, x):
        with pytest.raises(ValueError, match="at least one component along the last axis"):
            log_contrast(x)


class TestCalibrateBox:
    def test_minimum_draws(self):
        with pytest.raises(ValueError, match="1000"):
            calibrate_box(DirichletParams((1.0, 1.0)), 0.05, 999, stream(55))

    @pytest.mark.parametrize("draws", [1500.5, 2000.0, True, "2000"])
    def test_draws_must_be_an_integer(self, draws):
        with pytest.raises(ValueError, match="draws must be an integer"):
            calibrate_box(DirichletParams((1.0, 2.0)), 0.05, draws, stream(0))

    @pytest.mark.parametrize("alpha, draws", [(1e-17, 1000), (9.99e-4, 1000), (4e-4, 2000), (1e-4, 1000)])
    def test_alpha_whose_box_is_the_largest_draw_refused(self, alpha, draws):
        # the box would be the last order statistic, with coverage 1 and a standard error of 0, whatever alpha is;
        # an alpha whose 1 - alpha rounds to 1.0, as 1e-17 does, fails the level rule first
        assert box_rank(draws, alpha) == draws - 1
        message = (
            f"alpha must leave 1 - alpha below 1.0 in floating point, got {alpha}" if 1.0 - alpha == 1.0
            else f"alpha {alpha} leaves no box among {draws} draws: the box would cover every draw or none"
        )
        with pytest.raises(ValueError, match=message):
            calibrate_box(DirichletParams((1.0, 2.0)), alpha, draws, stream(0))
        assert box_rank(draws, 1.0 / draws) == draws - 2
        assert calibrate_box(DirichletParams((1.0, 2.0)), 1.0 / draws, draws, stream(0)).coverage == (draws - 1) / draws

    def test_alpha_one_leaves_no_box(self):
        # box_rank gives -1 at alpha = 1: the box would cover no draw, and row_max[-1] is the largest
        assert box_rank(2000, 1.0) == -1
        with pytest.raises(ValueError, match="alpha 1.0 leaves no box among 2000 draws: the box would cover every draw or none"):
            calibrate_box(DirichletParams((1.0, 2.0)), 1.0, 2000, stream(0))

    @pytest.mark.parametrize("alpha", ["0.05", None, True, math.nan])
    def test_alpha_must_be_a_real_number(self, alpha):
        with pytest.raises(ValueError, match="alpha must be a finite real number"):
            calibrate_box(DirichletParams((1.0, 2.0)), alpha, 2000, stream(0))

    def test_symmetric_shapes_center_at_zero(self):
        box = calibrate_box(DirichletParams.from_group_sizes((10, 10)), 0.05, 100_000, stream(56))
        assert np.abs(box.mean).max() < 0.01
        np.testing.assert_allclose(box.shape_offset, 0.0, atol=1e-15)

    def test_coverage_in_quantile_window(self):
        draws = 50_000
        box = calibrate_box(DirichletParams((2.0, 7.0, 4.0)), 0.05, draws, stream(57))
        assert 0.95 <= box.coverage <= 0.95 + 1.0 / draws

    def test_equal_shapes_have_matching_spread(self):
        # Coordinates with equal shapes are exchangeable; their Monte Carlo
        # means and spreads agree up to noise (the coordinates are negatively
        # correlated, so differences carry up to twice the marginal error).
        box = calibrate_box(DirichletParams((2.0, 2.0, 5.0)), 0.05, 200_000, stream(58))
        assert box.mean[0] == pytest.approx(box.mean[1], abs=0.01)
        assert box.sd[0] == pytest.approx(box.sd[1], abs=0.01)

    def test_two_seeds_agree_within_stated_error(self):
        params = DirichletParams.from_group_sizes((10, 10))
        a = calibrate_box(params, 0.05, 200_000, stream(59))
        b = calibrate_box(params, 0.05, 200_000, stream(60))
        assert abs(a.half_width - b.half_width) < 3.0 * math.hypot(a.half_width_se, b.half_width_se)

    def test_half_width_is_the_bootstrap_box_rule(self):
        # draws * (1 - alpha) rounds up past 14184 here, and 14184 / draws
        # already reaches 1 - alpha: the box takes rank 14184, not 14185
        params, alpha, draws = DirichletParams.from_group_sizes((10, 10, 10)), 0.2705204690392923, 19444
        box = calibrate_box(params, alpha, draws, stream(1))
        w = log_contrast(sample_dirichlet(params, stream(1), size=draws))
        found = search_critical((w - box.mean) / box.sd, alpha)
        assert (box.half_width, box.coverage) == (found.c_star, found.coverage)
        assert (box.half_width, box.coverage) == (1.5200671280604978, 14184 / draws)

    def test_two_group_reduction_is_symmetric(self):
        # With two groups the contrast coordinates are mirror images, so the
        # standardized box reduces to a symmetric interval on either one.
        box = calibrate_box(DirichletParams((4.5, 4.5)), 0.05, 50_000, stream(61))
        assert box.sd[0] == pytest.approx(box.sd[1], rel=1e-10)


def test_sampler_matches_contrast_density():
    # Kolmogorov-Smirnov distance between the sampled first contrast
    # coordinate and the numerically integrated closed-form marginal.
    params = DirichletParams.from_group_sizes((10, 10))
    draws = 200_000
    w1 = np.sort(log_contrast(sample_dirichlet(params, stream(62), size=draws))[:, 0])
    grid = np.linspace(-4.0, 4.0, 8001)
    pdf = two_group_contrast_pdf(grid, *params.nu)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0 * np.diff(grid))])
    assert cdf[-1] == pytest.approx(1.0, abs=1e-9)
    cdf /= cdf[-1]
    empirical = np.searchsorted(w1, grid, side="right") / draws
    assert np.abs(empirical - cdf).max() < 0.01
