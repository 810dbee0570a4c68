import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from equivar import (
    NumericError,
    chi2_cdf,
    chi2_quantile,
    f_cdf,
    f_quantile,
)


def _f_at_beta(t, a, b):
    """The x at which F(2a, 2b) has CDF I_t(a, b): t = a x / (a x + b)."""
    return b * t / (a * (1.0 - t))


class TestIncompleteBeta:
    """f_cdf(x, 2a, 2b) is the regularized incomplete beta function I_t(a, b)."""

    def test_boundaries(self):
        assert f_cdf(0.0, 4.0, 6.0) == 0.0
        assert f_cdf(math.inf, 4.0, 6.0) == 1.0

    def test_uniform_case(self):
        assert f_cdf(_f_at_beta(0.3, 1.0, 1.0), 2.0, 2.0) == pytest.approx(0.3, abs=1e-14)

    def test_beta_2_3_closed_form(self):
        # Beta(2, 3) CDF expands to 6t^2 - 8t^3 + 3t^4.
        for t in [0.1, 0.25, 0.4, 0.5, 0.75, 0.9]:
            expected = 6 * t**2 - 8 * t**3 + 3 * t**4
            assert f_cdf(_f_at_beta(t, 2.0, 3.0), 4.0, 6.0) == pytest.approx(expected, abs=1e-10)
        assert f_cdf(_f_at_beta(0.4, 2.0, 3.0), 4.0, 6.0) == pytest.approx(0.5248, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            f_cdf(1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            f_cdf(1.0, 2.0, -1.0)


def _gamma_series(s, x, terms=400):
    # P(s, x) by the ascending series for the lower incomplete gamma function.
    total = 0.0
    term = 1.0 / s
    for k in range(terms):
        total += term
        term *= x / (s + k + 1)
        if term < 1e-18 * total:
            break
    return math.exp(s * math.log(x) - x - math.lgamma(s)) * total


class TestIncompleteGamma:
    """chi2_cdf(2x, 2s) is the lower regularized incomplete gamma function P(s, x)."""

    def test_boundary(self):
        assert chi2_cdf(0.0, 5.0) == 0.0

    def test_exponential_case(self):
        assert chi2_cdf(2.0, 2.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)

    def test_series_oracle(self):
        for s, x in [(2.5, 3.1), (0.7, 0.2), (4.0, 1.5), (1.5, 6.0)]:
            assert chi2_cdf(2.0 * x, 2.0 * s) == pytest.approx(_gamma_series(s, x), abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            chi2_cdf(1.0, -2.0)
        with pytest.raises(ValueError):
            chi2_cdf(1.0, 0.0)


class TestFQuantile:
    def test_table_values(self):
        assert f_quantile(0.95, 1, 10) == pytest.approx(4.9646, abs=5e-5)
        assert f_quantile(0.95, 2, 20) == pytest.approx(3.4928, abs=5e-5)

    def test_median_of_equal_dfs_is_one(self):
        for d in [1, 2, 5, 17, 100]:
            assert f_quantile(0.5, d, d) == pytest.approx(1.0, abs=1e-9)

    def test_against_scipy(self):
        for p in [0.01, 0.1, 0.5, 0.9, 0.95, 0.99]:
            for df1, df2 in [(1, 10), (2, 20), (3, 8), (10, 3)]:
                assert f_quantile(p, df1, df2) == pytest.approx(
                    scipy.stats.f.ppf(p, df1, df2), rel=1e-9
                )

    def test_round_trip(self):
        for p in np.arange(0.01, 1.0, 0.01):
            x = f_quantile(float(p), 3, 12)
            assert abs(f_cdf(x, 3, 12) - p) < 1e-8

    def test_monotone_in_p(self):
        qs = [f_quantile(p, 4, 9) for p in np.linspace(0.01, 0.99, 25)]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_p_domain(self):
        with pytest.raises(ValueError):
            f_quantile(0.0, 1, 10)
        with pytest.raises(ValueError):
            f_quantile(1.0, 1, 10)


class TestChi2Quantile:
    def test_table_values(self):
        assert chi2_quantile(0.95, 1) == pytest.approx(3.8415, abs=5e-5)
        assert chi2_quantile(0.95, 3) == pytest.approx(7.8147, abs=5e-5)

    def test_two_df_closed_form(self):
        # chi-square with 2 df is Exponential(rate 1/2): quantile -2 ln(1 - p).
        for p in [0.05, 0.5, 0.95, 0.99]:
            assert chi2_quantile(p, 2) == pytest.approx(-2.0 * math.log(1.0 - p), rel=1e-9)

    def test_against_scipy(self):
        for p in [0.01, 0.25, 0.5, 0.9, 0.95, 0.999]:
            for df in [1, 2, 3, 7, 30]:
                assert chi2_quantile(p, df) == pytest.approx(scipy.stats.chi2.ppf(p, df), rel=1e-9)

    def test_round_trip(self):
        for p in np.arange(0.01, 1.0, 0.01):
            x = chi2_quantile(float(p), 5)
            assert abs(chi2_cdf(x, 5) - p) < 1e-8


def _f_log_pdf(x, d1, d2):
    lb = math.lgamma(d1 / 2) + math.lgamma(d2 / 2) - math.lgamma((d1 + d2) / 2)
    return (
        (d1 / 2) * math.log(d1 / d2)
        + (d1 / 2 - 1) * math.log(x)
        - ((d1 + d2) / 2) * math.log1p(d1 * x / d2)
        - lb
    )


def test_f_cdf_matches_density_integral():
    # The incomplete-beta route must agree with direct quadrature of the
    # F density on small degrees of freedom.
    for d1, d2 in [(1, 4), (2, 2), (3, 5), (5, 3)]:
        for upper in [0.5, 1.0, 2.5]:
            val, err = scipy.integrate.quad(
                lambda x: math.exp(_f_log_pdf(x, d1, d2)), 0.0, upper, limit=200
            )
            assert f_cdf(upper, d1, d2) == pytest.approx(val, abs=max(1e-9, 10 * err))


def test_numeric_error_is_distinct_type():
    assert issubclass(NumericError, RuntimeError)


def test_non_finite_quantile_raises_numeric_error():
    with pytest.raises(NumericError, match="F quantile"):
        f_quantile(0.95, math.inf, 10)
    with pytest.raises(NumericError, match="chi-square quantile"):
        chi2_quantile(0.95, math.inf)
