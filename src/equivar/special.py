"""CDFs and quantiles of the F and chi-square reference distributions.

Each function checks its arguments and calls scipy.special: the CDFs are
``fdtr`` and ``chdtr``, and the quantiles their inverses ``fdtri`` and
``gammaincinv`` (the chi-square(df) quantile at p is twice the Gamma(df/2)
quantile at p).
"""

from __future__ import annotations

import math

from scipy import special as _sp

from .errors import NumericError

__all__ = [
    "f_cdf",
    "chi2_cdf",
    "f_quantile",
    "chi2_quantile",
]


def _check_df(*df: float) -> None:
    if not all(d > 0.0 for d in df):
        raise ValueError(f"degrees of freedom must be positive, got {df if len(df) > 1 else df[0]}")


def _check_p(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")


def _finite(x, what: str, p: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise NumericError(f"{what} quantile at p={p} is not finite: {x}")
    return x


def f_cdf(x: float, df1: float, df2: float) -> float:
    """CDF of the F(df1, df2) distribution."""
    _check_df(df1, df2)
    return 0.0 if x <= 0.0 else float(_sp.fdtr(df1, df2, x))


def chi2_cdf(x: float, df: float) -> float:
    """CDF of the chi-square distribution with ``df`` degrees of freedom."""
    _check_df(df)
    return 0.0 if x <= 0.0 else float(_sp.chdtr(df, x))


def f_quantile(p: float, df1: float, df2: float) -> float:
    """Inverse CDF of the F(df1, df2) distribution."""
    _check_p(p)
    _check_df(df1, df2)
    return _finite(_sp.fdtri(df1, df2, p), "F", p)


def chi2_quantile(p: float, df: float) -> float:
    """Inverse CDF of the chi-square distribution with ``df`` degrees of freedom."""
    _check_p(p)
    _check_df(df)
    return _finite(2.0 * _sp.gammaincinv(0.5 * df, p), "chi-square", p)
