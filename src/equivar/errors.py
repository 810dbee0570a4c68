"""Exception types, and the checks of numbers and sequences shared across the package: the level and count rules."""

import math
import numbers
from collections.abc import Iterable


class DegenerateDataError(ValueError):
    """The data cannot support the requested statistic.

    Raised for structural problems such as groups with fewer than two
    observations, zero sample variances feeding a log, or residual pools
    with no variation.
    """


class NumericError(RuntimeError):
    """An iterative numeric routine failed (non-convergence, exhausted redraws)."""


# Exact-type checks: numpy integers and floats pass, bool and numpy.bool_ do not;
# is_real also requires a finite value.
def is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


# The ceiling on the values one piece of work may span, refused before anything is drawn: one dataset's
# b resamples (b * sum(sizes)), a simulation chunk of data (min(105, replications) * sum(sizes)), one
# sample of a distribution (n) and a calibration's draws (draws * groups).  2**32 float64 values are
# 32 GiB, 200 times the most of any cell of the tests, demos, bench or acceptance suite.
MAX_VALUES = 2**32


def level(alpha) -> float:
    """``alpha`` as a float if it is a finite real in (0, 1] whose 1 - alpha is below 1.0, else a ValueError."""
    if not is_real(alpha):
        raise ValueError(f"alpha must be a finite real number, got {alpha!r}")
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if 1.0 - alpha == 1.0:  # the F and chi-square quantiles need a level below 1
        raise ValueError(f"alpha must leave 1 - alpha below 1.0 in floating point, got {alpha}")
    return alpha


def count(name: str, value, least: int, most: int | None = None) -> int:
    """``value`` as an int if it is an exact integer (``is_int``) in [least, most], else a ValueError naming it."""
    if not is_int(value) or value < least or (most is not None and value > most):
        upper = "" if most is None else f" and at most {most}"
        raise ValueError(f"{name} must be an integer of at least {least}{upper}, got {value!r}")
    return int(value)


def checked_tuple(name: str, values, check, what: str) -> tuple:
    """``values`` as a tuple, each passing ``check``; a scalar or a string raises a ValueError naming ``name``."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise ValueError(f"{name} must be a sequence of {what}, got {values!r}")
    values = tuple(values)
    bad = [v for v in values if not check(v)]
    if bad:
        raise ValueError(f"{name} must hold {what} only, got {bad[0]!r}")
    return values
