"""Exception types, and the exact-type checks of numbers and sequences, shared across the package."""

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


def checked_tuple(name: str, values, check, what: str) -> tuple:
    """``values`` as a tuple, each passing ``check``; a scalar or a string raises a ValueError naming ``name``."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise ValueError(f"{name} must be a sequence of {what}, got {values!r}")
    values = tuple(values)
    bad = [v for v in values if not check(v)]
    if bad:
        raise ValueError(f"{name} must hold {what} only, got {bad[0]!r}")
    return values
