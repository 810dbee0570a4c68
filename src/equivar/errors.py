"""Exception types, and the exact-type checks of numbers, shared across the package."""

import math
import numbers


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
