"""The smoothing constant of the bootstrap Levene test and the box critical-value rule.

``box_rank`` sizes both boxes: the bootstrap one here, the exact-normal one in ``dirichlet``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .descriptive import column_reduce
from .errors import is_real

__all__ = [
    "SMOOTH_FACTOR",
    "CriticalSearch",
    "box_rank",
    "search_critical",
]

# Shrink factor that keeps uniform jitter of width q variance-neutral:
# (12/13) * (q^2 + q^2/12) = q^2.
SMOOTH_FACTOR = math.sqrt(12.0 / 13.0)


@dataclass
class CriticalSearch:
    c_star: float | np.ndarray    # smallest candidate half-width with coverage >= 1 - alpha
    coverage: float | np.ndarray  # fraction of rows inside [-c_star, c_star] in every coordinate


def box_rank(b: int, alpha: float) -> int:
    """Index, from 0, of the box half-width among B ascending row maxima, for 0 < alpha < 1.

    It is m - 1 for m the first count with m / B >= 1 - alpha, compared in
    the float division that coverage is reported in, so the box is the
    smallest whose coverage reaches 1 - alpha.
    """
    m = math.ceil(b * (1.0 - alpha))  # rounding of the product can put this one off
    while m > 1 and (m - 1) / b >= 1.0 - alpha:
        m -= 1
    while m / b < 1.0 - alpha:
        m += 1
    return m - 1


def search_critical(centered, alpha: float) -> CriticalSearch:
    """Find the half-width of the smallest symmetric box covering 1 - alpha of rows.

    ``centered`` is a B x groups matrix of centered bootstrap statistics,
    or an (R, B, groups) stack of R such matrices, searched one by one;
    for a stack, both fields are arrays of length R.  Candidate half-widths
    are the absolute values of all centered entries.  Coverage counts rows
    whose every coordinate lies in [-c, c], boundary inclusive, so it is
    non-decreasing in c; the search returns the smallest candidate whose
    coverage reaches 1 - alpha.  A row lies inside the box exactly when
    its largest |entry| does, so for alpha < 1 that candidate is the m-th
    smallest row maximum, m - 1 = ``box_rank(B, alpha)``; at alpha = 1 it is
    the smallest entry.
    """
    rows = np.asarray(centered, dtype=float)
    if rows.ndim not in (2, 3) or rows.size == 0:
        raise ValueError("need a nonempty B x groups matrix, or a stack of them, of centered statistics")
    if not is_real(alpha):
        raise ValueError(f"alpha must be a finite real number, got {alpha!r}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("centered statistics contain non-finite values")
    b = rows.shape[-2]
    magnitude = np.abs(rows)
    row_max = np.sort(column_reduce(np.maximum, magnitude), axis=-1)
    if alpha >= 1.0:
        c_star = magnitude.min(axis=(-2, -1))
    else:
        c_star = row_max[..., box_rank(b, alpha)]
    coverage = (row_max <= c_star[..., None]).sum(axis=-1) / b
    if rows.ndim == 2:
        return CriticalSearch(float(c_star), float(coverage))
    return CriticalSearch(c_star, coverage)
