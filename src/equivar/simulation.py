"""Monte Carlo estimation of test size and power over experiment grids.

A cell fixes a distribution, group sizes, group variances, a level, and
replication counts.  Every replication draws fresh groups from its own
derived stream, runs the selected tests, and contributes to per-test
rejection rates.  Results are deterministic functions of the
configuration, independent of execution order or parallelism.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .distributions import Distribution, sample_standardized
from .errors import DegenerateDataError
from .homogeneity import ALL_METHODS, BOOTSTRAP_LEVENE, BOX, batched
from .rng import derive_seed, stream

__all__ = [
    "ExperimentConfig",
    "CellEstimate",
    "RobustnessReport",
    "run_cell",
    "run_grid",
    "averaged_power",
    "robustness",
    "two_group_null_grid",
    "TWO_GROUP_NULL_SIZES",
]

# Stream slots within a replication: data generation and one per bootstrap test.
_DATA_SLOT = 0
_BOOTSTRAP_SLOTS = {BOOTSTRAP_LEVENE: 1, BOX: 2}

# Cap on the values in one stacked resample array of a chunk of
# replications, chunk width x B x n: 2**16 float64 values, 512 KiB.  Wider
# chunks ran faster but raised peak memory; a chunk is at least one
# replication.
_CHUNK_ELEMENTS = 2**16

TWO_GROUP_NULL_SIZES = ((5, 5), (10, 10), (15, 15), (5, 10), (7, 15), (10, 15))


# numpy integers and floats pass these checks, bool and numpy.bool_ do not.
def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _sequence(name: str, values, check, what: str) -> tuple:
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise ValueError(f"{name} must be a sequence of {what}, got {values!r}")
    values = tuple(values)
    bad = [v for v in values if not check(v)]
    if bad:
        raise ValueError(f"{name} must hold {what} only, got {bad[0]!r}")
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation cell: a distribution / sizes / variances combination.

    Construction validates every field: sizes, replications, bootstrap_b
    and master_seed must be integers, alpha and the variances finite real
    numbers (booleans are neither), and tests a sequence of test names;
    the variances lie in [1e-100, 1e100].
    """

    distribution: Distribution
    sizes: tuple[int, ...]
    variances: tuple[float, ...]
    alpha: float = 0.05
    replications: int = 1000
    bootstrap_b: int = 500
    master_seed: int = 0
    tests: tuple[str, ...] = ALL_METHODS

    def __post_init__(self):
        try:
            object.__setattr__(self, "distribution", Distribution(self.distribution))
        except ValueError:
            choices = [d.value for d in Distribution]
            raise ValueError(f"unknown distribution {self.distribution!r}; choose from {choices}") from None
        sizes = _sequence("sizes", self.sizes, _is_int, "integers")
        object.__setattr__(self, "sizes", tuple(int(s) for s in sizes))
        variances = _sequence("variances", self.variances, _is_real, "finite real numbers")
        object.__setattr__(self, "variances", tuple(float(v) for v in variances))
        tests = _sequence("tests", self.tests, lambda t: isinstance(t, str), "test names")
        object.__setattr__(self, "tests", tests)
        for name in ("replications", "bootstrap_b", "master_seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not _is_real(self.alpha):
            raise ValueError(f"alpha must be a finite real number, got {self.alpha!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        if len(self.sizes) != len(self.variances):
            raise ValueError(
                f"sizes and variances must have equal length, got {len(self.sizes)} and {len(self.variances)}"
            )
        if len(self.sizes) < 2:
            raise ValueError("need at least two groups")
        if any(s < 2 for s in self.sizes):
            raise ValueError(f"every group size must be at least 2, got {self.sizes}")
        # drawn groups then deviate from their means by far less than 1e72 and
        # far more than 1e-72, the bounds within which the moment kernels are exact
        if any(not 1e-100 <= v <= 1e100 for v in self.variances):
            raise ValueError(f"variances must be positive, from 1e-100 to 1e100, got {self.variances}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.bootstrap_b < 1:
            raise ValueError("need at least one bootstrap replicate")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")
        unknown = [t for t in self.tests if t not in ALL_METHODS]
        if unknown:
            raise ValueError(f"unknown tests: {unknown}; choose from {list(ALL_METHODS)}")
        if not self.tests:
            raise ValueError("select at least one test")

    @property
    def is_null(self) -> bool:
        """True when all group variances are equal (a size experiment)."""
        return all(v == self.variances[0] for v in self.variances)


@dataclass
class CellEstimate:
    config: ExperimentConfig
    rates: dict[str, float]            # rejection rate per test
    standard_errors: dict[str, float]  # sqrt(p(1-p)/valid replications)
    error_counts: dict[str, int] = field(default_factory=dict)


def run_cell(cfg: ExperimentConfig) -> CellEstimate:
    """Estimate rejection rates for one cell.

    Replication r draws its data from stream (master_seed, r, 0); the
    bootstrap tests consume streams (master_seed, r, 1) and
    (master_seed, r, 2), each replication drawing from its own streams in
    the order a one-dataset test call would.  The statistics are evaluated
    over chunks of consecutive replications: replication j of a chunk
    draws its groups into row j of one (width, n_i) array per group, so
    that one row kernel call covers the chunk; the chunk width is chosen
    so that a stacked resample array holds at most ``_CHUNK_ELEMENTS``
    values.  Rows are evaluated independently, so the estimates are
    byte-identical to evaluating each replication on its own.  The F and
    chi-square critical values are computed once per cell.  Replications
    where a test raises a degeneracy or numeric error are counted
    separately and excluded from that test's denominator; a non-finite
    draw raises ``DegenerateDataError`` naming the replication and group.
    """
    tests = {t: batched(t, cfg.sizes, cfg.alpha, cfg.bootstrap_b) for t in cfg.tests}
    rejects = dict.fromkeys(cfg.tests, 0)
    errors = dict.fromkeys(cfg.tests, 0)
    scales = [math.sqrt(v) for v in cfg.variances]
    width = max(1, _CHUNK_ELEMENTS // (cfg.bootstrap_b * sum(cfg.sizes)))
    for first in range(0, cfg.replications, width):
        reps = range(first, min(first + width, cfg.replications))
        groups = [np.empty((len(reps), n)) for n in cfg.sizes]
        for j, r in enumerate(reps):
            data_rng = stream(cfg.master_seed, r, _DATA_SLOT)
            for g, s, n in zip(groups, scales, cfg.sizes):
                g[j] = s * sample_standardized(cfg.distribution, n, data_rng)
        finite = np.stack([np.isfinite(g).all(axis=1) for g in groups], axis=1)
        if not finite.all():
            j, i = np.argwhere(~finite)[0]
            raise DegenerateDataError(f"replication {reps[j]}: group {i} contains non-finite values")
        for t, test in tests.items():
            slot = _BOOTSTRAP_SLOTS.get(t)
            rngs = None if slot is None else [stream(cfg.master_seed, r, slot) for r in reps]
            outcomes = test(groups, rngs)
            rejects[t] += outcomes.rejections
            errors[t] += len(outcomes.errors)
    rates: dict[str, float] = {}
    ses: dict[str, float] = {}
    for t in cfg.tests:
        valid = cfg.replications - errors[t]
        if valid == 0:
            rates[t] = math.nan
            ses[t] = math.nan
        else:
            p = rejects[t] / valid
            rates[t] = p
            ses[t] = math.sqrt(p * (1.0 - p) / valid)
    return CellEstimate(cfg, rates, ses, errors)


def run_grid(cells, threads: int = 1) -> list[CellEstimate]:
    """Run independent cells, preserving input order.

    With ``threads`` > 1 the cells are distributed over worker processes;
    because every cell is a pure function of its configuration, results
    are identical for any thread count.
    """
    cells = list(cells)
    if not cells:
        raise ValueError("empty grid")
    if threads <= 1 or len(cells) == 1:
        return [run_cell(c) for c in cells]
    with ProcessPoolExecutor(max_workers=min(threads, len(cells))) as pool:
        return list(pool.map(run_cell, cells))


def averaged_power(cfg_a: ExperimentConfig, cfg_b: ExperimentConfig) -> CellEstimate:
    """Average the rejection rates of two cells whose variances are reversed.

    Power against (v1, ..., vk) and its reversal differ when sample sizes
    are unequal; the average is the conventional summary.  The two
    configurations must agree in everything except the variance order
    (seeds may differ).
    """
    same = (
        cfg_a.distribution == cfg_b.distribution
        and cfg_a.sizes == cfg_b.sizes
        and cfg_a.alpha == cfg_b.alpha
        and cfg_a.replications == cfg_b.replications
        and cfg_a.bootstrap_b == cfg_b.bootstrap_b
        and cfg_a.tests == cfg_b.tests
        and cfg_a.variances == tuple(reversed(cfg_b.variances))
    )
    if not same:
        raise ValueError("configs must differ only by reversing the variance vector")
    est_a = run_cell(cfg_a)
    est_b = run_cell(cfg_b)
    rates = {t: (est_a.rates[t] + est_b.rates[t]) / 2.0 for t in cfg_a.tests}
    ses = {
        t: math.sqrt(est_a.standard_errors[t] ** 2 + est_b.standard_errors[t] ** 2) / 2.0
        for t in cfg_a.tests
    }
    errors = {t: est_a.error_counts[t] + est_b.error_counts[t] for t in cfg_a.tests}
    return CellEstimate(cfg_a, rates, ses, errors)


@dataclass
class RobustnessReport:
    """Maximum estimated size per test over a set of null cells."""

    alpha: float
    max_size: dict[str, float]
    robust: dict[str, bool]  # max size below twice the nominal level


def robustness(cells, alpha: float = 0.05) -> RobustnessReport:
    """Summarize null cells by the per-test maximum estimated size.

    A test is flagged robust when its maximum size over all cells stays
    below 2 * alpha.  Raises if any cell has unequal variances or if some
    test has no usable estimates.
    """
    cells = list(cells)
    if not cells:
        raise ValueError("no cells given")
    for c in cells:
        if not c.config.is_null:
            raise ValueError(f"cell with variances {c.config.variances} is not a null configuration")
    tests: list[str] = []
    for c in cells:
        for t in c.config.tests:
            if t not in tests:
                tests.append(t)
    max_size: dict[str, float] = {}
    for t in tests:
        values = [c.rates[t] for c in cells if t in c.rates and not math.isnan(c.rates[t])]
        if not values:
            raise ValueError(f"no usable estimates for test {t!r}")
        max_size[t] = max(values)
    robust = {t: m < 2.0 * alpha for t, m in max_size.items()}
    return RobustnessReport(alpha, max_size, robust)


def two_group_null_grid(
    master_seed: int,
    alpha: float = 0.05,
    replications: int = 1000,
    bootstrap_b: int = 500,
    tests: tuple[str, ...] = ALL_METHODS,
) -> list[ExperimentConfig]:
    """The 36-cell two-group null grid: six size pairs by six distributions.

    Cell seeds are derived from ``master_seed`` by cell index, so the grid
    is fully reproducible while cells stay independent.
    """
    cells = []
    index = 0
    for sizes in TWO_GROUP_NULL_SIZES:
        for dist in Distribution:
            cells.append(
                ExperimentConfig(
                    distribution=dist,
                    sizes=sizes,
                    variances=(1.0,) * len(sizes),
                    alpha=alpha,
                    replications=replications,
                    bootstrap_b=bootstrap_b,
                    master_seed=derive_seed(master_seed, index),
                    tests=tests,
                )
            )
            index += 1
    return cells
