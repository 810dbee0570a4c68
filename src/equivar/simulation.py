"""Monte Carlo estimation of test size and power over experiment grids.

A cell fixes a distribution, group sizes, group variances, a level, and
replication counts.  Every replication draws fresh groups from its own
derived stream, runs the selected tests, and contributes to per-test
rejection rates.  Results are deterministic functions of the
configuration, independent of execution order or parallelism.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .distributions import Distribution, sample_standardized
from .errors import DegenerateDataError, checked_tuple, is_int, is_real
from .homogeneity import ALL_METHODS, BOOTSTRAP_LEVENE, BOX, batched, resample_width
from .rng import derive_seed, mt19937_keys, rekey

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

# A chunk of replications is drawn and keyed at once: its 624-word
# stream keys, per slot, stay within 2**16 values, so a chunk is
# 2**16 // 624 = 105 replications wide, or less at the end of a range.
_CHUNK_ROWS = 2**16 // 624

TWO_GROUP_NULL_SIZES = ((5, 5), (10, 10), (15, 15), (5, 10), (7, 15), (10, 15))


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation cell: a distribution / sizes / variances combination.

    Construction validates every field: sizes, replications, bootstrap_b
    and master_seed must be integers, alpha and the variances finite real
    numbers (booleans are neither), and tests a sequence of distinct test
    names; the variances lie in [1e-100, 1e100].
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
        sizes = checked_tuple("sizes", self.sizes, is_int, "integers")
        object.__setattr__(self, "sizes", tuple(int(s) for s in sizes))
        variances = checked_tuple("variances", self.variances, is_real, "finite real numbers")
        object.__setattr__(self, "variances", tuple(float(v) for v in variances))
        tests = checked_tuple("tests", self.tests, lambda t: isinstance(t, str), "test names")
        object.__setattr__(self, "tests", tests)
        for name in ("replications", "bootstrap_b", "master_seed"):
            value = getattr(self, name)
            if not is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not is_real(self.alpha):
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
        if self.replications > 2**32:  # a stream path word is 32 bits: r < 2**32
            raise ValueError(f"replications must be at most 2**32, got {self.replications}")
        if self.bootstrap_b < 1:
            raise ValueError("need at least one bootstrap replicate")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")
        unknown = [t for t in self.tests if t not in ALL_METHODS]
        if unknown:
            raise ValueError(f"unknown tests: {unknown}; choose from {list(ALL_METHODS)}")
        repeated = list(dict.fromkeys(t for t in self.tests if self.tests.count(t) > 1))
        if repeated:
            raise ValueError(f"duplicate tests: {', '.join(repeated)}")
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
    the order a one-dataset test call would.  The replications are
    evaluated in chunks of 105, each bootstrap test resampling a chunk in
    batches of ``resample_width(sizes, B)``, from re-keyed generators of
    one pool; the README's "How a simulation cell is computed" sets this
    out.  Rows are evaluated independently, so the estimates are
    byte-identical to evaluating each replication on its own.  The
    estimate is computed from integer rejection and error counts summed
    over ranges of replications, here the one range of all of them;
    ``run_grid`` sums several ranges run on threads, with the same result.
    Replications where a test raises a degeneracy or numeric error are
    counted separately and excluded from that test's denominator; a
    non-finite draw raises ``DegenerateDataError`` naming the replication
    and group.
    """
    return _estimate(cfg, [_tally(cfg, range(cfg.replications))])


class _Rekeyed:
    """Row r's stream, on fetching item r: generator ``r % len(pool)`` of ``pool``, re-keyed to ``keys[r]``."""

    __slots__ = ("pool", "keys")

    def __init__(self, pool: list, keys: np.ndarray):
        self.pool, self.keys = pool, keys

    def __getitem__(self, r: int) -> np.random.Generator:
        rng = self.pool[r % len(self.pool)]
        rekey(rng, self.keys[r])
        return rng


def _tally(cfg: ExperimentConfig, reps: range) -> tuple[dict[str, int], dict[str, int]]:
    """Rejections and errors per test over replications ``reps``, chunk by chunk.

    The range builds its own tests, and so computes its F and chi-square
    quantiles once, and its own pool of generators, so concurrent calls
    share nothing.  A chunk of up to ``_CHUNK_ROWS`` replications is
    drawn, keyed and checked at once, and each test is called once on it.
    The pool serves every slot: a chunk's data draws end before any test
    is called, and the tests run one after another.  Each slot sees the
    pool as a ``_Rekeyed`` view of its keys.  A bootstrap test fetches a
    row's stream once, just before that row's batch draws, and the rows of
    one batch, a window of ``resample_width`` rows, map to distinct
    generators, as the pool is that wide at most.
    """
    tests = {t: batched(t, cfg.sizes, cfg.alpha, cfg.bootstrap_b) for t in cfg.tests}
    rejects = dict.fromkeys(cfg.tests, 0)
    errors = dict.fromkeys(cfg.tests, 0)
    scales = [math.sqrt(v) for v in cfg.variances]
    slots = [_DATA_SLOT] + sorted({_BOOTSTRAP_SLOTS[t] for t in cfg.tests if t in _BOOTSTRAP_SLOTS})
    pool = [_generator() for _ in range(min(resample_width(cfg.sizes, cfg.bootstrap_b), _CHUNK_ROWS, len(reps)))]
    for first in range(reps.start, reps.stop, _CHUNK_ROWS):
        chunk = range(first, min(first + _CHUNK_ROWS, reps.stop))
        keys = mt19937_keys(cfg.master_seed, [(r, slot) for slot in slots for r in chunk])
        streams = {slot: _Rekeyed(pool, k) for slot, k in zip(slots, keys.reshape(len(slots), len(chunk), -1))}
        groups = [np.empty((len(chunk), n)) for n in cfg.sizes]
        for j in range(len(chunk)):
            rng = streams[_DATA_SLOT][j]
            for g, s, n in zip(groups, scales, cfg.sizes):
                g[j] = s * sample_standardized(cfg.distribution, n, rng)
        finite = np.stack([np.isfinite(g).all(axis=1) for g in groups], axis=1)
        if not finite.all():
            j, i = np.argwhere(~finite)[0]
            raise DegenerateDataError(f"replication {chunk[j]}: group {i} contains non-finite values")
        for t, test in tests.items():
            outcomes = test(groups, streams.get(_BOOTSTRAP_SLOTS.get(t)))
            rejects[t] += outcomes.rejections
            errors[t] += len(outcomes.errors)
    return rejects, errors


def _estimate(cfg: ExperimentConfig, tallies) -> CellEstimate:
    """The cell's rates and standard errors from the (rejects, errors) tallies of ranges covering it."""
    rates: dict[str, float] = {}
    ses: dict[str, float] = {}
    errors = {t: sum(e[t] for _, e in tallies) for t in cfg.tests}
    for t in cfg.tests:
        valid = cfg.replications - errors[t]
        if valid == 0:
            rates[t] = math.nan
            ses[t] = math.nan
        else:
            p = sum(r[t] for r, _ in tallies) / valid
            rates[t] = p
            ses[t] = math.sqrt(p * (1.0 - p) / valid)
    return CellEstimate(cfg, rates, ses, errors)


def _generator() -> np.random.Generator:
    # an MT19937 generator to be re-keyed before each use
    return np.random.Generator(np.random.MT19937(0))


def _threaded_cell(cfg: ExperimentConfig, threads: int) -> CellEstimate:
    """``run_cell(cfg)`` with contiguous ranges of whole resample batches tallied on up to ``threads`` threads.

    A cell that makes one range is handed to ``run_cell`` itself.
    """
    width = resample_width(cfg.sizes, cfg.bootstrap_b)
    batches = -(-cfg.replications // width)
    parts = min(threads, batches)
    if parts == 1:
        return run_cell(cfg)
    bounds = [min(width * (batches * i // parts), cfg.replications) for i in range(parts + 1)]
    with ThreadPoolExecutor(max_workers=parts) as pool:
        # consumed in range order, so a failing draw raises for its lowest replication, as serially
        tallies = list(pool.map(lambda reps: _tally(cfg, reps), map(range, bounds, bounds[1:])))
    return _estimate(cfg, tallies)


def run_grid(cells, threads: int = 1) -> list[CellEstimate]:
    """Run independent cells, preserving input order.

    ``threads`` is an integer >= 1; more than ``os.cpu_count()`` counts
    as that many.  With ``threads`` > 1, a grid of several cells is
    distributed over up to ``threads`` worker processes, one cell at a
    time per process; a grid of one cell is split into at most
    ``threads`` contiguous ranges of whole resample batches (one thread
    per batch at most), whose rejection and error counts are tallied on
    threads and summed.  Any other cell runs here, through ``run_cell``.  Every cell is a pure function of its
    configuration and the counts are integers, so results are identical
    for any thread count.
    """
    if not is_int(threads) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    cells = list(cells)
    if not cells:
        raise ValueError("empty grid")
    threads = min(threads, os.cpu_count() or 1)
    if threads == 1 or len(cells) == 1:
        return [_threaded_cell(c, threads) for c in cells]
    with ProcessPoolExecutor(max_workers=min(threads, len(cells))) as pool:
        return list(pool.map(run_cell, cells))


def averaged_power(cfg_a: ExperimentConfig, cfg_b: ExperimentConfig) -> CellEstimate:
    """Average the rejection rates of two cells whose variances are reversed.

    Power against (v1, ..., vk) and its reversal differ when sample sizes
    are unequal; the average is the conventional summary.  The two
    configurations must agree in everything except the variance order
    (seeds may differ).
    """
    if replace(cfg_b, variances=cfg_b.variances[::-1], master_seed=cfg_a.master_seed) != cfg_a:
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
    below 2 * alpha.  Raises if any cell has unequal variances or was run
    at a level other than ``alpha``, or if some test has no usable
    estimates.
    """
    cells = list(cells)
    if not cells:
        raise ValueError("no cells given")
    for c in cells:
        if not c.config.is_null:
            raise ValueError(f"cell with variances {c.config.variances} is not a null configuration")
        if c.config.alpha != alpha:
            raise ValueError(f"cell run at alpha={c.config.alpha} cannot be judged at alpha={alpha}")
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
