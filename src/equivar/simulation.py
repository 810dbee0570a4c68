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
from .errors import MAX_VALUES, DegenerateDataError, checked_tuple, count, is_int, is_real, level
from .homogeneity import ALL_METHODS, BOOTSTRAP_LEVENE, BOX, batched, resample_width
from .rng import Rekeyed, derive_seed, mt19937_keys

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

    Construction validates every field: alpha by the level rule
    (``errors.level``); sizes (each at least 2), replications (1 to 2**32),
    bootstrap_b (at least 1) and master_seed (at least 0) by the count rule
    (``errors.count``), with min(105, replications) * sum(sizes) and
    bootstrap_b * sum(sizes) at most ``errors.MAX_VALUES``; the variances
    are finite real numbers in [1e-100, 1e100] (booleans are not), and
    tests distinct test names.
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
        variances = checked_tuple("variances", self.variances, is_real, "finite real numbers")
        object.__setattr__(self, "variances", tuple(float(v) for v in variances))
        tests = checked_tuple("tests", self.tests, lambda t: isinstance(t, str), "test names")
        object.__setattr__(self, "tests", tests)
        if len(sizes) != len(self.variances):
            raise ValueError(
                f"sizes and variances must have equal length, got {len(sizes)} and {len(self.variances)}"
            )
        if len(sizes) < 2:
            raise ValueError("need at least two groups")
        object.__setattr__(self, "sizes", tuple(count(f"sizes[{i}]", s, 2) for i, s in enumerate(sizes)))
        # drawn groups then deviate from their means by far less than 1e72 and
        # far more than 1e-72, the bounds within which the moment kernels are exact
        if any(not 1e-100 <= v <= 1e100 for v in self.variances):
            raise ValueError(f"variances must be positive, from 1e-100 to 1e100, got {self.variances}")
        object.__setattr__(self, "alpha", level(self.alpha))
        # a stream path word is 32 bits: r < 2**32
        object.__setattr__(self, "replications", count("replications", self.replications, 1, 2**32))
        total = sum(self.sizes)
        count("sum(sizes)", total, 4, MAX_VALUES // min(_CHUNK_ROWS, self.replications))
        object.__setattr__(self, "bootstrap_b", count("bootstrap_b", self.bootstrap_b, 1, MAX_VALUES // total))
        object.__setattr__(self, "master_seed", count("master_seed", self.master_seed, 0))
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
    batches of ``resample_width(sizes, B)``, from generators of the
    calling thread's pool re-keyed to each replication's streams
    (``rng.Rekeyed``); the README's "How a simulation cell is computed"
    sets this out.  Rows are evaluated independently, so the estimates are
    byte-identical to evaluating each replication on its own.  The
    estimate is computed from integer rejection and error counts summed
    over ranges of replications, here the one range of all of them;
    ``run_grid`` sums several ranges run on a pool, with the same result.
    Replications where a test raises a degeneracy or numeric error are
    counted separately and excluded from that test's denominator; a
    non-finite draw raises ``DegenerateDataError`` naming the replication
    and group.
    """
    return _estimate(cfg, [_tally(cfg, range(cfg.replications))])


def _tally(cfg: ExperimentConfig, reps: range) -> tuple[dict[str, int], dict[str, int]]:
    """Rejections and errors per test over replications ``reps``, chunk by chunk.

    This is the one unit of work: ``run_cell`` tallies the range of all
    replications, and ``run_grid`` maps it over (cell, range) tasks on a
    worker pool.  Only decisions are counted, so bootstrap Levene runs
    with ``p_values=False`` and stops a replication's resampling once its
    decision is settled.  A chunk of up to ``_CHUNK_ROWS`` replications is
    drawn, scaled, keyed and checked at once, and ``batched`` is called
    once on it with all the tests, so the observed statistics that several
    of them use are computed once per chunk.  Each stream slot fetches its
    rows' streams through a ``Rekeyed`` view of the chunk's keys, as wide
    as a resample batch at most, under its lending rule: the views share
    the thread's pool, as a chunk's data draws end before any test is
    called and the tests run one after another, and a bootstrap test
    fetches a row's stream once, just before that row's batch draws.
    """
    rejects = dict.fromkeys(cfg.tests, 0)
    errors = dict.fromkeys(cfg.tests, 0)
    scales = [math.sqrt(v) for v in cfg.variances]
    slots = [_DATA_SLOT] + sorted({_BOOTSTRAP_SLOTS[t] for t in cfg.tests if t in _BOOTSTRAP_SLOTS})
    width = min(resample_width(cfg.sizes, cfg.bootstrap_b), _CHUNK_ROWS, len(reps))
    for first in range(reps.start, reps.stop, _CHUNK_ROWS):
        chunk = range(first, min(first + _CHUNK_ROWS, reps.stop))
        keys = mt19937_keys(cfg.master_seed, [(r, slot) for slot in slots for r in chunk])
        streams = {slot: Rekeyed(k, width) for slot, k in zip(slots, keys.reshape(len(slots), len(chunk), -1))}
        groups = [np.empty((len(chunk), n)) for n in cfg.sizes]
        for j in range(len(chunk)):
            rng = streams[_DATA_SLOT][j]
            for g, n in zip(groups, cfg.sizes):
                g[j] = sample_standardized(cfg.distribution, n, rng)
        for g, s in zip(groups, scales):
            g *= s
        finite = np.stack([np.isfinite(g).all(axis=1) for g in groups], axis=1)
        if not finite.all():
            j, i = np.argwhere(~finite)[0]
            raise DegenerateDataError(f"replication {chunk[j]}: group {i} contains non-finite values")
        rngs = {t: streams[slot] for t, slot in _BOOTSTRAP_SLOTS.items() if slot in streams}
        for t, outcomes in batched(cfg.tests, groups, rngs, cfg.alpha, cfg.bootstrap_b, p_values=False).items():
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


def _ranges(cfg: ExperimentConfig, parts: int) -> list[range]:
    """Up to ``parts`` contiguous ranges of whole resample batches that cover ``cfg``'s replications, in order."""
    width = resample_width(cfg.sizes, cfg.bootstrap_b)
    batches = -(-cfg.replications // width)
    parts = min(parts, batches)
    bounds = [min(width * (batches * i // parts), cfg.replications) for i in range(parts + 1)]
    return list(map(range, bounds, bounds[1:]))


def run_grid(cells, threads: int = 1) -> list[CellEstimate]:
    """Run independent cells, preserving input order.

    ``threads`` is an integer >= 1; more than ``os.cpu_count()`` counts
    as that many.  With ``threads`` > 1, each cell is split into up to
    ``ceil(threads / len(cells))`` contiguous ranges of whole resample
    batches, and every (cell, range) tally runs on a pool of up to
    ``threads`` workers: threads for a grid of one cell, processes for a
    grid of several.  Each cell's rejection and error counts are summed
    over its ranges in order.  With ``threads`` == 1, or when the grid
    makes a single range, every cell runs here, through ``run_cell``.
    Every cell is a pure function of its configuration and the counts
    are integers, so results are identical for any thread count.
    """
    threads = count("threads", threads, 1)
    cells = list(cells)
    if not cells:
        raise ValueError("empty grid")
    threads = min(threads, os.cpu_count() or 1)
    splits = [_ranges(c, -(-threads // len(cells))) for c in cells]
    tasks = [(c, reps) for c, ranges in zip(cells, splits) for reps in ranges]
    workers = min(threads, len(tasks))
    if workers == 1:
        return [run_cell(c) for c in cells]
    # Measured on a 2-core Xeon, as medians of 5 runs, from three runs of one script.  A lone laplace
    # 4x40 cell of 100 replications took 0.26-0.29 s serially, 0.17-0.19 s on 2 threads and 0.15-0.17 s
    # on 2 processes, but each worker process peaked at 50-54 MB (ru_maxrss), so a lone cell stays on
    # threads, in this process.  The 36-cell null grid of 100 replications took 1.20-1.25 s serially,
    # 1.38-1.44 s on 2 threads, its per-replication Python loops waiting on the GIL, and 0.75-0.82 s on
    # 2 processes, so a grid goes to processes.
    executor = ThreadPoolExecutor if len(cells) == 1 else ProcessPoolExecutor
    with executor(max_workers=workers) as pool:
        # consumed in task order, so a failing draw raises for the lowest replication of the first failing cell
        tallies = pool.map(_tally, *zip(*tasks))
        return [_estimate(c, [next(tallies) for _ in ranges]) for c, ranges in zip(cells, splits)]


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
    tests = list(dict.fromkeys(t for c in cells for t in c.config.tests))
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
