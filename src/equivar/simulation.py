"""Monte Carlo estimation of test size and power over experiment grids.

A cell fixes a distribution, group sizes, group variances, a level, and
replication counts.  Every replication draws fresh groups from its own
derived stream, runs the selected tests, and contributes to per-test
rejection rates.  Results are deterministic functions of the
configuration, independent of execution order or parallelism.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .distributions import Distribution, sample_standardized
from .errors import DegenerateDataError, checked_tuple, is_int, is_real
from .homogeneity import ALL_METHODS, BOOTSTRAP_LEVENE, BOX, batched
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

# Cap on the values in one stacked resample array of a chunk of
# replications, chunk width x B x n: 2**16 float64 values, 512 KiB.  Wider
# chunks ran faster but raised peak memory; a chunk is at least one
# replication.  Each replication's 624-word stream keys count against the
# same cap, so a chunk is at most 2**16 // 624 = 105 replications wide.
_CHUNK_ELEMENTS = 2**16
_KEY_WORDS = 624

TWO_GROUP_NULL_SIZES = ((5, 5), (10, 10), (15, 15), (5, 10), (7, 15), (10, 15))


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
    that one row kernel call covers the chunk; the chunk width,
    ``_CHUNK_ELEMENTS // max(B * sum(n), 624)`` and at least 1, bounds both
    a stacked resample array and the chunk's 624-word stream keys per slot
    by ``_CHUNK_ELEMENTS`` values.  Each chunk computes the keys of all its
    (r, slot) paths in one ``mt19937_keys`` call and re-keys generators
    built once per range of chunks, one for the data and one per chunk row
    for each bootstrap slot (a box resample is redrawn from its row's
    stream after the whole chunk has been resampled), so the draws are
    those of ``stream``.  Rows are evaluated independently, so the
    estimates are byte-identical to evaluating each replication on its
    own.  The estimate is computed from integer rejection and error counts
    summed over ranges of whole chunks, here the one range of all the
    replications; ``run_grid`` sums several ranges run on threads, with
    the same result.  The F and chi-square critical values are computed
    once per cell.  Replications where a test raises a degeneracy or
    numeric error are counted separately and excluded from that test's
    denominator; a non-finite draw raises ``DegenerateDataError`` naming
    the replication and group.
    """
    return _estimate(cfg, [_tally(cfg, _tests(cfg), range(cfg.replications))])


def _tests(cfg: ExperimentConfig) -> dict:
    # stateless, so one set serves every range of the cell
    return {t: batched(t, cfg.sizes, cfg.alpha, cfg.bootstrap_b) for t in cfg.tests}


def _chunk_width(cfg: ExperimentConfig) -> int:
    return max(1, _CHUNK_ELEMENTS // max(cfg.bootstrap_b * sum(cfg.sizes), _KEY_WORDS))


def _tally(cfg: ExperimentConfig, tests: dict, reps: range) -> tuple[dict[str, int], dict[str, int]]:
    """Rejections and errors per test over replications ``reps``, chunk by chunk.

    ``reps`` starts at a chunk boundary, so each chunk is the one the
    whole cell would evaluate.  The generators are built here, so
    concurrent calls share none.
    """
    rejects = dict.fromkeys(cfg.tests, 0)
    errors = dict.fromkeys(cfg.tests, 0)
    scales = [math.sqrt(v) for v in cfg.variances]
    width = _chunk_width(cfg)
    slots = [_DATA_SLOT] + sorted({_BOOTSTRAP_SLOTS[t] for t in cfg.tests if t in _BOOTSTRAP_SLOTS})
    data_rng = _generator()
    row_rngs = {slot: [_generator() for _ in range(min(width, len(reps)))] for slot in slots[1:]}
    for first in range(reps.start, reps.stop, width):
        chunk = range(first, min(first + width, reps.stop))
        keys = mt19937_keys(cfg.master_seed, [(r, slot) for slot in slots for r in chunk])
        keys = dict(zip(slots, keys.reshape(len(slots), len(chunk), _KEY_WORDS)))
        groups = [np.empty((len(chunk), n)) for n in cfg.sizes]
        for j, key in enumerate(keys[_DATA_SLOT]):
            rekey(data_rng, key)
            for g, s, n in zip(groups, scales, cfg.sizes):
                g[j] = s * sample_standardized(cfg.distribution, n, data_rng)
        finite = np.stack([np.isfinite(g).all(axis=1) for g in groups], axis=1)
        if not finite.all():
            j, i = np.argwhere(~finite)[0]
            raise DegenerateDataError(f"replication {chunk[j]}: group {i} contains non-finite values")
        for t, test in tests.items():
            slot = _BOOTSTRAP_SLOTS.get(t)
            rngs = None
            if slot is not None:
                rngs = row_rngs[slot][:len(chunk)]
                for rng, key in zip(rngs, keys[slot]):
                    rekey(rng, key)
            outcomes = test(groups, rngs)
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
    """``run_cell(cfg)`` with contiguous ranges of whole chunks tallied on up to ``threads`` threads."""
    width = _chunk_width(cfg)
    chunks = -(-cfg.replications // width)
    parts = min(threads, chunks)
    if parts == 1:
        return run_cell(cfg)
    bounds = [min(width * (chunks * i // parts), cfg.replications) for i in range(parts + 1)]
    tests = _tests(cfg)
    with ThreadPoolExecutor(max_workers=parts) as pool:
        # consumed in range order, so a failing draw raises for its lowest replication, as serially
        tallies = list(pool.map(lambda reps: _tally(cfg, tests, reps), map(range, bounds, bounds[1:])))
    return _estimate(cfg, tallies)


def run_grid(cells, threads: int = 1) -> list[CellEstimate]:
    """Run independent cells, preserving input order.

    ``threads`` is an integer >= 1.  With ``threads`` > 1, a grid of
    several cells is distributed over up to ``threads`` worker processes,
    one cell at a time per process; a grid of one cell is split into at
    most ``threads`` contiguous ranges of whole chunks, whose rejection
    and error counts are tallied on threads and summed.  Every cell is a
    pure function of its configuration and the counts are integers, so
    results are identical for any thread count.
    """
    if not is_int(threads) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    cells = list(cells)
    if not cells:
        raise ValueError("empty grid")
    if threads == 1:
        return [run_cell(c) for c in cells]
    if len(cells) == 1:
        return [_threaded_cell(cells[0], threads)]
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
