"""Property checks of the bit-exact batching contract, on batches that hypothesis draws.

A batch of R stacked datasets gives, row by row and bit for bit, what R
one-dataset calls give, and one call of all four tests gives what the
four single-test calls give.  The resample cap is patched so that
resample batches of every width from 1 to R occur.  The row kernels give
their plain numpy formulas bit for bit on stacks of both sides of the
shape rule.  A Monte Carlo cell gives what its replications give one at
a time, with the cap patched so that resample batches and slices of
every width occur; a grid of such cells on 2 or 3 workers gives what
its cells give one by one, and a cell's ranges cover its replications in
order at whole resample batches.  A re-keyed generator draws what
``stream`` of its path draws.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import equivar.descriptive
import equivar.homogeneity
import equivar.simulation
from equivar import ALL_METHODS, Distribution, ExperimentConfig, GroupedSample, run_cell, run_grid, stream
from equivar.descriptive import _COLUMNS_FROM_ROWS, log_variance_rows, moment_rows, row_sum, running_sum
from equivar.homogeneity import BOOTSTRAP_LEVENE, BOX, _levene_stat_rows, _row_medians, batched, resample_width
from equivar.rng import KeyedGenerator, mt19937_keys, rekey
from test_descriptive import _reference_contrasts, _reference_levene, _reference_moments, _same_bits
from test_simulation import _reference_cell

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)


@st.composite
def batches(draw):
    """(groups, alpha, b, width): R stacked datasets, a level, a resample count and a resample batch width.

    Each dataset has 2-4 groups of 2-12 values, R runs from 1 to 6, and
    the width from 1 to R.  Rounding makes ties, and constant groups make
    rows that some tests cannot run on.
    """
    sizes = draw(st.lists(st.integers(2, 12), min_size=2, max_size=4))
    count = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spreads = draw(st.lists(st.sampled_from([0.25, 1.0, 4.0]), min_size=len(sizes), max_size=len(sizes)))
    groups = [s * rng.normal(size=(count, n)) for n, s in zip(sizes, spreads)]
    decimals = draw(st.sampled_from([None, 1, 0]))
    if decimals is not None:
        groups = [np.round(g, decimals) for g in groups]
    cells = st.tuples(st.integers(0, count - 1), st.integers(0, len(sizes) - 1))
    for r, i in draw(st.lists(cells, max_size=3)):
        groups[i][r] = groups[i][r, 0]
    alpha = draw(st.one_of(st.just(1.0), st.floats(0.01, 0.5)))
    return groups, alpha, draw(st.integers(1, 60)), draw(st.integers(1, count))


def _streams(method: str, rows) -> list[np.random.Generator]:
    """The generators of ``rows`` for ``method``: row r's draws are the same on every call."""
    return [np.random.default_rng([ALL_METHODS.index(method), r]) for r in rows]


def _row(outcomes, r: int) -> tuple:
    """Everything ``outcomes`` gives for row r, its floats as bytes."""
    error = outcomes.errors.get(r)
    return (
        outcomes.method, outcomes.alpha, outcomes.df,
        outcomes.statistic[r].tobytes(), bool(outcomes.reject[r]),
        None if outcomes.critical_value is None else outcomes.critical_value[r].tobytes(),
        None if outcomes.p_value is None else outcomes.p_value[r].tobytes(),
        None if error is None else (type(error), str(error)),
    )


def _rows(outcomes) -> list[tuple]:
    return [_row(outcomes, r) for r in range(len(outcomes.statistic))]


@PROPERTY
@given(batches(), st.booleans())
def test_a_batch_is_its_datasets_and_its_tests(batch, pivot_variant):
    groups, alpha, b, width = batch
    count = len(groups[0])
    datasets = [GroupedSample([g[r] for g in groups]) for r in range(count)]
    with mock.patch.object(equivar.descriptive, "_RESAMPLE_ELEMENTS", width * b * sum(g.shape[1] for g in groups)):
        assert equivar.homogeneity.resample_width([g.shape[1] for g in groups], b) == width
        for p_values in (True, False):
            def run(methods, rows, streams):
                return batched(methods, rows, streams, alpha, b, pivot_variant, p_values)

            singles = {}
            for method in ALL_METHODS:
                singles[method] = run((method,), groups, {method: _streams(method, range(count))})[method]
                ones = [
                    run((method,), data.rows, {method: _streams(method, [r])})[method]
                    for r, data in enumerate(datasets)
                ]
                assert _rows(singles[method]) == [_row(one, 0) for one in ones]
            together = run(ALL_METHODS, groups, {m: _streams(m, range(count)) for m in (BOOTSTRAP_LEVENE, BOX)})
            assert list(together) == list(ALL_METHODS)
            assert {m: _rows(out) for m, out in together.items()} == {m: _rows(out) for m, out in singles.items()}


@st.composite
def stacks(draw):
    """A stack of R datasets as C-ordered (R, n_i) groups: 2-17 groups of 2-16 values, R from 1 to 1100.

    R falls on either side of the kernels' shape rule.  Each group takes a
    scale from 1e-70 to 1e70; rounding makes ties, and some values, or
    whole rows of a group, are +0.0 or -0.0.
    """
    sizes = draw(st.lists(st.integers(2, 16), min_size=2, max_size=17))
    count = draw(st.one_of(st.integers(1, 40), st.integers(_COLUMNS_FROM_ROWS - 100, _COLUMNS_FROM_ROWS + 100)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = draw(st.lists(st.sampled_from([1e-70, 1e-35, 1.0, 1e35, 1e70]), min_size=len(sizes), max_size=len(sizes)))
    decimals = draw(st.sampled_from([None, 1, 0]))
    zeros = draw(st.sampled_from([0.0, 0.1, 0.5]))
    groups = []
    for n, scale in zip(sizes, scales):
        g = rng.standard_normal((count, n))
        if decimals is not None:
            g = np.round(g, decimals)
        g[rng.random((count, n)) < zeros] = 0.0
        g[rng.random(count) < zeros / 2] = 0.0  # whole rows of zeros: a zero variance
        g = g * scale
        g[(g == 0.0) & (rng.random((count, n)) < 0.5)] = -0.0
        groups.append(g)
    return groups


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(stacks())
def test_row_kernels_are_their_plain_numpy_formulas(groups):
    with np.errstate(all="ignore"):
        for g in groups:
            assert _same_bits(row_sum(g), g.sum(axis=1))
            assert _same_bits(row_sum(list(g.T)), g.sum(axis=1))
            # numpy sums the middle axis of an (R, n, 2) stack one whole slice after another
            assert _same_bits(running_sum(g), np.stack([g, g], axis=2).sum(axis=1)[:, 0])
            # np.median takes the mean of the central pair, which makes an all -0.0 pair +0.0; the
            # midpoint keeps -0.0, which no statistic sees: the Levene deviations are absolute values
            assert np.array_equal(_row_medians(g), np.median(g, axis=1))
        s2 = _reference_moments(groups)[0]
        assert _same_bits(row_sum(list(s2.T)), s2.sum(axis=1))  # a sum across the groups
        moments = moment_rows(groups)
        for a, b in zip((moments[0].T,) + moments[1:], _reference_moments(groups)):
            assert _same_bits(a, b)
        for use_harmonic in (False, True):
            contrasts, var_log_s2, _ = log_variance_rows([g.shape[1] for g in groups], moments, use_harmonic)
            ours = (var_log_s2, contrasts.contrast, contrasts.se, contrasts.t)
            for a, b in zip(ours, _reference_contrasts(groups, use_harmonic)):
                assert _same_bits(a.T, b)
        assert _same_bits(_levene_stat_rows(groups)[0], _reference_levene(groups))


@st.composite
def cells(draw):
    """(cfg, cap): a small Monte Carlo cell and a resample cap.

    The cell has 2-17 groups of 2-20 values, so smoothed and unsmoothed
    groups mix, any nonempty subset of the tests, 1-230 replications (one
    to three chunks) and a resample count that keeps replications x B x
    groups within 6000.  The cap either splits one replication's b
    resamples into slices of 1 to b rows or holds resample batches of 1
    to R replications.
    """
    k = draw(st.integers(2, 17))
    sizes = tuple(draw(st.lists(st.integers(2, 20), min_size=k, max_size=k)))
    reps = draw(st.integers(1, 230))
    b = draw(st.integers(1, max(1, min(40, 6000 // (reps * k)))))
    cfg = ExperimentConfig(
        distribution=draw(st.sampled_from(list(Distribution))),
        sizes=sizes,
        variances=tuple(draw(st.lists(st.sampled_from([1.0, 2.0, 5.0]), min_size=k, max_size=k))),
        alpha=draw(st.sampled_from([0.05, 0.1, 0.3])),
        replications=reps,
        bootstrap_b=b,
        master_seed=draw(st.integers(0, 2**64)),
        tests=tuple(draw(st.lists(st.sampled_from(ALL_METHODS), min_size=1, max_size=4, unique=True))),
    )
    values = b * max(sizes)
    return cfg, draw(st.one_of(st.integers(1, values), st.integers(values, reps * b * sum(sizes))))


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(cells())
def test_a_cell_is_its_replications_at_any_cap(cell):
    cfg, cap = cell
    with mock.patch.object(equivar.descriptive, "_RESAMPLE_ELEMENTS", cap):
        est, ref = run_cell(cfg), _reference_cell(cfg)
    np.testing.assert_equal(est.rates, ref.rates)
    np.testing.assert_equal(est.standard_errors, ref.standard_errors)
    assert est.error_counts == ref.error_counts


def _assert_same_estimates(ours, theirs) -> None:
    assert [e.config for e in ours] == [e.config for e in theirs]
    for a, b in zip(ours, theirs):
        np.testing.assert_equal(a.rates, b.rates)  # NaN rates compare equal
        np.testing.assert_equal(a.standard_errors, b.standard_errors)
        assert a.error_counts == b.error_counts


@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(st.lists(cells().map(lambda cell: cell[0]), min_size=1, max_size=3), st.integers(1, 4000))
def test_a_grid_is_its_cells_on_2_and_3_workers(grid, cap):
    # the cap makes resample batches narrow, so that a cell splits into ranges of them
    expected = [run_cell(cfg) for cfg in grid]
    with mock.patch.object(equivar.simulation.os, "cpu_count", lambda: 3), \
            mock.patch.object(equivar.descriptive, "_RESAMPLE_ELEMENTS", cap):
        for threads in (2, 3):
            _assert_same_estimates(run_grid(grid, threads=threads), expected)


@PROPERTY
@given(
    st.lists(st.integers(2, 400), min_size=2, max_size=17),
    st.integers(1, 5000),
    st.one_of(st.integers(1, 1000), st.integers(1, 2**32)),
    st.integers(1, 70),
)
def test_ranges_cover_the_replications_in_order_at_whole_batches(sizes, b, replications, parts):
    cfg = ExperimentConfig(distribution="normal", sizes=sizes, variances=[1.0] * len(sizes),
                           replications=replications, bootstrap_b=b)
    width = resample_width(cfg.sizes, b)
    ranges = equivar.simulation._ranges(cfg, parts)
    assert len(ranges) == min(parts, -(-replications // width))
    assert ranges[0].start == 0 and ranges[-1].stop == replications
    assert all(r.step == 1 and r.start < r.stop and r.start % width == 0 for r in ranges)
    assert all(a.stop == b.start for a, b in zip(ranges, ranges[1:]))


_KEYED = KeyedGenerator(np.random.Generator(np.random.MT19937(0)))


@PROPERTY
@given(st.integers(0, 2**128), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))
def test_a_rekeyed_generator_draws_what_its_stream_draws(seed, path):
    ours, theirs = rekey(_KEYED, mt19937_keys(seed, [path])[0]), stream(seed, *path)
    assert np.array_equal(ours.integers(0, 2**32, size=700, dtype=np.uint32), theirs.integers(0, 2**32, size=700,
                                                                                             dtype=np.uint32))
    assert np.array_equal(ours.standard_normal(9), theirs.standard_normal(9))
