import math
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest

import equivar.descriptive
import equivar.homogeneity
import equivar.rng
import equivar.simulation
from equivar import (
    ALL_METHODS,
    BootstrapConfig,
    CellEstimate,
    DegenerateDataError,
    Distribution,
    ExperimentConfig,
    GroupedSample,
    NumericError,
    averaged_power,
    bootstrap_levene,
    box_test,
    levene,
    robustness,
    run_all,
    run_cell,
    run_grid,
    sample_standardized,
    shoemaker,
    stream,
    two_group_null_grid,
)


def _cfg(**kw):
    base = dict(
        distribution="normal",
        sizes=(8, 8),
        variances=(1.0, 1.0),
        replications=50,
        bootstrap_b=30,
        master_seed=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            _cfg(sizes=(5, 5, 5), variances=(1.0, 1.0))

    def test_nonpositive_variance(self):
        with pytest.raises(ValueError, match="positive"):
            _cfg(variances=(1.0, 0.0))

    def test_small_group(self):
        with pytest.raises(ValueError, match="at least 2"):
            _cfg(sizes=(1, 8), variances=(1.0, 1.0))

    def test_unknown_test_name(self):
        with pytest.raises(ValueError, match="unknown tests"):
            _cfg(tests=("levene", "bartlett"))

    def test_unknown_distribution(self):
        with pytest.raises(ValueError, match="unknown distribution 'cauchy'; choose from"):
            _cfg(distribution="cauchy")

    def test_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            _cfg(alpha=0.0)

    def test_alpha_whose_level_rounds_to_one_rejected(self):
        # 1 - 2**-54 rounds to 1.0, and the F and chi-square quantiles need a level below 1
        assert _cfg(alpha=2.0**-53).alpha == 2.0**-53
        for alpha in (2.0**-54, 1e-17, 5e-324):
            with pytest.raises(ValueError, match=f"alpha must leave 1 - alpha below 1.0 in floating point, got {alpha}"):
                _cfg(alpha=alpha)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"sizes": (5.7, 5)}, "sizes must hold integers"),
            ({"sizes": "55"}, "sizes must be a sequence"),
            ({"variances": (1.0, "nan")}, "variances must hold finite real numbers"),
            ({"variances": (1.0, math.inf)}, "variances must hold finite real numbers"),
            ({"variances": (True, 1.0)}, "variances must hold finite real numbers"),
            ({"alpha": True}, "alpha must be a finite real number"),
            ({"alpha": math.nan}, "alpha must be a finite real number"),
            ({"replications": "3"}, "replications must be an integer"),
            ({"replications": 3.0}, "replications must be an integer"),
            ({"bootstrap_b": False}, "bootstrap_b must be an integer"),
            ({"master_seed": -2}, "master_seed must be an integer of at least 0, got -2"),
            ({"tests": "levene"}, "tests must be a sequence of test names"),
            ({"variances": (1.0, 1e101)}, "from 1e-100 to 1e100"),
            ({"variances": (1e-101, 1.0)}, "from 1e-100 to 1e100"),
            ({"replications": 2**32 + 1}, "replications must be an integer of at least 1 and at most"),
            ({"tests": ("box", "levene", "box")}, "duplicate tests: box"),
        ],
    )
    def test_field_types_are_exact(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            _cfg(**overrides)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"sizes": (8,), "variances": (1.0,)}, "need at least two groups"),
            ({"replications": 0}, "replications must be an integer of at least 1 and at most 4294967296, got 0"),
            ({"bootstrap_b": 0}, "bootstrap_b must be an integer of at least 1 and at most 268435456, got 0"),
            ({"tests": ()}, "select at least one test"),
        ],
        ids=["one_group", "no_replications", "no_bootstrap", "no_tests"],
    )
    def test_empty_fields_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            _cfg(**overrides)

    def test_numpy_scalars_accepted(self):
        cfg = _cfg(sizes=np.array([6, 7]), variances=np.array([1.0, 2.0]), replications=np.int64(4))
        assert cfg.sizes == (6, 7) and type(cfg.sizes[0]) is int
        assert cfg.replications == 4 and type(cfg.replications) is int

    def test_is_null(self):
        assert _cfg().is_null
        assert not _cfg(variances=(1.0, 2.0)).is_null


class TestRunCell:
    def test_deterministic(self):
        a = run_cell(_cfg(master_seed=77))
        b = run_cell(_cfg(master_seed=77))
        assert a.rates == b.rates
        assert a.standard_errors == b.standard_errors
        assert a.error_counts == b.error_counts

    def test_identical_cells_distinct_seeds_agree_statistically(self):
        cfg_a = _cfg(replications=500, tests=("levene",), master_seed=101)
        cfg_b = _cfg(replications=500, tests=("levene",), master_seed=102)
        est_a, est_b = run_cell(cfg_a), run_cell(cfg_b)
        joint = math.hypot(est_a.standard_errors["levene"], est_b.standard_errors["levene"])
        assert abs(est_a.rates["levene"] - est_b.rates["levene"]) <= 3.0 * max(joint, 1e-4)

    def test_alpha_one_rejects_everything(self):
        est = run_cell(_cfg(alpha=1.0, sizes=(5, 5), variances=(1.0, 1.0), replications=40,
                            bootstrap_b=16, master_seed=5))
        assert all(rate == 1.0 for rate in est.rates.values())

    def test_standard_error_formula(self):
        est = run_cell(_cfg(replications=80, master_seed=9))
        for t, rate in est.rates.items():
            valid = est.config.replications - est.error_counts[t]
            assert est.standard_errors[t] == math.sqrt(rate * (1.0 - rate) / valid)

    def test_selected_tests_only(self):
        est = run_cell(_cfg(tests=("shoemaker",)))
        assert set(est.rates) == {"shoemaker"}


def _reference_cell(cfg: ExperimentConfig) -> CellEstimate:
    """Replication-by-replication evaluation through the public one-dataset tests.

    Replication r draws its data from stream (seed, r, 0) and the two
    bootstrap tests from (seed, r, 1) and (seed, r, 2).
    """
    rejects = dict.fromkeys(cfg.tests, 0)
    errors = dict.fromkeys(cfg.tests, 0)
    scales = [math.sqrt(v) for v in cfg.variances]
    for r in range(cfg.replications):
        data_rng = stream(cfg.master_seed, r, 0)
        data = GroupedSample([s * sample_standardized(cfg.distribution, n, data_rng)
                              for s, n in zip(scales, cfg.sizes)])
        for t in cfg.tests:
            try:
                if t == "levene":
                    result = levene(data, cfg.alpha)
                elif t == "shoemaker":
                    result = shoemaker(data, cfg.alpha)
                elif t == "bootstrap_levene":
                    rng = stream(cfg.master_seed, r, 1)
                    result = bootstrap_levene(data, cfg.alpha, BootstrapConfig(rng, cfg.bootstrap_b))
                else:
                    rng = stream(cfg.master_seed, r, 2)
                    result = box_test(data, cfg.alpha, BootstrapConfig(rng, cfg.bootstrap_b))
            except (DegenerateDataError, NumericError):
                errors[t] += 1
            else:
                rejects[t] += bool(result.reject)
    rates, ses = {}, {}
    for t in cfg.tests:
        valid = cfg.replications - errors[t]
        p = rejects[t] / valid if valid else math.nan
        rates[t] = p
        ses[t] = math.sqrt(p * (1.0 - p) / valid) if valid else math.nan
    return CellEstimate(cfg, rates, ses, errors)


def _assert_matches_reference(cfg: ExperimentConfig) -> None:
    est, ref = run_cell(cfg), _reference_cell(cfg)
    np.testing.assert_equal(est.rates, ref.rates)
    np.testing.assert_equal(est.standard_errors, ref.standard_errors)
    assert est.error_counts == ref.error_counts


class TestChunkedRunCell:
    """run_cell evaluates chunks of replications at once; the results must match one at a time.

    A chunk is 105 replications, set by the 624-word stream keys, and a
    bootstrap test resamples it in windows of max(1, 5 * 2**15 // (B * n))
    replications, so a chunk's last batch may be short; the widths noted
    below are the batch widths.  The cells cover replication counts that
    are not a multiple of the width, counts below one chunk, a width of 1,
    several chunks, chunks ending in a short batch, master seeds of several
    words, and subsets of the tests, which key a subset of the bootstrap
    slots.
    """

    @pytest.mark.parametrize(
        "dist, sizes, variances, alpha, reps, b",
        [
            ("normal", (5, 5), (1.0, 4.0), 0.05, 16, 2000),            # smoothed; width 8
            ("exponential", (12, 15), (1.0, 3.0), 0.05, 15, 1000),     # unsmoothed; width 6
            ("laplace", (4, 9, 12), (1.0, 1.0, 4.0), 0.1, 22, 500),    # three groups, mixed; width 13
            ("uniform", (5, 8, 11, 6), (1.0, 2.0, 3.0, 4.0), 0.05, 23, 400),  # four groups; width 13
            ("student_t5", (5, 5), (1.0, 1.0), 1.0, 25, 300),          # alpha = 1; width 54
            ("normal", (2, 2), (1.0, 1.0), 0.05, 20, 50),              # degenerate Levene; one chunk
            ("extreme_value", (21, 21), (1.0, 2.0), 0.05, 5, 2000),    # width 1
            ("uniform", (3, 5, 7), (1.0, 1.0, 2.0), 0.05, 120, 50),   # width 218: the chunks cut it to 105 and 15
            # bootstrap Levene stops at c exceedances, after an early round of m = B // 5 resamples
            ("normal", (10, 10), (1.0, 1.0), 0.05, 105, 500),          # unsmoothed: draws split in two calls
            ("laplace", (5, 7), (1.0, 1.0), 0.05, 60, 500),            # smoothed: drawn in full up front
            ("uniform", (12, 15, 11), (1.0, 1.0, 1.0), 0.05, 60, 1),   # c / m = 1: no early round
            ("normal", (10, 12), (1.0, 1.0), 0.05, 60, 7),             # c / m = 1
            ("exponential", (10, 10), (1.0, 1.0), 0.05, 80, 20),       # c = 1, m = 4
            ("student_t5", (11, 14), (1.0, 1.0), 0.01, 60, 500),       # c = 5
            ("normal", (6, 12), (1.0, 1.0), 0.1, 60, 500),             # c = 50
            ("normal", (10, 10), (1.0, 1.0), 0.5, 40, 500),            # c = 250 >= m: no early round
        ],
    )
    def test_matches_replication_by_replication_reference(self, dist, sizes, variances, alpha, reps, b):
        _assert_matches_reference(ExperimentConfig(dist, sizes, variances, alpha=alpha, replications=reps,
                                                   bootstrap_b=b, master_seed=sum(sizes) * reps))

    @pytest.mark.parametrize(
        "dist, sizes, reps, b, seed, tests",
        [
            ("normal", (3, 3), 230, 20, 230, ALL_METHODS),          # width 105, set by the key words; 3 chunks
            ("laplace", (4, 6), 40, 30, 2**64 + 5, ALL_METHODS),    # a three-word master seed
            ("exponential", (2, 3), 60, 40, 2**130, ("box",)),       # box only, with redraws
            ("uniform", (5, 8), 50, 30, 18, ("bootstrap_levene", "levene")),
        ],
    )
    def test_keyed_streams_match_reference(self, dist, sizes, reps, b, seed, tests):
        _assert_matches_reference(ExperimentConfig(dist, sizes, (1.0, 2.0), replications=reps, bootstrap_b=b,
                                                   master_seed=seed, tests=tests))

    def test_split_decision_cell_matches_reference(self):
        # 14 resample batches of 9 replications, the last of 3, tallied in two ranges
        cfg = ExperimentConfig("normal", (12, 12, 12), (1.0, 1.0, 1.0), replications=120, master_seed=10,
                               tests=("bootstrap_levene",))
        est, ref = run_grid([cfg], threads=2)[0], _reference_cell(cfg)
        np.testing.assert_equal(est.rates, ref.rates)
        assert est.error_counts == ref.error_counts

    def test_two_point_groups_reach_the_degenerate_levene_path(self):
        # |x - median| is the same for both points of a two-point group, up to rounding
        est = run_cell(_cfg(sizes=(2, 2), replications=20, bootstrap_b=50))
        assert est.error_counts["levene"] == est.error_counts["bootstrap_levene"] == 20
        assert math.isnan(est.rates["levene"]) and math.isnan(est.rates["bootstrap_levene"])

    def test_non_finite_draw_escapes(self, monkeypatch):
        # one chunk of two resample batches of five; at threads=2 the ranges are replications 0-4 and 5-9
        sim = equivar.simulation
        cfg = _cfg(replications=10, bootstrap_b=2000)
        real = sim.sample_standardized
        # the first group of replications 3 and 7, keyed by value: the threads interleave the calls
        poison = [real(cfg.distribution, 8, stream(cfg.master_seed, r, 0)) for r in (3, 7)]
        late = poison[1]

        def poisoned(kind, n, rng):
            x = real(kind, n, rng)
            if np.array_equal(x, late):
                time.sleep(0.2)  # on a concurrent pool, ranges that run beside this one fail first
            if any(np.array_equal(x, p) for p in poison):
                x[0] = np.nan
            return x

        monkeypatch.setattr(sim, "sample_standardized", poisoned)
        with pytest.raises(DegenerateDataError, match="replication 3: group 0 contains non-finite"):
            run_cell(cfg)
        with pytest.raises(DegenerateDataError, match="replication 3: group 0 contains non-finite"):
            run_grid([cfg], threads=2)
        poison.pop(0)
        with pytest.raises(DegenerateDataError, match="replication 7: group 0 contains non-finite"):
            run_grid([cfg], threads=2)
        # at threads=4 a two-cell grid splits each cell into those two ranges; replication 3 of the
        # second cell, in its first range, is poisoned too, and the error still names the first cell's
        other = _cfg(replications=10, bootstrap_b=2000, master_seed=2)
        poison.append(real(other.distribution, 8, stream(other.master_seed, 3, 0)))
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
        widths = []
        monkeypatch.setattr(sim, "ProcessPoolExecutor", _recording_pool(widths))
        with pytest.raises(DegenerateDataError, match="replication 7: group 0 contains non-finite"):
            run_grid([cfg, other], threads=4)
        assert widths == [4]
        # on a real pool the four ranges run at once, and the results are still consumed in task order
        monkeypatch.setattr(sim, "ProcessPoolExecutor", ThreadPoolExecutor)
        with pytest.raises(DegenerateDataError, match="replication 7: group 0 contains non-finite"):
            run_grid([cfg, other], threads=4)


class TestCurtailedBootstrapLevene:
    """run_cell stops a replication's bootstrap-Levene resampling once its decision is settled."""

    @staticmethod
    def _resamples_evaluated(cfg, monkeypatch) -> int:
        real = equivar.homogeneity._levene_combine
        rows = []
        monkeypatch.setattr(equivar.homogeneity, "_levene_combine",
                            lambda sizes, parts: rows.append(len(parts[0][1])) or real(sizes, parts))
        run_cell(cfg)
        return sum(rows) - cfg.replications  # less one observed statistic per replication

    def test_null_cell_stops_early(self, monkeypatch):
        cfg = _cfg(sizes=(10, 10), replications=105, bootstrap_b=500, tests=("bootstrap_levene",))
        assert self._resamples_evaluated(cfg, monkeypatch) < cfg.replications * cfg.bootstrap_b // 2

    def test_rejecting_cell_evaluates_every_resample(self, monkeypatch):
        cfg = _cfg(sizes=(10, 10), variances=(1.0, 100.0), replications=105, bootstrap_b=500,
                   tests=("bootstrap_levene",))
        assert run_cell(cfg).rates["bootstrap_levene"] == 1.0
        assert self._resamples_evaluated(cfg, monkeypatch) == cfg.replications * cfg.bootstrap_b


class TestSharedObservedStatistics:
    """Each observed statistic that several tests use runs once per ``run_all`` call and once per tally chunk."""

    @staticmethod
    def _observed_calls(run, observed, monkeypatch) -> dict[str, int]:
        """Calls of ``moment_rows`` and the Levene statistic, during ``run()``, on the arrays that ``observed()`` lists.

        Resamples are drawn into fresh arrays, so a call on observed data is
        one whose first block shares memory with an observed group.
        """
        calls = {"moment_rows": [], "levene": []}

        def spy(name, real):
            return lambda blocks, *args, **kwargs: calls[name].append(blocks[0]) or real(blocks, *args, **kwargs)

        for module in (equivar.homogeneity, equivar.descriptive):
            monkeypatch.setattr(module, "moment_rows", spy("moment_rows", equivar.descriptive.moment_rows))
        monkeypatch.setattr(equivar.homogeneity, "_levene_stat_rows",
                            spy("levene", equivar.homogeneity._levene_stat_rows))
        run()
        return {name: sum(any(np.shares_memory(block, g) for g in observed()) for block in blocks)
                for name, blocks in calls.items()}

    @pytest.mark.parametrize("groups", [[[0.1, -0.3, 0.5, 1.2, -0.9], [0.4, 0.0, -0.2, 0.8]],
                                        [np.arange(12.0), np.arange(10.0) ** 2, np.sin(np.arange(11.0))]],
                                 ids=["smoothed", "unsmoothed"])
    def test_once_per_run_all_call(self, groups, monkeypatch):
        data = GroupedSample(groups)
        run = lambda: run_all(data, 0.05, BootstrapConfig.from_seed(3, b=50))  # noqa: E731
        assert self._observed_calls(run, lambda: data.groups, monkeypatch) == {"moment_rows": 1, "levene": 1}

    def test_once_per_tally_chunk(self, monkeypatch):
        cfg = _cfg(sizes=(3, 3), variances=(1.0, 2.0), replications=230, bootstrap_b=20)  # chunks of 105, 105, 20
        chunks = []
        real = equivar.simulation.batched

        def recording(methods, groups, *args, **kwargs):
            chunks.append(groups)
            return real(methods, groups, *args, **kwargs)

        monkeypatch.setattr(equivar.simulation, "batched", recording)
        observed = lambda: [g for groups in chunks for g in groups]  # noqa: E731
        run = lambda: equivar.simulation._tally(cfg, range(cfg.replications))  # noqa: E731
        assert self._observed_calls(run, observed, monkeypatch) == {"moment_rows": 3, "levene": 3}
        assert len({id(groups) for groups in chunks}) == 3


class TestResampleBatches:
    """A chunk is tested at once and resampled in batches; neither width may change a result."""

    CELLS = [
        _cfg(sizes=(2, 2), replications=70, bootstrap_b=500, master_seed=3, tests=("box",)),
        _cfg(distribution="laplace", sizes=(40,) * 4, variances=(1.0, 2.0, 3.0, 4.0), replications=5,
             bootstrap_b=500, master_seed=5),
        _cfg(sizes=(3, 3), variances=(1.0, 2.0), replications=230, bootstrap_b=20, master_seed=230),
    ]
    IDS = ["box_redraws", "laplace_4x40", "three_chunks"]

    @pytest.mark.parametrize("cfg", CELLS, ids=IDS)
    def test_results_do_not_depend_on_the_resample_cap(self, cfg, monkeypatch):
        expected = pickle.dumps(run_cell(cfg))
        for cap in (1, 2**10, 2**16, 2**18):
            monkeypatch.setattr(equivar.descriptive, "_RESAMPLE_ELEMENTS", cap)
            assert pickle.dumps(run_cell(cfg)) == expected

    @staticmethod
    def _pool_widths(cfg, monkeypatch) -> list[int]:
        sim = equivar.simulation
        widths = []
        real = sim.generator_pool
        monkeypatch.setattr(sim, "generator_pool", lambda width: widths.append(width) or real(width))
        sim._tally(cfg, range(cfg.replications))
        return widths

    @staticmethod
    def _generators_built(run, monkeypatch) -> int:
        built = []
        real = equivar.rng._generator
        monkeypatch.setattr(equivar.rng, "_generator", lambda: built.append(1) or real())
        run()
        return len(built)

    @pytest.mark.parametrize("cfg", CELLS, ids=IDS)
    def test_one_resample_batch_of_generators_per_slot(self, cfg, monkeypatch):
        # one pool, at most a resample batch wide, serves the data and both bootstrap slots
        width = equivar.homogeneity.resample_width(cfg.sizes, cfg.bootstrap_b)
        widths = self._pool_widths(cfg, monkeypatch)
        assert widths == [min(width, equivar.simulation._CHUNK_ROWS, cfg.replications)]
        if cfg.sizes == (40,) * 4:
            assert widths == [2]
        pool = equivar.rng.generator_pool(widths[0])
        assert len({id(rng) for rng in pool}) == len(pool) == widths[0]

    @pytest.mark.parametrize(
        "sizes, width",
        [((40,) * 4, 2), ((5, 5), 32), ((10, 10), 16), ((15, 15), 10), ((5, 10), 21), ((7, 15), 14),
         ((10, 15), 13)],
    )
    def test_resample_width_at_the_bench_shapes(self, sizes, width):
        # the wide cell and the null grid's group sizes, at B = 500
        assert equivar.homogeneity.resample_width(sizes, 500) == width

    @pytest.mark.parametrize("sizes, expected", [((5, 5), 32), ((15, 15), 10)])
    def test_generators_built_for_a_null_grid_cell(self, sizes, expected, monkeypatch):
        # 5 * 2**15 // (500 * 10) and 5 * 2**15 // (500 * 30) replications per resample batch
        cfg = _cfg(sizes=sizes, replications=200, bootstrap_b=500)
        assert self._pool_widths(cfg, monkeypatch) == [expected]

    def test_a_second_tally_on_a_thread_builds_no_generator(self, monkeypatch):
        cfg = self.CELLS[0]
        tally = equivar.simulation._tally
        first = tally(cfg, range(cfg.replications))
        second = []
        assert self._generators_built(lambda: second.append(tally(cfg, range(cfg.replications))), monkeypatch) == 0
        assert second == [first]

    def test_a_fresh_thread_builds_its_own_pool(self, monkeypatch):
        cfg = self.CELLS[0]  # 70 replications in one resample batch: a pool of 70
        tally = equivar.simulation._tally
        here = tally(cfg, range(cfg.replications))
        there = []
        thread = threading.Thread(target=lambda: there.append(tally(cfg, range(cfg.replications))))
        assert self._generators_built(lambda: (thread.start(), thread.join()), monkeypatch) == 70
        assert there == [here]

    def test_the_threads_of_a_lone_cell_rekey_their_own_generators(self, monkeypatch):
        # resample batches of 2 replications: the 5 replications make ranges 0-1 and 2-4 on 2 threads
        sim = equivar.simulation
        cfg = self.CELLS[1]
        expected = pickle.dumps([run_cell(cfg)])
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        rekeyed: dict[int, list] = {}
        both_running = threading.Barrier(2, timeout=60)
        real = sim.rekey

        def spy(rng, key):
            thread = threading.get_ident()
            if thread not in rekeyed:
                rekeyed[thread] = []
                both_running.wait()  # neither range starts until the other one's thread has
            rekeyed[thread].append(rng)  # holds the generator, so its id stays its own
            return real(rng, key)

        monkeypatch.setattr(sim, "rekey", spy)
        assert pickle.dumps(run_grid([cfg], threads=2)) == expected
        assert len(rekeyed) == 2
        first, second = ({id(rng) for rng in used} for used in rekeyed.values())
        assert first and second and not first & second

    def test_fetched_streams_are_the_keyed_streams(self):
        seed, slot, pool = 12, 2, 2
        keys = equivar.simulation.mt19937_keys(seed, [(r, slot) for r in range(6)])
        rekeyed = equivar.simulation._Rekeyed([equivar.rng._generator() for _ in range(pool)], keys)

        def draws(rng):
            return rng.integers(0, 1000, 7), rng.uniform(-0.5, 0.5, 5), rng.standard_normal(3)

        # a batch of rows 0-1, then rows 2-3 on the same generators, then row 0 again
        for batch in ([0, 1], [2, 3], [0]):
            fetched = [rekeyed[r] for r in batch]
            for r, rng in zip(batch, fetched):
                for ours, theirs in zip(draws(rng), draws(stream(seed, r, slot))):
                    np.testing.assert_array_equal(ours, theirs)


def _recording_pool(widths: list):
    """An executor class that records each pool's max_workers in ``widths`` and maps in the caller."""

    class RecordingPool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    return RecordingPool


class TestRunGrid:
    def test_order_preserved(self):
        cells = [_cfg(master_seed=s, tests=("levene",), replications=20) for s in (1, 2, 3)]
        out = run_grid(cells)
        assert [e.config.master_seed for e in out] == [1, 2, 3]

    def test_parallel_matches_serial(self):
        cells = [
            _cfg(master_seed=11, replications=25, bootstrap_b=20),
            _cfg(master_seed=12, replications=25, bootstrap_b=20, variances=(1.0, 4.0)),
        ]
        serial = run_grid(cells, threads=1)
        parallel = run_grid(cells, threads=2)
        for a, b in zip(serial, parallel):
            assert a.rates == b.rates
            assert a.error_counts == b.error_counts

    def test_pool_no_wider_than_the_grid(self, monkeypatch):
        widths = []
        monkeypatch.setattr(equivar.simulation.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(equivar.simulation, "ProcessPoolExecutor", _recording_pool(widths))
        cells = [_cfg(master_seed=s, tests=("levene",), replications=5) for s in (1, 2, 3)]
        assert [e.rates for e in run_grid(cells[:2], threads=16)] == [run_cell(c).rates for c in cells[:2]]
        run_grid(cells, threads=2)
        assert widths == [2, 2]

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize(
        "cfg",
        [
            _cfg(sizes=(3, 3), variances=(1.0, 2.0), replications=230, bootstrap_b=500, master_seed=230),
            _cfg(sizes=(2, 2), replications=170, bootstrap_b=500, master_seed=3, tests=("box",)),
            _cfg(sizes=(2, 2), replications=250, bootstrap_b=500, master_seed=4),
            _cfg(distribution="laplace", sizes=(40,) * 4, variances=(1.0, 2.0, 3.0, 4.0), replications=5,
                 bootstrap_b=500, master_seed=5),
        ],
        ids=["three_chunks_uneven", "box_redraws", "degenerate_levene", "laplace_4x40"],
    )
    def test_single_cell_on_threads_matches_run_cell(self, cfg, threads):
        # resample batches of 54, 81, 81 and 2 replications: 5, 3, 4 and 3 batches, so every cell makes
        # at least two ranges; three chunks of up to 105 in the first cell and in the third
        assert len(equivar.simulation._ranges(cfg, threads)) > 1
        assert pickle.dumps(run_grid([cfg], threads=threads)) == pickle.dumps([run_cell(cfg)])

    def test_threads_no_more_than_the_chunks(self, monkeypatch):
        # a thread takes whole resample batches, here of 5 * 2**15 // (30 * 16) = 341 replications
        widths = []
        monkeypatch.setattr(equivar.simulation.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(equivar.simulation, "ThreadPoolExecutor", _recording_pool(widths))
        one_batch = _cfg(replications=105, bootstrap_b=30)
        two_batches = _cfg(replications=421, bootstrap_b=30, tests=("levene",))
        assert pickle.dumps(run_grid([one_batch], threads=16)) == pickle.dumps([run_cell(one_batch)])
        assert widths == []
        assert pickle.dumps(run_grid([two_batches], threads=16)) == pickle.dumps([run_cell(two_batches)])
        assert widths == [2]

    def test_small_grid_splits_its_cells_on_processes(self, monkeypatch):
        # resample batches of 5 * 2**15 // (30 * 16) = 341 replications: three per cell, in two ranges
        sim = equivar.simulation
        cells = [_cfg(replications=750, master_seed=31), _cfg(replications=750, master_seed=32, variances=(1.0, 4.0))]
        expected = pickle.dumps([run_cell(c) for c in cells])
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
        widths, tallied = [], []
        real = sim._tally
        monkeypatch.setattr(sim, "_tally", lambda cfg, reps: tallied.append((cfg.master_seed, reps)) or real(cfg, reps))
        monkeypatch.setattr(sim, "ProcessPoolExecutor", _recording_pool(widths))
        assert pickle.dumps(run_grid(cells, threads=4)) == expected
        assert widths == [4]
        assert tallied == [(s, reps) for s in (31, 32) for reps in (range(0, 341), range(341, 750))]
        monkeypatch.setattr(sim, "_tally", real)
        monkeypatch.setattr(sim, "ProcessPoolExecutor", ProcessPoolExecutor)
        assert pickle.dumps(run_grid(cells, threads=4)) == expected

    def test_workers_capped_at_the_cpu_count(self, monkeypatch):
        sim = equivar.simulation
        widths = []
        monkeypatch.setattr(sim, "ProcessPoolExecutor", _recording_pool(widths))
        monkeypatch.setattr(sim, "ThreadPoolExecutor", _recording_pool(widths))
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 3)
        cells = [_cfg(master_seed=s, tests=("levene",), replications=5) for s in range(5)]
        # two replications per resample batch: four batches in three ranges
        lone = _cfg(distribution="laplace", sizes=(40,) * 4, variances=(1.0, 2.0, 3.0, 4.0), replications=7,
                    bootstrap_b=500, master_seed=5)
        assert pickle.dumps(run_grid(cells, threads=100000)) == pickle.dumps([run_cell(c) for c in cells])
        assert pickle.dumps(run_grid([lone], threads=100000)) == pickle.dumps([run_cell(lone)])
        assert widths == [3, 3]
        for unknown_or_one in (None, 1):  # os.cpu_count() may not know: run serially
            monkeypatch.setattr(sim.os, "cpu_count", lambda: unknown_or_one)
            assert pickle.dumps(run_grid(cells, threads=100000)) == pickle.dumps([run_cell(c) for c in cells])
            assert pickle.dumps(run_grid([lone], threads=100000)) == pickle.dumps([run_cell(lone)])
        assert widths == [3, 3]

    def test_each_in_process_cell_runs_through_run_cell(self, monkeypatch):
        # a wrapper of the module's run_cell sees every cell run in this process, once
        sim = equivar.simulation
        ran = []
        real = sim.run_cell
        monkeypatch.setattr(sim, "run_cell", lambda cfg: ran.append(cfg) or real(cfg))
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
        cells = [_cfg(master_seed=s, tests=("levene",), replications=5) for s in (1, 2, 3)]
        assert [e.config for e in run_grid(cells, threads=1)] == ran == cells
        # one resample batch of 5 * 2**15 // (30 * 16) = 341 replications: the lone cell cannot split
        lone = _cfg(replications=105, bootstrap_b=30)
        ran.clear()
        monkeypatch.setattr(sim, "ThreadPoolExecutor", lambda max_workers: pytest.fail("the cell split"))
        assert [e.config for e in run_grid([lone], threads=4)] == ran == [lone]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_grid([])

    @pytest.mark.parametrize("threads", [0, -1, True, 2.5, "2", None])
    def test_bad_threads_rejected_before_any_pool(self, monkeypatch, threads):
        widths = []
        monkeypatch.setattr(equivar.simulation, "ProcessPoolExecutor", _recording_pool(widths))
        monkeypatch.setattr(equivar.simulation, "ThreadPoolExecutor", _recording_pool(widths))
        cells = [_cfg(master_seed=s, tests=("levene",), replications=5) for s in (1, 2)]
        for grid in (cells, cells[:1]):
            with pytest.raises(ValueError, match="threads must be an integer of at least 1"):
                run_grid(grid, threads=threads)
        assert widths == []


class TestAveragedPower:
    def test_average_is_exact_mean_of_cells(self):
        cfg_a = _cfg(variances=(1.0, 9.0), replications=60, master_seed=21, tests=("levene", "box"))
        cfg_b = _cfg(variances=(9.0, 1.0), replications=60, master_seed=22, tests=("levene", "box"))
        combined = averaged_power(cfg_a, cfg_b)
        est_a, est_b = run_cell(cfg_a), run_cell(cfg_b)
        for t in cfg_a.tests:
            assert combined.rates[t] == (est_a.rates[t] + est_b.rates[t]) / 2.0

    def test_commutative(self):
        cfg_a = _cfg(variances=(1.0, 9.0), replications=40, master_seed=23, tests=("levene",))
        cfg_b = _cfg(variances=(9.0, 1.0), replications=40, master_seed=24, tests=("levene",))
        assert averaged_power(cfg_a, cfg_b).rates == averaged_power(cfg_b, cfg_a).rates

    def test_requires_reversed_variances(self):
        cfg_a = _cfg(variances=(1.0, 9.0), tests=("levene",))
        cfg_b = _cfg(variances=(1.0, 9.0), tests=("levene",))
        with pytest.raises(ValueError, match="revers"):
            averaged_power(cfg_a, cfg_b)

    @pytest.mark.parametrize(
        "field, value",
        [("alpha", 0.1), ("replications", 41), ("bootstrap_b", 31), ("tests", ("levene", "box")),
         ("distribution", "laplace")],
    )
    def test_requires_every_other_field_to_match(self, field, value, monkeypatch):
        monkeypatch.setattr(equivar.simulation, "run_cell", lambda cfg: pytest.fail("a cell ran"))
        cfg_a = _cfg(variances=(1.0, 9.0), tests=("levene",))
        cfg_b = _cfg(**{"variances": (9.0, 1.0), "master_seed": 2, "tests": ("levene",), field: value})
        with pytest.raises(ValueError, match="revers"):
            averaged_power(cfg_a, cfg_b)

    def test_requires_matching_shape(self):
        cfg_a = _cfg(variances=(1.0, 9.0), tests=("levene",))
        cfg_b = _cfg(variances=(9.0, 1.0), sizes=(8, 9), tests=("levene",))
        with pytest.raises(ValueError):
            averaged_power(cfg_a, cfg_b)


class TestRobustness:
    def _estimate(self, rate, variances=(1.0, 1.0), test="levene"):
        cfg = _cfg(variances=variances, tests=(test,))
        return CellEstimate(cfg, {test: rate}, {test: 0.01}, {test: 0})

    def test_flags_excessive_size(self):
        report = robustness([self._estimate(0.04), self._estimate(0.13)], alpha=0.05)
        assert report.max_size["levene"] == 0.13
        assert not report.robust["levene"]

    def test_accepts_moderate_size(self):
        report = robustness([self._estimate(0.08), self._estimate(0.05)], alpha=0.05)
        assert report.robust["levene"]

    def test_rejects_non_null_cells(self):
        with pytest.raises(ValueError, match="not a null"):
            robustness([self._estimate(0.05, variances=(1.0, 2.0))])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            robustness([])

    def test_rejects_cells_run_at_another_level(self):
        cell = CellEstimate(_cfg(alpha=0.10), {"levene": 0.0}, {"levene": 0.0}, {"levene": 0})
        with pytest.raises(ValueError, match=r"alpha=0.1 cannot be judged at alpha=0.05"):
            robustness([self._estimate(0.04), cell], alpha=0.05)

    def test_rejects_missing_estimates(self):
        cfg = _cfg(tests=("levene",))
        broken = CellEstimate(cfg, {"levene": math.nan}, {"levene": math.nan}, {"levene": 50})
        with pytest.raises(ValueError, match="no usable"):
            robustness([broken])


class TestTwoGroupNullGrid:
    def test_layout(self):
        cells = two_group_null_grid(master_seed=7, replications=10, bootstrap_b=5)
        assert len(cells) == 36
        assert [c.sizes for c in cells[:6]] == [(5, 5)] * 6
        assert [c.distribution for c in cells[:6]] == list(Distribution)
        assert cells[-1].sizes == (10, 15)
        assert all(c.is_null for c in cells)

    def test_distinct_seeds(self):
        cells = two_group_null_grid(master_seed=7, replications=10, bootstrap_b=5)
        seeds = {c.master_seed for c in cells}
        assert len(seeds) == 36

    def test_reproducible(self):
        a = two_group_null_grid(master_seed=7, replications=10, bootstrap_b=5)
        b = two_group_null_grid(master_seed=7, replications=10, bootstrap_b=5)
        assert [c.master_seed for c in a] == [c.master_seed for c in b]


class TestNullCalibration:
    """Long-run rejection rates under the null stay near the nominal level.

    The bands are alpha +/- 4 standard errors at 4000 replications.  The
    Levene test needs moderately large groups before its conservatism
    fades, and the box test needs both large groups and a large bootstrap
    (its finite-sample size at the study scale of B=500, n<=15 sits near
    0.06-0.07, as the power study tables also show).
    """

    def test_f_and_chi2_tests_calibrated(self):
        cfg = ExperimentConfig(
            "normal", (100, 100), (1.0, 1.0), replications=4000, bootstrap_b=500,
            master_seed=4242, tests=("levene", "shoemaker", "bootstrap_levene"),
        )
        est = run_cell(cfg)
        for t in cfg.tests:
            band = 4.0 * math.sqrt(0.05 * 0.95 / 4000)
            assert abs(est.rates[t] - 0.05) < band, (t, est.rates[t])

    def test_box_test_calibrated_at_scale(self):
        cfg = ExperimentConfig(
            "normal", (200, 200), (1.0, 1.0), replications=4000, bootstrap_b=2000,
            master_seed=4243, tests=("box",),
        )
        est = run_cell(cfg)
        band = 4.0 * math.sqrt(0.05 * 0.95 / 4000)
        assert abs(est.rates["box"] - 0.05) < band, est.rates["box"]
