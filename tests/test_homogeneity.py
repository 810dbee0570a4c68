import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats

import equivar.descriptive
import equivar.homogeneity
from equivar import (
    ALL_METHODS,
    BootstrapConfig,
    DegenerateDataError,
    GroupedSample,
    NumericError,
    bootstrap_levene,
    box_test,
    levene,
    log_variance_contrasts,
    run_all,
    shoemaker,
    stream,
)
from equivar.descriptive import log_variance_rows, moment_rows
from equivar.homogeneity import (
    BOOTSTRAP_LEVENE, BOX, LEVENE, SHOEMAKER, _curtailment, _levene_stat_rows, _row_medians, batched,
)
from equivar.special import chi2_quantile, f_quantile

FIXED_A = [0.1, -0.3, 0.5, 1.2, -0.9]
FIXED_B = [0.4, 0.0, -0.2, 0.8, -1.1]


def _random_data(seed, sizes=(8, 11, 6), spread=(1.0, 1.0, 1.0)):
    rng = stream(seed)
    return GroupedSample([s * rng.normal(size=n) for n, s in zip(sizes, spread)])


def _oracle_levene(groups):
    """Literal evaluation of the median-centered ANOVA F ratio."""
    k = len(groups) - 1
    n = sum(len(g) for g in groups)
    e = [[abs(v - float(np.median(g))) for v in g] for g in groups]
    means = [sum(x) / len(x) for x in e]
    grand = sum(sum(x) for x in e) / n
    ssb = sum(len(x) * (m - grand) ** 2 for x, m in zip(e, means))
    ssw = sum(sum((v - m) ** 2 for v in x) for x, m in zip(e, means))
    return (ssb / k) / (ssw / (n - k - 1))


def _oracle_shoemaker(groups):
    count = len(groups)
    n = sum(len(g) for g in groups)
    mu4 = 0.0
    ss = 0.0
    s2 = []
    for g in groups:
        m = sum(g) / len(g)
        mu4 += sum((v - m) ** 4 for v in g)
        ss += sum((v - m) ** 2 for v in g)
        s2.append(sum((v - m) ** 2 for v in g) / (len(g) - 1))
    mu4 /= n
    sigma2 = ss / n
    h = count / sum(1.0 / len(g) for g in groups)
    var_log = (mu4 / sigma2**2 - (h - 3.0) / h) / (h - 1.0)
    logs = [math.log(v) for v in s2]
    mean_log = sum(logs) / count
    return sum((v - mean_log) ** 2 for v in logs) / var_log


class TestLevene:
    def test_identical_absolute_deviations_accept(self):
        res = levene(GroupedSample([[-1.0, 1.0], [-1.0, 1.0]]), 0.05)
        assert res.statistic == 0.0
        assert not res.reject

    def test_oracle_on_fixed_dataset(self):
        res = levene(GroupedSample([FIXED_A, FIXED_B]), 0.05)
        assert res.statistic == pytest.approx(_oracle_levene([FIXED_A, FIXED_B]), rel=1e-12)
        assert res.df == (1, 8)

    def test_matches_scipy(self):
        rng = stream(200)
        for _ in range(10):
            groups = [rng.normal(size=int(rng.integers(4, 12))) for _ in range(int(rng.integers(2, 5)))]
            ours = levene(GroupedSample(groups), 0.05)
            ref, _ = scipy.stats.levene(*groups, center="median")
            assert ours.statistic == pytest.approx(ref, rel=1e-12)

    def test_scale_invariant(self):
        data = _random_data(201)
        base = levene(data, 0.05)
        scaled = levene(GroupedSample([10.0 * g for g in data.groups]), 0.05)
        assert scaled.statistic == pytest.approx(base.statistic, rel=1e-12)
        assert scaled.reject == base.reject

    def test_row_medians_equal_numpy_median(self):
        rng = stream(202)
        for n in (2, 3, 5, 10, 15, 40):
            x = rng.normal(size=(50, n))
            np.testing.assert_array_equal(_row_medians(x), np.median(x, axis=1))

    def test_between_without_within_variation_degenerate(self):
        data = GroupedSample([[-1.0, 1.0, -1.0, 1.0], [-2.0, 2.0, -2.0, 2.0]])
        with pytest.raises(DegenerateDataError, match="within-group variation"):
            levene(data, 0.05)

    def test_decision_rule(self):
        for seed in range(5):
            res = levene(_random_data(300 + seed, spread=(1.0, 2.5, 1.0)), 0.05)
            assert res.reject == (res.statistic > res.critical_value)


class TestShoemaker:
    def test_equal_variances_give_zero(self):
        res = shoemaker(GroupedSample([[0.0, 1.0, 2.0], [10.0, 11.0, 12.0]]), 0.05)
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert not res.reject

    def test_oracle_on_fixed_dataset(self):
        res = shoemaker(GroupedSample([FIXED_A, FIXED_B]), 0.05)
        assert res.statistic == pytest.approx(_oracle_shoemaker([FIXED_A, FIXED_B]), rel=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateDataError):
            shoemaker(GroupedSample([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]]), 0.05)

    def test_decision_rule(self):
        for seed in range(5):
            res = shoemaker(_random_data(310 + seed, spread=(1.0, 3.0, 1.0)), 0.05)
            assert res.reject == (res.statistic > res.critical_value)


class TestBootstrapLevene:
    def test_jitter_scale_worked_example(self):
        # q, the jitter scale, is the pooled standard deviation about the group means: sqrt(sigma2)
        assert np.sqrt(moment_rows(GroupedSample([[0.0, 2.0], [1.0, 3.0]]).rows)[2])[0] == pytest.approx(1.0)

    def test_p_value_on_lattice(self):
        cfg = BootstrapConfig.from_seed(7, b=40)
        res = bootstrap_levene(_random_data(320), 0.05, cfg)
        assert 0.0 <= res.p_value <= 1.0
        assert res.p_value * cfg.b == pytest.approx(round(res.p_value * cfg.b))

    def test_extreme_separation_gives_zero_p(self):
        rng = stream(321)
        data = GroupedSample([rng.normal(size=15), 100.0 * rng.normal(size=15)])
        res = bootstrap_levene(data, 0.05, BootstrapConfig.from_seed(1, b=100))
        assert res.p_value == 0.0
        assert res.reject  # p = 0 rejects at any positive level

    def test_deterministic_given_seed(self):
        data = _random_data(322)
        a = bootstrap_levene(data, 0.05, BootstrapConfig.from_seed(9, b=60))
        b = bootstrap_levene(data, 0.05, BootstrapConfig.from_seed(9, b=60))
        assert a.p_value == b.p_value
        assert a.statistic == b.statistic

    def test_statistic_matches_plain_levene(self):
        data = _random_data(323)
        res = bootstrap_levene(data, 0.05, BootstrapConfig.from_seed(2, b=25))
        assert res.statistic == levene(data, 0.05).statistic

    def test_smoothing_branch_runs_for_small_groups(self):
        rng = stream(324)
        data = GroupedSample([rng.normal(size=5), rng.normal(size=12)])
        res = bootstrap_levene(data, 0.05, BootstrapConfig.from_seed(3, b=50))
        assert 0.0 <= res.p_value <= 1.0

    def test_zero_residual_pool_degenerate(self):
        data = GroupedSample([[4.0, 4.0, 4.0], [9.0, 9.0]])
        with pytest.raises(DegenerateDataError, match="residual pool"):
            bootstrap_levene(data, 0.05, BootstrapConfig.from_seed(4, b=10))

    def test_decision_rule(self):
        res = bootstrap_levene(_random_data(325, spread=(1.0, 2.0, 1.0)), 0.05,
                               BootstrapConfig.from_seed(5, b=80))
        assert res.reject == (res.p_value < res.alpha)


class TestEarlyRoundWithSmoothing:
    """Decision-only bootstrap Levene on a smoothed batch whose b resamples fit in one slice.

    Every stream draws all b rows before its jitter, and every block, the
    unsmoothed ones too, lands whole and is reduced round by round: a row
    settled in the early round reduces only its first m resamples.
    """

    def test_a_settled_row_reduces_fewer_than_b_unsmoothed_rows(self, monkeypatch):
        sizes, b, alpha, seeds = (5, 12), 500, 0.05, (400, 402, 414)
        draws = []
        for seed in seeds:
            rng = stream(seed)
            draws.append([rng.normal(size=n) for n in sizes])
        groups = [np.stack(column) for column in zip(*draws)]
        c, m, gate = _curtailment(alpha, b, sizes)
        assert (c, m) == (25, 100) and equivar.descriptive.slice_rows(sum(sizes)) >= b
        assert (_levene_stat_rows(groups)[0] < gate).tolist() == [True, False, True]
        reduced = []
        real = equivar.homogeneity._levene_group

        def counting(block):
            if block.shape[1] == sizes[1]:
                reduced.append(block.shape[0])
            return real(block)

        def run(p_values):
            rngs = {BOOTSTRAP_LEVENE: [stream(seed, 1) for seed in seeds]}
            return batched((BOOTSTRAP_LEVENE,), groups, rngs, alpha, b, p_values=p_values)[BOOTSTRAP_LEVENE]

        monkeypatch.setattr(equivar.homogeneity, "_levene_group", counting)
        decided = run(False)
        # the observed statistics, the early round of all three rows, then the two rows that go on
        assert reduced == [3, 3 * m, 2 * (b - m)]
        assert np.array_equal(decided.reject, run(True).reject)


class _ConstantIndexRng(np.random.Generator):
    """Stand-in generator whose resampling indices always pick element 0."""

    def __init__(self):
        super().__init__(np.random.MT19937(0))

    def integers(self, low, high, size=None):
        return np.zeros(size, dtype=np.int64)


class TestBoxTest:
    def test_batched_stats_match_scalar_path(self):
        data = _random_data(330, sizes=(6, 9, 7))
        rngs = [stream(331, i) for i in range(5)]
        boots = [GroupedSample([rng.choice(g, g.size) for g in data.groups]) for rng in rngs]
        groups = [np.stack(column) for column in zip(*(b.groups for b in boots))]
        rows, _, errors = log_variance_rows(data.sizes, moment_rows(groups))
        assert errors == {}
        for t, boot in zip(rows.t.T, boots):
            np.testing.assert_array_equal(t, log_variance_contrasts(boot).t)

    def test_statistic_is_observed_t_vector(self):
        data = _random_data(332)
        res = box_test(data, 0.05, BootstrapConfig.from_seed(6, b=50))
        np.testing.assert_allclose(res.statistic, log_variance_contrasts(data).t, rtol=1e-12)

    def test_decision_rule(self):
        for seed, spread in [(333, (1.0, 1.0, 1.0)), (334, (1.0, 4.0, 1.0))]:
            res = box_test(_random_data(seed, spread=spread), 0.05, BootstrapConfig.from_seed(7, b=120))
            assert res.reject == (float(np.abs(res.statistic).max()) > res.critical_value)

    def test_scale_invariant_with_replayed_stream(self):
        data = _random_data(335)
        base = box_test(data, 0.05, BootstrapConfig.from_seed(8, b=100))
        scaled = box_test(
            GroupedSample([3.7 * g for g in data.groups]), 0.05, BootstrapConfig.from_seed(8, b=100)
        )
        np.testing.assert_allclose(scaled.statistic, base.statistic, rtol=1e-10)
        assert scaled.critical_value == pytest.approx(base.critical_value, rel=1e-10)
        assert scaled.reject == base.reject

    def test_pivot_variant_runs_and_differs(self):
        data = _random_data(336, spread=(1.0, 2.0, 1.0))
        plain = box_test(data, 0.05, BootstrapConfig.from_seed(9, b=200))
        pivot = box_test(data, 0.05, BootstrapConfig.from_seed(9, b=200, pivot_variant=True))
        np.testing.assert_allclose(pivot.statistic, plain.statistic, rtol=1e-12)
        assert pivot.critical_value != plain.critical_value

    def test_tiny_groups_trigger_redraws(self):
        # Two-point groups hit zero-variance resamples with probability 1/2
        # per group per replicate, exercising the redraw loop.
        data = GroupedSample([[0.0, 1.0], [2.0, 5.0]])
        res = box_test(data, 0.05, BootstrapConfig.from_seed(10, b=64))
        assert np.isfinite(res.critical_value)
        again = box_test(data, 0.05, BootstrapConfig.from_seed(10, b=64))
        assert again.critical_value == res.critical_value

    @pytest.mark.parametrize(
        "groups, seed, pivot, expected",
        [
            ([[0.0, 1.0], [2.0, 5.0]], 10, False, 1.3322676295501878e-15),
            ([[0.0, 1.0], [2.0, 5.0, 3.0], [1.0, 4.0]], 12, False, 0.8647160428791741),
            ([[0.0, 1.0], [2.0, 5.0, 3.0], [1.0, 4.0]], 12, True, 1.2713665822609443),
        ],
        ids=["2,2", "2,3,2", "2,3,2 pivot"],
    )
    def test_redrawn_critical_values_are_pinned(self, groups, seed, pivot, expected):
        # Most resamples of these groups have a zero-variance group, so these
        # values depend on which fresh draws replace them.
        cfg = BootstrapConfig.from_seed(seed, b=64, pivot_variant=pivot)
        assert box_test(GroupedSample(groups), 0.05, cfg).critical_value == expected

    def test_redraw_cap_raises(self):
        data = GroupedSample([[0.0, 1.0], [2.0, 5.0]])
        cfg = BootstrapConfig(rng=_ConstantIndexRng(), b=8)
        with pytest.raises(NumericError, match="redraws"):
            box_test(data, 0.05, cfg)

    def test_zero_variance_group_degenerate(self):
        with pytest.raises(DegenerateDataError):
            box_test(GroupedSample([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]]), 0.05,
                     BootstrapConfig.from_seed(11, b=10))


class TestRunAll:
    def test_four_results_on_valid_data(self):
        data = _random_data(340)
        results, errors = run_all(data, 0.05, BootstrapConfig.from_seed(12, b=60))
        assert [r.method for r in results] == ["levene", "shoemaker", "bootstrap_levene", "box"]
        assert errors == {}
        box_res = results[-1]
        assert len(box_res.statistic) == len(data)

    def test_large_groups_are_resampled_within_the_cap(self):
        # b * n = 20 million values a test: drawn whole, bootstrap Levene's peak was 381.8 MiB.  Groups of 6
        # and 20 000: bootstrap Levene lands the smoothed 6-value block whole, and joining the slices
        # (np.concatenate) instead of placing them kept every slice's draws alive, 78.7 MiB.  19 999 zeros and
        # a one: about 37% of the box test's resamples miss the one and are redrawn, and redrawing the lone
        # dataset's resamples in one array, past the cap, peaked at 81.4 MiB
        lone_one = np.zeros(20_000)
        lone_one[-1] = 1.0
        inputs = {sizes: [stream(341, i).standard_normal(n) for i, n in enumerate(sizes)]
                  for sizes in [(20_000, 20_000), (6, 20_000)]}
        inputs["lone_one"] = [lone_one, stream(341, 1).standard_normal(20_000)]
        for sizes, groups in inputs.items():
            data = GroupedSample(groups)
            tracemalloc.start()
            try:
                results, errors = run_all(data, 0.05, BootstrapConfig.from_seed(14, b=500))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert errors == {} and len(results) == 4, sizes
            assert peak < 48 * 2**20, (sizes, peak)

    def test_error_isolation_with_constant_group(self):
        data = GroupedSample([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]])
        results, errors = run_all(data, 0.05, BootstrapConfig.from_seed(13, b=40))
        ran = {r.method for r in results}
        assert "levene" in ran and "bootstrap_levene" in ran
        assert set(errors) == {"shoemaker", "box"}

    @staticmethod
    def _reference(data, alpha, rngs, b, pivot=False) -> list[dict]:
        """The four one-dataset calls, the bootstrap tests on ``rngs``."""
        bl_rng, box_rng = rngs
        return [r.as_dict() for r in (
            levene(data, alpha),
            shoemaker(data, alpha),
            bootstrap_levene(data, alpha, BootstrapConfig(bl_rng, b=b, pivot_variant=pivot)),
            box_test(data, alpha, BootstrapConfig(box_rng, b=b, pivot_variant=pivot)),
        )]

    @pytest.mark.parametrize("pivot", [False, True])
    def test_matches_the_four_calls_on_spawned_streams(self, pivot):
        data = _random_data(342, spread=(1.0, 1.5, 1.0))
        results, errors = run_all(data, 0.1, BootstrapConfig.from_seed(15, b=70, pivot_variant=pivot))
        assert errors == {}
        assert [r.as_dict() for r in results] == self._reference(data, 0.1, stream(15).spawn(2), 70, pivot)

    @pytest.mark.parametrize("pivot", [False, True])
    @pytest.mark.parametrize("b", [1, 60, 500])
    def test_pooled_streams_match_spawned_ones(self, b, pivot):
        data = _random_data(343, sizes=(5, 12, 9), spread=(1.0, 2.0, 1.0))
        results, errors = run_all(data, 0.1, BootstrapConfig.from_seed(16, b=b, pivot_variant=pivot))
        assert errors == {}
        assert [r.as_dict() for r in results] == self._reference(data, 0.1, stream(16).spawn(2), b, pivot)

    def test_two_calls_on_one_config_take_the_next_children(self):
        data = _random_data(344)
        cfg, parent = BootstrapConfig.from_seed(17, b=40), stream(17)
        for _ in range(2):  # children 0-1, then 2-3
            assert [r.as_dict() for r in run_all(data, 0.1, cfg)[0]] == self._reference(data, 0.1, parent.spawn(2), 40)
        assert cfg.rng.bit_generator.seed_seq.n_children_spawned == 4

    def test_a_pcg64_config_gives_the_reference_results(self):
        data = _random_data(345)
        cfg = BootstrapConfig(np.random.Generator(np.random.PCG64(18)), b=60)
        expected = self._reference(data, 0.1, np.random.Generator(np.random.PCG64(18)).spawn(2), 60)
        assert [r.as_dict() for r in run_all(data, 0.1, cfg)[0]] == expected

    @pytest.mark.parametrize(
        "groups",
        [
            # the resample [0, 0, 2.7e-162] has a sum of squares of one
            # subnormal unit, and s^2 = ss / 2 rounds to 0
            [[0.0, 2.7e-162, 1e-71], [1.0, 2.0, 3.5]],
            # in a resample without 1e-71 the pooled fourth moment underflows
            # to 0 and var(ln s^2) turns negative
            [[0.0, 1e-100, 3e-100, 1e-71], [0.0, 2e-100, 5e-100, 1e-71]],
        ],
        ids=["s2 underflow", "mu4 underflow"],
    )
    def test_resamples_with_undefined_t_are_redrawn(self, groups):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results, errors = run_all(GroupedSample(groups), 0.05, BootstrapConfig.from_seed(0, b=200))
        assert errors == {}
        assert [r.method for r in results] == list(ALL_METHODS)
        assert np.isfinite(results[-1].critical_value)

    def test_deterministic_across_runs(self):
        data = _random_data(341)
        res1, _ = run_all(data, 0.05, BootstrapConfig.from_seed(14, b=50))
        res2, _ = run_all(data, 0.05, BootstrapConfig.from_seed(14, b=50))
        for a, b in zip(res1, res2):
            assert a.as_dict() == b.as_dict()


class TestScaleAndLocationInvariance:
    def test_all_statistics_invariant_at_fixed_streams(self):
        data = _random_data(350, sizes=(7, 9, 12), spread=(1.0, 1.8, 1.0))
        shifts = (3.0, -8.0, 0.5)
        # 1e70 and 1e-70 are near the ends of the supported scales
        scaled = [GroupedSample([scale * g for g in data.groups]) for scale in (42.0, 1e70, 1e-70)]
        shifted = GroupedSample([g + off for g, off in zip(data.groups, shifts)])
        for variant in (*scaled, shifted):
            lev0, lev1 = levene(data, 0.05), levene(variant, 0.05)
            assert lev1.statistic == pytest.approx(lev0.statistic, rel=1e-12)
            sho0, sho1 = shoemaker(data, 0.05), shoemaker(variant, 0.05)
            assert sho1.statistic == pytest.approx(sho0.statistic, rel=1e-12)
            bl0 = bootstrap_levene(data, 0.05, BootstrapConfig.from_seed(15, b=150))
            bl1 = bootstrap_levene(variant, 0.05, BootstrapConfig.from_seed(15, b=150))
            assert bl1.p_value == bl0.p_value
            bx0 = box_test(data, 0.05, BootstrapConfig.from_seed(16, b=150))
            bx1 = box_test(variant, 0.05, BootstrapConfig.from_seed(16, b=150))
            np.testing.assert_allclose(bx1.statistic, bx0.statistic, rtol=1e-12)
            assert bx1.critical_value == pytest.approx(bx0.critical_value, rel=1e-12)
            for r0, r1 in ((lev0, lev1), (sho0, sho1), (bl0, bl1), (bx0, bx1)):
                assert r0.reject == r1.reject


class TestBatched:
    """A batch of datasets gives, row by row, what one-dataset calls give."""

    SIZES = (4, 6)

    @staticmethod
    def _test(method, *args, **kwargs):
        """``method`` alone in ``batched``, as a function (groups, row streams) -> Outcomes."""
        return lambda groups, rngs: batched((method,), groups, {method: rngs}, *args, **kwargs)[method]

    def _datasets(self):
        rng = stream(360)
        groups = [[s * rng.normal(size=n) for n, s in zip(self.SIZES, (1.0, 2.0))] for _ in range(5)]
        groups.insert(1, [[-1.0, 1.0, -1.0, 1.0], [-2.0, 2.0, -2.0, 2.0, -2.0, 2.0]])  # degenerate Levene
        groups.insert(4, [[5.0, 5.0, 5.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])      # zero variance
        return [GroupedSample(g) for g in groups]

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_rows_match_one_dataset_calls(self, method):
        datasets = self._datasets()
        test = self._test(method, 0.1, b=40)
        stacked = [np.stack(column) for column in zip(*(d.groups for d in datasets))]
        batch = test(stacked, [stream(361, r) for r in range(len(datasets))])
        assert batch.errors  # the degenerate rows reach every method
        self._assert_rows_match(test, datasets, batch)

    @pytest.mark.parametrize("method", [BOOTSTRAP_LEVENE, BOX])
    def test_resample_batches_with_gaps(self, method, monkeypatch):
        # resample batches of 3 datasets, b * n = 400 values each; the box skips rows 1 and 4
        monkeypatch.setattr(equivar.descriptive, "_RESAMPLE_ELEMENTS", 3 * 400 + 399)
        rng = stream(362)
        datasets = [[rng.normal(size=n) for n in self.SIZES] for _ in range(12)]
        for r in (1, 4):
            datasets[r][0] = np.full(self.SIZES[0], 2.5)
        datasets = [GroupedSample(g) for g in datasets]
        test = self._test(method, 0.1, b=40)
        stacked = [np.stack(column) for column in zip(*(d.groups for d in datasets))]
        fetched = []

        class Streams:
            def __getitem__(self, r):
                fetched.append(r)
                return stream(363, r)

        batch = test(stacked, Streams())
        skipped = [1, 4] if method == BOX else []
        assert list(batch.errors) == skipped
        assert fetched == [r for r in range(12) if r not in skipped]  # each row once, in order
        self._assert_rows_match(test, datasets, batch, seed=363)

    @pytest.mark.parametrize("pivot", [False, True])
    def test_a_row_whose_redraws_fail_leaves_its_batch_as_it_is(self, pivot):
        # row 2 resamples element 0 only, so every redraw of its groups of two stays degenerate
        groups = [[[0.0, 1.0], [2.0, 5.0, 3.0]], [[0.0, 1.0], [2.0, 5.0, 3.0]], [[0.0, 1.0], [2.0, 5.0, 3.0]],
                  [[1.5, 4.0], [2.5, 0.5, 3.0]]]
        stacked = [np.array([g[i] for g in groups]) for i in range(2)]
        test = self._test(BOX, 0.05, b=30, pivot_variant=pivot)
        rngs = [stream(366, r) for r in range(2)] + [_ConstantIndexRng(), stream(366, 3)]
        batch = test(stacked, rngs)
        assert list(batch.errors) == [2] and "redraws" in str(batch.errors[2])
        assert np.isnan(batch.critical_value[2])
        for r in (0, 1, 3):
            one = test(GroupedSample(groups[r]).rows, [stream(366, r)])
            assert one.errors == {}
            assert one.critical_value[0] == batch.critical_value[r] and np.isfinite(one.critical_value[0])

    @pytest.mark.parametrize("sizes", [(10, 12), (4, 12)], ids=["split_draws", "smoothed"])
    def test_decision_mode_keeps_the_p_value_decisions(self, sizes, monkeypatch):
        # c = 10 of b = 100, an early round of m = 20 resamples gated at the F median; two resample batches
        rng = stream(364)
        stacked = [rng.normal(size=(40, n)) for n in sizes]
        real = equivar.homogeneity._levene_group
        fetched, evaluated = [], {True: [], False: []}

        class Streams:
            def __getitem__(self, r):
                fetched.append(r)
                return stream(365, r)

        outcomes = {}
        for p_values in (True, False):
            monkeypatch.setattr(equivar.homogeneity, "_levene_group",
                                lambda block: evaluated[p_values].extend(map(np.ndarray.tobytes, block)) or real(block))
            fetched.clear()
            outcomes[p_values] = self._test(BOOTSTRAP_LEVENE, 0.1, b=100, p_values=p_values)(stacked, Streams())
            assert fetched == list(range(40))  # each row once, in order
        full, decided = outcomes[True], outcomes[False]
        assert decided.p_value is None and full.p_value is not None
        assert 0 < decided.rejections < 40
        np.testing.assert_array_equal(decided.reject, full.reject)
        np.testing.assert_array_equal(decided.statistic, full.statistic)
        # the curtailed resamples are fewer, and every group of them is a resampled group the full path draws
        drawn = set(evaluated[True])
        assert len(evaluated[False]) < len(evaluated[True])
        assert all(row in drawn for row in evaluated[False])

    @staticmethod
    def _assert_rows_match(test, datasets, batch, seed=361):
        for r, data in enumerate(datasets):
            one = test(data.rows, [stream(seed, r)])
            if r in batch.errors:
                assert list(one.errors) == [0]
                assert type(one.errors[0]) is type(batch.errors[r])
                assert str(one.errors[0]) == str(batch.errors[r])
            else:
                assert one.errors == {}
                assert one.reject[0] == batch.reject[r]
            np.testing.assert_array_equal(one.statistic[0], batch.statistic[r])
            for field in ("critical_value", "p_value"):
                ours, theirs = getattr(batch, field), getattr(one, field)
                assert (ours is None) == (theirs is None)
                if ours is not None:
                    np.testing.assert_array_equal(theirs[0], ours[r])

    @pytest.mark.parametrize(
        "methods, alpha, b, message",
        [
            (ALL_METHODS, True, 40, "alpha must be a finite real number, got True"),
            (ALL_METHODS, "0.05", 40, "alpha must be a finite real number"),
            (ALL_METHODS, math.nan, 40, "alpha must be a finite real number"),
            (ALL_METHODS, 0.0, 40, r"alpha must lie in \(0, 1\]"),
            (ALL_METHODS, 1.5, 40, r"alpha must lie in \(0, 1\]"),
            (ALL_METHODS, 1e-17, 40, "alpha must leave 1 - alpha below 1.0 in floating point, got 1e-17"),
            (("bootstrap_levene", "box"), 0.1, 2.5, "b must be an integer of at least 1 and at most 429496729, got 2.5"),
            (("bootstrap_levene", "box"), 0.1, True, "b must be an integer of at least 1 and at most 429496729, got True"),
            (("bootstrap_levene", "box"), 0.1, "5", "b must be an integer of at least 1 and at most 429496729, got '5'"),
            (("bootstrap_levene", "box"), 0.1, 0, "b must be an integer of at least 1 and at most 429496729, got 0"),
            # b * sum(sizes) = 10 * b values of resamples per dataset, at most MAX_VALUES = 2**32
            (("bootstrap_levene", "box"), 0.1, 2**32 // 10 + 1, "at most 429496729, got 429496730"),
        ],
        ids=[
            "alpha_true", "alpha_str", "alpha_nan", "alpha_zero", "alpha_above_1", "alpha_level_rounds_to_1",
            "b_float", "b_true", "b_str", "b_zero", "b_beyond_the_ceiling",
        ],
    )
    def test_bad_arguments_rejected(self, methods, alpha, b, message):
        data = self._datasets()[0]
        for method in methods:
            with pytest.raises(ValueError, match=message):
                batched((method,), data.rows, {}, alpha, b)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match=r"unknown test 'nope'; choose from \['levene'"):
            batched(("nope",), self._datasets()[0].rows, {}, 0.05)

    @pytest.mark.parametrize("sizes", [(4, 8), (5, 5, 5)])
    def test_critical_values_follow_the_batch(self, sizes):
        rng = stream(367)
        groups = [rng.normal(size=(3, n)) for n in sizes]
        k, n = len(sizes) - 1, sum(sizes)
        out = batched((LEVENE, SHOEMAKER), groups, {}, 0.05)
        assert out[LEVENE].df == (k, n - k - 1) and out[SHOEMAKER].df == (k,)
        np.testing.assert_array_equal(out[LEVENE].critical_value, np.full(3, f_quantile(0.95, k, n - k - 1)))
        np.testing.assert_array_equal(out[SHOEMAKER].critical_value, np.full(3, chi2_quantile(0.95, k)))

    def test_one_dataset_calls_reject_a_boolean_alpha(self):
        data = self._datasets()[0]
        cfg = BootstrapConfig.from_seed(3, b=20)
        for call in (lambda: levene(data, True), lambda: run_all(data, True, cfg), lambda: box_test(data, True, cfg)):
            with pytest.raises(ValueError, match="alpha must be a finite real number"):
                call()

    def test_bootstrap_config_rejects_a_pivot_variant_that_is_not_a_bool(self):
        with pytest.raises(ValueError, match="pivot_variant must be a bool, got 'no'"):
            BootstrapConfig.from_seed(3, b=50, pivot_variant="no")
        assert BootstrapConfig.from_seed(3, pivot_variant=np.bool_(True)).pivot_variant

    def test_bootstrap_config_rejects_an_rng_that_is_not_a_generator(self):
        with pytest.raises(ValueError, match="rng must be a numpy.random.Generator, got RandomState"):
            BootstrapConfig(rng=np.random.RandomState(1))
