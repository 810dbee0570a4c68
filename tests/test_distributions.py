import numpy as np
import pytest

from equivar import Distribution, sample_standardized, stream

N = 1_000_000


def _kurtosis(x):
    d = x - x.mean()
    return (d**4).mean() / (d**2).mean() ** 2


def test_kurtosis_table():
    assert Distribution.UNIFORM.kurtosis == 1.8
    assert Distribution.NORMAL.kurtosis == 3.0
    assert Distribution.EXTREME_VALUE.kurtosis == 5.4
    assert Distribution.LAPLACE.kurtosis == 6.0
    assert Distribution.STUDENT_T5.kurtosis == 9.0
    assert Distribution.EXPONENTIAL.kurtosis == 9.0


@pytest.mark.parametrize("kind", list(Distribution))
def test_mean_zero_variance_one(kind):
    x = sample_standardized(kind, N, stream(2024, 0))
    assert abs(x.mean()) < 0.01
    assert abs(x.var() - 1.0) < 0.02


def test_normal_variance_tight():
    x = sample_standardized(Distribution.NORMAL, N, stream(7, 1))
    assert abs(x.var() - 1.0) < 0.01


def test_exponential_kurtosis_near_nine():
    x = sample_standardized(Distribution.EXPONENTIAL, N, stream(7, 2))
    assert abs(_kurtosis(x) - 9.0) < 0.5


def test_uniform_kurtosis_near_1_8():
    x = sample_standardized(Distribution.UNIFORM, N, stream(7, 3))
    assert abs(_kurtosis(x) - 1.8) < 0.05


@pytest.mark.parametrize(
    "kind,target,tol",
    [
        (Distribution.NORMAL, 3.0, 0.5),
        (Distribution.EXTREME_VALUE, 5.4, 0.5),
        (Distribution.LAPLACE, 6.0, 0.5),
    ],
)
def test_moderate_tail_kurtosis(kind, target, tol):
    x = sample_standardized(kind, N, stream(7, 4))
    assert abs(_kurtosis(x) - target) < tol


def test_t5_kurtosis_heavy_tailed():
    # The kurtosis estimator of t5 has infinite variance (no 8th moment),
    # so only a loose band is meaningful even at a million draws.
    x = sample_standardized(Distribution.STUDENT_T5, N, stream(7, 5))
    assert 5.0 < _kurtosis(x) < 60.0


def test_reproducible_bitwise():
    for kind in Distribution:
        a = sample_standardized(kind, 1000, stream(31, 8))
        b = sample_standardized(kind, 1000, stream(31, 8))
        np.testing.assert_array_equal(a, b)


def test_empty_sample_rejected():
    with pytest.raises(ValueError, match="n must be an integer of at least 1, got 0"):
        sample_standardized(Distribution.NORMAL, 0, stream(0, 0))


@pytest.mark.parametrize("n", [2.5, 5.0, True, "5"])
def test_non_integer_size_rejected(n):
    with pytest.raises(ValueError, match=f"n must be an integer of at least 1, got {n!r}"):
        sample_standardized(Distribution.NORMAL, n, stream(0, 0))


def test_string_kind_accepted():
    x = sample_standardized("laplace", 5, stream(1, 1))
    assert x.shape == (5,)
