import numpy as np
import pytest

from equivar import derive_seed, stream
from equivar.rng import mt19937_keys, rekey

# First ten uniforms of stream(7, 3), recorded from a reference run.  These
# pin the generator choice and the seed-mixing scheme across machines and
# library versions; regenerate if either ever changes deliberately.
GOLDEN_7_3 = [
    0.9471676212214044,
    0.584654367579537,
    0.029411029527292576,
    0.8572176389930813,
    0.9668366331003788,
    0.6784975857036659,
    0.3313838875094839,
    0.7007361094527893,
    0.7193339508681179,
    0.7740751464688277,
]


def test_same_seed_same_sequence():
    a = stream(42, 0).random(100)
    b = stream(42, 0).random(100)
    np.testing.assert_array_equal(a, b)


def test_distinct_indices_differ():
    a = stream(42, 0).random(1)[0]
    b = stream(42, 1).random(1)[0]
    assert a != b


def test_golden_sequence():
    np.testing.assert_array_equal(stream(7, 3).random(10), GOLDEN_7_3)


def test_longer_paths_are_distinct():
    firsts = {stream(5, *path).random(1)[0] for path in [(0,), (1,), (0, 0), (0, 1), (1, 0)]}
    assert len(firsts) == 5


def test_derive_seed_deterministic_and_distinct():
    seeds = [derive_seed(99, i) for i in range(10)]
    assert seeds == [derive_seed(99, i) for i in range(10)]
    assert len(set(seeds)) == 10


def _rekeyed(key):
    rng = np.random.Generator(np.random.MT19937(0))
    rekey(rng, key)
    return rng


class TestMT19937Keys:
    # seeds of 1, 2, 3, 5 and 7 words; r at the 32-bit boundaries
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**130, 2**200 + 5])
    def test_keys_match_seed_sequence(self, seed):
        paths = [(r, slot) for r in (0, 1, 2**31, 2**32 - 1) for slot in range(3)]
        keys = mt19937_keys(seed, paths)
        assert keys.shape == (len(paths), 624) and keys.dtype == np.uint32
        assert (keys[:, 0] == 0x80000000).all()
        for path, key in zip(paths, keys):
            expected = np.random.SeedSequence(seed, spawn_key=path).generate_state(624, np.uint32)[1:]
            np.testing.assert_array_equal(key[1:], expected)

    @pytest.mark.parametrize("path", [(3,), (2, 0, 7)])
    def test_other_path_lengths(self, path):
        key = mt19937_keys(2**70 + 1, [path])[0]
        np.testing.assert_array_equal(key, np.random.MT19937(np.random.SeedSequence(2**70 + 1, spawn_key=path))
                                      .state["state"]["key"])

    def test_rekeyed_draws_equal_stream(self):
        for seed, path in [(7, (3, 1)), (2**64 + 9, (2**32 - 1, 2)), (0, (0, 0))]:
            ours, ref = _rekeyed(mt19937_keys(seed, [path])[0]), stream(seed, *path)
            np.testing.assert_array_equal(ours.standard_normal(50), ref.standard_normal(50))
            np.testing.assert_array_equal(ours.integers(0, 17, size=(30, 4)), ref.integers(0, 17, size=(30, 4)))
            np.testing.assert_array_equal(ours.uniform(-0.5, 0.5, 40), ref.uniform(-0.5, 0.5, 40))

    def test_rekeying_after_use_restarts_the_stream(self):
        key = mt19937_keys(7, [(3,)])[0]
        rng = _rekeyed(key)
        rng.standard_normal(1001)
        rekey(rng, key)
        np.testing.assert_array_equal(rng.random(10), GOLDEN_7_3)
