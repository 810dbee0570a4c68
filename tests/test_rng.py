import ctypes
import threading

import numpy as np
import pytest

import equivar.rng
from equivar import derive_seed, stream
from equivar.rng import Rekeyed, mt19937_keys, pool_keys

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


@pytest.mark.parametrize("call, message", [
    (lambda: stream(True), "master_seed must be an integer of at least 0, got True"),
    (lambda: stream(1, True), r"path\[0\] must be an integer of at least 0, got True"),
    (lambda: stream(1, 0, 2.0), r"path\[1\] must be an integer of at least 0, got 2.0"),
    (lambda: stream(1.5), "master_seed must be an integer of at least 0, got 1.5"),
    (lambda: stream(-1), "master_seed must be an integer of at least 0, got -1"),
    (lambda: stream(1, -3), r"path\[0\] must be an integer of at least 0, got -3"),
    (lambda: derive_seed(True, 0), "master_seed must be an integer of at least 0, got True"),
    (lambda: derive_seed(1.0, 0), "master_seed must be an integer of at least 0, got 1.0"),
    (lambda: derive_seed(1, -2), "index must be an integer of at least 0, got -2"),
    (lambda: derive_seed(1, np.bool_(False)), "index must be an integer of at least 0, got "),
], ids=["seed_true", "path_true", "path_float", "seed_float", "seed_negative", "path_negative",
        "derive_true", "derive_float", "derive_index_negative", "derive_index_numpy_bool"])
def test_seeds_and_path_words_must_be_nonnegative_integers(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_numpy_integers_seed_as_python_ints():
    np.testing.assert_array_equal(stream(np.uint32(7), np.int64(3)).random(10), GOLDEN_7_3)
    assert derive_seed(np.int64(99), np.uint8(4)) == derive_seed(99, 4)


def _rekeyed(key):
    return Rekeyed(key[None], 1)[0]


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
        view = Rekeyed(mt19937_keys(7, [(3,)]), 1)
        view[0].standard_normal(1001)
        np.testing.assert_array_equal(view[0].random(10), GOLDEN_7_3)


class TestRekey:
    """A ``Rekeyed`` fetch writes the key into the bit generator's memory, as the state numpy's seeding leaves."""

    def test_state_reads_back_as_the_key_at_pos_623(self):
        key = mt19937_keys(11, [(4, 2)])[0]
        view = Rekeyed(key[None], 1)
        view[0].random(3)
        state = view[0].bit_generator.state
        assert state["bit_generator"] == "MT19937"
        assert list(state["state"]) == ["key", "pos"]
        np.testing.assert_array_equal(state["state"]["key"], key)
        assert state["state"]["pos"] == 623

    @pytest.mark.parametrize(
        "draw",
        [
            lambda g: g.integers(0, 13, size=(20, 5)),
            lambda g: g.uniform(-0.5, 0.5, 30),
            lambda g: g.standard_normal(40),
            lambda g: g.laplace(0.0, 2.0, 25),
            lambda g: g.standard_gamma(np.array([0.5, 2.0, 7.5]), size=(9, 3)),
        ],
        ids=["integers", "uniform", "standard_normal", "laplace", "standard_gamma"],
    )
    def test_draws_equal_stream_after_earlier_draws(self, draw):
        view = Rekeyed(mt19937_keys(13, [(r, 1) for r in range(3)]), 1)
        rng = view[0]
        for r in range(3):
            draw(rng)  # a used generator, left mid-key
            assert view[r] is rng
            ref = stream(13, r, 1)
            for _ in range(2):
                np.testing.assert_array_equal(draw(rng), draw(ref))

    def test_a_layout_that_does_not_read_back_raises(self, monkeypatch):
        class PosFirst(ctypes.Structure):  # the same size, the fields swapped
            _fields_ = [("pos", ctypes.c_int), ("key", ctypes.c_uint32 * 624)]

        monkeypatch.setattr(equivar.rng, "_MT19937State", PosFirst)
        monkeypatch.setattr(equivar.rng, "_layout_checked", False)
        monkeypatch.setattr(equivar.rng, "_local", threading.local())  # a pool built with the swapped fields
        with pytest.raises(RuntimeError, match="layout"):
            Rekeyed(mt19937_keys(1, [(0,)]), 1)[0]

    def test_row_r_is_generator_r_modulo_the_width(self):
        view = Rekeyed(mt19937_keys(3, [(r,) for r in range(5)]), 2)
        assert [id(view[r]) for r in range(5)] == [id(view[r % 2]) for r in range(5)]
        assert view[0] is not view[1]


class TestPoolKeys:
    """``pool_keys`` expands a finished ``SeedSequence`` pool into the key ``MT19937`` seeds with."""

    ENTROPY = [0, 2**32, 2**128 + 5, [7, 2**32 - 1, 0, 12]]

    @pytest.mark.parametrize("pool_size", [4, 8])
    @pytest.mark.parametrize("entropy", ENTROPY, ids=["0", "2**32", "2**128+5", "words"])
    def test_spawned_children_keys_equal_mt19937s(self, entropy, pool_size):
        # spawn keys of depth 1, 2 and 3: children, grandchildren and great-grandchildren
        level = [np.random.SeedSequence(entropy, pool_size=pool_size)]
        for depth in (1, 2, 3):
            level = [child for parent in level[:2] for child in parent.spawn(3)]
            assert all(len(child.spawn_key) == depth for child in level)
            keys = pool_keys([child.pool for child in level])
            assert keys.shape == (len(level), 624) and keys.dtype == np.uint32
            for child, key in zip(level, keys):
                np.testing.assert_array_equal(key, np.random.MT19937(child).state["state"]["key"])

    def test_mt19937_keys_end_with_pool_keys(self):
        paths = [(r, 1) for r in range(3)]
        pools = [np.random.SeedSequence(99, spawn_key=path).pool for path in paths]
        np.testing.assert_array_equal(mt19937_keys(99, paths), pool_keys(pools))


class TestSpawned:
    """``spawned(rng, n)`` draws what ``rng.spawn(n)`` draws, from this thread's pool, and spawns as it does."""

    @staticmethod
    def _draws(rngs):
        return [np.concatenate([g.random(5), g.integers(0, 100, 7), g.standard_normal(3)]) for g in rngs]

    @pytest.mark.parametrize("seed", [0, 5, 2**64 + 3])
    def test_children_and_counter_match_spawn(self, seed):
        ours, ref = stream(seed), stream(seed)
        for _ in range(2):  # children 0-1, then 2-3
            np.testing.assert_array_equal(self._draws(equivar.rng.spawned(ours, 2)), self._draws(ref.spawn(2)))
        assert ours.bit_generator.seed_seq.n_children_spawned == 4
        np.testing.assert_array_equal(ours.random(4), ref.random(4))  # the parent stream is untouched

    def test_builds_no_generator_once_the_pool_is_wide_enough(self, monkeypatch):
        view = Rekeyed(mt19937_keys(1, [(0,), (1,)]), 2)
        monkeypatch.setattr(equivar.rng, "_generator", lambda: pytest.fail("built a generator"))
        rngs = equivar.rng.spawned(stream(1), 2)
        assert [id(g) for g in rngs] == [id(view[j]) for j in range(2)]

    @pytest.mark.parametrize(
        "rng",
        [
            lambda: np.random.Generator(np.random.PCG64(4)),
            lambda: np.random.Generator(np.random.MT19937(np.random.SeedSequence(4, pool_size=8))),
        ],
        ids=["pcg64", "pool_size_8"],
    )
    def test_matches_spawn_for_other_bit_generators_and_pool_sizes(self, rng):
        np.testing.assert_array_equal(self._draws(equivar.rng.spawned(rng(), 2)), self._draws(rng().spawn(2)))
