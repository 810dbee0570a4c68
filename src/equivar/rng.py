"""Seedable Mersenne-Twister streams for reproducible simulation.

All randomness in the package flows through generators keyed by a master
seed plus an integer path, so any simulation cell, replication, or
bootstrap run can be re-created in isolation and results do not depend on
execution order.

``stream`` builds the generator for one path.  ``mt19937_keys`` computes
the MT19937 keys of many paths of one master seed in a few array passes,
bit for bit the keys ``stream`` seeds with: it takes numpy's
``SeedSequence`` pool for the master seed alone, then mixes in the path
words as that hash does (O'Neill's seed_seq_fe, frozen by NEP 19), whose
constants do not depend on the data.  ``pool_keys`` is its last step, the
expansion of finished ``SeedSequence`` pools into keys.

Building an MT19937 costs about 150 µs, so nothing on a hot path builds
one: each thread keeps a pool of ``KeyedGenerator``s (``generator_pool``),
built on first need, and ``rekey`` restarts one of them on a key in place,
through a view of its state made once with it, after which it draws
exactly what ``stream`` of that path draws.  The Monte Carlo harness
re-keys the pool to each replication's streams, and ``spawned`` re-keys it
to the children that ``Generator.spawn`` would build, for the one-dataset
``run_all``.
"""
from __future__ import annotations

import ctypes
import threading

import numpy as np

from .errors import count

__all__ = ["stream", "derive_seed"]

# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and its default pool of 4 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_KEY_WORDS = 624  # MT19937 state


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Create a reproducible MT19937 stream for ``(master_seed, *path)``.

    The same arguments always yield the same draw sequence; distinct paths
    yield streams that are independent for practical purposes.  Path
    components are folded into the generator state by numpy's
    ``SeedSequence`` hash mixer rather than by jump-ahead.  The seed and
    every path word must be nonnegative integers; booleans are not.
    """
    count("master_seed", master_seed, 0)
    for i, word in enumerate(path):
        count(f"path[{i}]", word, 0)
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.MT19937(seq))


def derive_seed(master_seed: int, index: int) -> int:
    """Derive a child seed deterministically, e.g. one per simulation cell; both arguments are nonnegative integers."""
    seq = np.random.SeedSequence(count("master_seed", master_seed, 0), spawn_key=(count("index", index, 0),))
    return int(seq.generate_state(1, np.uint64)[0])


# generate_state's word i is ((pool[i % pool size] ^ c_i) * c_{i+1}) ^ its top half, c_i = INIT_B * MULT_B**i
_STATE_CONSTS = [_INIT_B]
while len(_STATE_CONSTS) <= _KEY_WORDS:
    _STATE_CONSTS.append(_STATE_CONSTS[-1] * _MULT_B & _MASK32)
_STATE_CONSTS = np.array(_STATE_CONSTS, dtype=np.uint32)

# The hash steps below take words as uint32 arrays and hash constants as
# Python ints; both wrap modulo 2**32.


def _hashmix(value, const: int):
    """SeedSequence's hashmix of ``value`` under hash constant ``const``; returns it and the next constant."""
    after = const * _MULT_A & _MASK32
    value = (value ^ const) * after & _MASK32
    return value ^ (value >> 16), after


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _absorb(pool: list, words, const: int) -> int:
    """Mix each of ``words`` into every pool word, in place, as SeedSequence does past its pool size."""
    for word in words:
        for dst in range(_POOL_SIZE):
            mixed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], mixed)
    return const


def _seed_pool(master_seed: int) -> tuple[np.ndarray, int]:
    """The SeedSequence pool after absorbing ``master_seed`` alone, and the next hash constant.

    A nonempty spawn key pads the seed's 32-bit words with zeros to the
    pool size, which leaves numpy's pool of the seed alone as it is; the
    path words are mixed in after 4 hash-mix steps per padded seed word.
    """
    words = max(_POOL_SIZE, -(-master_seed.bit_length() // 32))
    return np.random.SeedSequence(master_seed).pool, _INIT_A * pow(_MULT_A, 4 * words, 2**32) & _MASK32


def pool_keys(pools) -> np.ndarray:
    """The MT19937 keys of finished ``SeedSequence`` pools: an (R, P) uint32 array gives (R, 624) keys.

    Row r is the key ``MT19937(seq)`` seeds with for a ``seq`` whose
    ``pool`` is ``pools[r]``: ``seq.generate_state(624)``, which reads the
    pool words cyclically (word i from ``pools[r, i % P]``, for any pool
    size P), with word 0 set to 0x80000000 as numpy's seeding sets it.
    """
    pools = np.asarray(pools, dtype=np.uint32)
    keys = (pools[:, np.arange(_KEY_WORDS) % pools.shape[1]] ^ _STATE_CONSTS[:-1]) * _STATE_CONSTS[1:]
    keys ^= keys >> 16
    keys[:, 0] = 0x80000000
    return keys


def mt19937_keys(master_seed: int, paths) -> np.ndarray:
    """The MT19937 keys that ``stream(master_seed, *path)`` seeds with, one row per path.

    ``paths`` is an (R, L) integer array, L >= 1, whose rows are paths of
    words in [0, 2**32).  Returns an (R, 624) uint32 array: word 0 is
    0x80000000, as numpy's seeding sets it, and words 1-623 equal
    ``SeedSequence(master_seed, spawn_key=path).generate_state(624)[1:]``.
    ``rekey`` sets a generator to the stream of a key.
    """
    paths = np.asarray(paths, dtype=np.uint32)
    seed_pool, const = _seed_pool(master_seed)
    pool = [np.full(len(paths), word, dtype=np.uint32) for word in seed_pool]
    _absorb(pool, paths.T, const)
    return pool_keys(np.stack(pool, axis=1))


class _MT19937State(ctypes.Structure):
    # numpy's mt19937_state (numpy/random/src/mt19937/mt19937.h): the key,
    # then the index of the next key word to output
    _fields_ = [("key", ctypes.c_uint32 * _KEY_WORDS), ("pos", ctypes.c_int)]


_layout_checked = False


class KeyedGenerator:
    """An MT19937 generator and a view of its ``mt19937_state``, made once, through which ``rekey`` writes keys.

    The view sits at the bit generator's documented ctypes address
    (``bit_generator.ctypes.state_address``), which stays put while the
    generator lives; this object keeps the generator alive.  A bit
    generator of any type but exactly ``np.random.MT19937`` raises a
    ``TypeError`` and is left as it was.
    """

    __slots__ = ("generator", "_state", "_key")

    def __init__(self, generator: np.random.Generator):
        bitgen = generator.bit_generator
        if type(bitgen) is not np.random.MT19937:
            raise TypeError(f"rekey needs an MT19937 bit generator, got {type(bitgen).__name__}")
        self.generator = generator
        self._state = _MT19937State.from_address(bitgen.ctypes.state_address)
        self._key = np.frombuffer(self._state.key, dtype=np.uint32)


def rekey(keyed: KeyedGenerator, key: np.ndarray) -> np.random.Generator:
    """Restart ``keyed``'s generator as the fresh stream whose key is ``key``, a row of ``pool_keys``; returns it.

    The key and pos 623, as numpy's seeding leaves them, are written
    through the kept state view: about 0.5 µs a call, against 1.4 µs when
    the view is built on each call and 76 µs through the ``state`` setter,
    which reads a 624-item list (timeit, 2-core Xeon).  The first call in
    a process reads the state back through ``bit_generator.state`` and
    raises a ``RuntimeError`` if it is not what was written, so a numpy
    with another layout fails at once.
    """
    global _layout_checked
    keyed._key[:] = key
    keyed._state.pos = _KEY_WORDS - 1
    if not _layout_checked:
        written = keyed.generator.bit_generator.state["state"]
        if written["pos"] != _KEY_WORDS - 1 or not np.array_equal(written["key"], key):
            raise RuntimeError("the MT19937 state does not have the layout rekey writes; numpy changed it")
        _layout_checked = True
    return keyed.generator


# Each thread's generators, built on first need and kept: building an
# MT19937 costs about 150 µs, and every use re-keys it first.
_local = threading.local()


def _generator() -> KeyedGenerator:
    # an MT19937 generator to be re-keyed before each use
    return KeyedGenerator(np.random.Generator(np.random.MT19937(0)))


def generator_pool(width: int) -> list[KeyedGenerator]:
    """The first ``width`` generators of this thread's pool, which grows to ``width`` if it is narrower.

    Callers re-key each generator before they draw from it, so no state
    carries over from an earlier use, and a pool is never shared between
    threads.  Its users on one thread take turns: the Monte Carlo harness
    for the span of one tally range, ``spawned`` for one ``run_all`` call.
    """
    pool = _local.__dict__.setdefault("pool", [])
    pool.extend(_generator() for _ in range(width - len(pool)))
    return pool[:width]


def spawned(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """The streams of the ``n`` children ``rng.spawn(n)`` gives, and its spawn counter advanced as that does.

    For an MT19937 seeded from a ``SeedSequence`` the children are spawned
    from ``rng.bit_generator.seed_seq``, keyed by ``pool_keys`` from their
    pools, and drawn by the first ``n`` generators of this thread's pool,
    re-keyed; they serve until the pool's next use on this thread.  Any
    other generator gets ``rng.spawn(n)``, which builds new generators.
    """
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.MT19937 or type(bitgen.seed_seq) is not np.random.SeedSequence:
        return rng.spawn(n)
    keys = pool_keys([child.pool for child in bitgen.seed_seq.spawn(n)])
    return [rekey(keyed, key) for keyed, key in zip(generator_pool(n), keys)]
