"""Seedable Mersenne-Twister streams for reproducible simulation.

All randomness in the package flows through generators keyed by a master
seed plus an integer path, so any simulation cell, replication, or
bootstrap run can be re-created in isolation and results do not depend on
execution order.

``stream`` builds the generator for one path.  ``mt19937_keys`` computes
the MT19937 keys of many paths of one master seed in a few array passes,
bit for bit the keys ``stream`` seeds with: numpy's ``SeedSequence`` hash
(O'Neill's seed_seq_fe, frozen by NEP 19) uses constants that do not
depend on the data.  A generator whose bit generator's ``state`` is set to
such a key (``rekey``) draws exactly what ``stream`` of that path draws;
the Monte Carlo harness re-keys a few generators this way instead of
building three per replication.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["stream", "derive_seed"]

# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and its pool of 4 words
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
    ``SeedSequence`` hash mixer rather than by jump-ahead.
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.MT19937(seq))


def derive_seed(master_seed: int, index: int) -> int:
    """Derive a child seed deterministically, e.g. one per simulation cell."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return int(seq.generate_state(1, np.uint64)[0])


# generate_state's word i is ((pool[i % 4] ^ c_i) * c_{i+1}) ^ its top half, c_i = INIT_B * MULT_B**i
_STATE_CONSTS = [_INIT_B]
while len(_STATE_CONSTS) <= _KEY_WORDS:
    _STATE_CONSTS.append(_STATE_CONSTS[-1] * _MULT_B & _MASK32)
_STATE_CONSTS = np.array(_STATE_CONSTS, dtype=np.uint32)
_STATE_POOL_INDEX = np.arange(_KEY_WORDS) % _POOL_SIZE

# The hash steps below take a word as a Python int or words as a uint32
# array; both wrap modulo 2**32.


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


@lru_cache(maxsize=64)
def _seed_pool(master_seed: int) -> tuple[tuple[int, ...], int]:
    """The SeedSequence pool after absorbing ``master_seed`` alone, and the next hash constant.

    A nonempty spawn key pads the seed's 32-bit words with zeros to the
    pool size, so the first 16 hash-mix steps, and those of any further
    seed words, depend on the seed alone; the path words come after them.
    """
    words = [master_seed >> shift & _MASK32 for shift in range(0, max(master_seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    pool, const = [], _INIT_A
    for word in words[:_POOL_SIZE]:
        mixed, const = _hashmix(word, const)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], mixed)
    const = _absorb(pool, words[_POOL_SIZE:], const)
    return tuple(pool), const


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
    keys = (np.stack(pool, axis=1)[:, _STATE_POOL_INDEX] ^ _STATE_CONSTS[:-1]) * _STATE_CONSTS[1:]
    keys ^= keys >> 16
    keys[:, 0] = 0x80000000
    return keys


def rekey(rng: np.random.Generator, key: np.ndarray) -> None:
    """Restart the MT19937 generator ``rng`` as the fresh stream whose key is ``key``, a row of ``mt19937_keys``."""
    # pos 623 as numpy's seeding leaves it; a list, because the state setter
    # reads the key word by word and indexing a list is the fast way
    rng.bit_generator.state = {"bit_generator": "MT19937", "state": {"key": key.tolist(), "pos": 623}}
