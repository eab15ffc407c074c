"""numpy's ``SeedSequence`` hash as array operations over many seeds at once.

``PCG64(seed)`` hashes its seed with ``SeedSequence`` (M. E. O'Neill's
seed_seq hash) into the four 64-bit words it seeds itself with. That hash
is a fixed series of 32-bit multiply and xor-shift steps, so ``seed_words``
runs it over a whole block's seeds in one pass, and ``SeedWords`` hands one
seed's words to ``PCG64``: the stream is ``PCG64(seed)``, bit for bit.
Importing this module loads ``numpy.random``.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# The hash runs over a pool of 4 words of 32 bits. A hash step xors a word
# with the hash constant, steps the constant (times its multiplier),
# multiplies the word by it and xors in the word shifted down 16 bits; mixing
# a hashed word y into a word x gives MIX_L * x - MIX_R * y, then the same
# xor-shift.
_MASK32 = 0xFFFFFFFF
_POOL_INIT, _POOL_MULT, _OUT_INIT, _OUT_MULT = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _constants(init: int, mult: int, steps: int) -> list[int]:
    """The hash constant before each of ``steps`` steps, and after the last."""
    values = [init]
    for _ in range(steps):
        values.append(values[-1] * mult & _MASK32)
    return values


_POOL = _constants(_POOL_INIT, _POOL_MULT, 16)
_OUT = _constants(_OUT_INIT, _OUT_MULT, 8)


def _steps(constants: list[int], ks) -> tuple[np.ndarray, np.ndarray]:
    """The (before, after) ``constants`` of hash steps ``ks``, a step a row,
    as two uint32 columns; a row with no step (None) gets zeros."""
    pairs = [(0, 0) if k is None else (constants[k], constants[k + 1]) for k in ks]
    return tuple(np.array(column, np.uint32)[:, None] for column in zip(*pairs))


# Steps 0-3 hash the entropy into the pool's 4 words. Steps 4-15 take each
# source word in turn and mix it, hashed by the next step, into each other
# word in order: one (4, 1) column per source, its own row unused.
_FILL = _steps(_POOL, range(4))
_MIX = [_steps(_POOL, [None if d == src else 4 + 3 * src + d - (d > src) for d in range(4)])
        for src in range(4)]
# 8 output steps, cycling through the pool twice, make 4 words of 64 bits.
_OUTPUT = _steps(_OUT, range(8))


def _hash(words: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """One hash step of each row of uint32 ``words``, with its row's constants."""
    words = words ^ before
    words *= after
    words ^= words >> _SHIFT
    return words


def seed_words(seeds: np.ndarray) -> np.ndarray:
    """(R, 4) uint64: ``SeedSequence(seed).generate_state(4, np.uint64)`` of
    each of the (R,) uint64 seeds, the words ``PCG64(seed)`` seeds itself with.

    This is numpy's ``SeedSequence`` run as array operations over every seed
    at once, in uint32 arithmetic, which wraps as the hash's own does. A
    seed is entropy of one 32-bit word below 2^32 and two above, low word
    first; the pool hashes the words the entropy lacks as 0, so a one-word
    seed fills it as a two-word seed with a zero high word does.
    """
    pool = np.zeros((4, seeds.size), np.uint32)
    pool[0] = seeds & np.uint64(_MASK32)
    pool[1] = seeds >> np.uint64(32)
    pool = _hash(pool, *_FILL)
    for src, (before, after) in enumerate(_MIX):
        source = pool[src].copy()
        pool *= _MIX_L
        pool -= _hash(source, before, after) * _MIX_R
        pool ^= pool >> _SHIFT
        pool[src] = source
    words = _hash(np.concatenate((pool, pool)), *_OUTPUT).astype(np.uint64)
    return (words[0::2] | words[1::2] << np.uint64(32)).T.copy()


class SeedWords(ISeedSequence):
    """A seed sequence whose state is one seed's precomputed ``seed_words``
    row; it serves ``PCG64``, which asks for 4 words of 64 bits."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self._words
