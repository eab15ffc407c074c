"""Seeded randomness and the four-class stochastic voter model.

Draw order contract (what makes traces replayable): a run owns a single
stream, ``PCG64(seed)``, however it is built (a block builds its streams
from one array pass of ``SeedSequence``'s hash over all its seeds; the bit
generator's state is the same). The roster is sampled first (one block of
uniforms for engagement, then one for informedness, voter-id order; the two
blocks may be drawn as one vector of 2N). Then, per round:
one draw for the item's polarity, one participation draw per voter in
voter-id order, and finally one vote draw per *eligible* participant in
voter-id order. The item and participation draws are taken as one vector
of N + 1; draws split over several calls, or written into a buffer, yield
the same numbers as one call. A round reads them from ``RowDraws``, one
call per draw vector, or ``ReadAhead``, which draws ahead and at the end
rewinds each stream by the draws its row did not use: each value a run
consumes, and where its stream ends, are the same from either.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .params import SimParams

if TYPE_CHECKING:
    from numpy.random.bit_generator import ISeedSequence


class RngStream:
    """A seeded uniform stream, ``PCG64(seed)``; identical seed gives an identical sequence.

    ``seed_seq``, when given, is the seed's ``seedseq.SeedWords`` (``block``
    builds them); without it ``PCG64`` hashes the seed itself.
    """

    def __init__(self, seed: int, seed_seq: ISeedSequence | None = None):
        self.seed = int(seed)
        self._gen = np.random.Generator(
            np.random.PCG64(self.seed if seed_seq is None else seed_seq))

    @classmethod
    def block(cls, seeds: Sequence[int] | np.ndarray) -> list[RngStream]:
        """One stream per seed, in order, each ``PCG64(seed)``, from one hash
        of all the seeds (``seedseq.seed_words``). The hash has a fixed cost of
        a few ``PCG64(seed)`` calls, after which each stream costs a fraction
        of one. ``seedseq`` loads ``numpy.random``, as a stream does, so it is
        imported here: importing tcrlab loads neither."""
        from .seedseq import SeedWords, seed_words

        seeds = np.asarray(seeds, dtype=np.uint64)
        return [cls(seed, SeedWords(words))
                for seed, words in zip(seeds.tolist(), seed_words(seeds))]

    def uniform(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """n draws in [0, 1); written into ``out``, which must hold exactly n, when given."""
        return self._gen.random(n) if out is None else self._gen.random(out=out)

    def rewind(self, k: int) -> None:
        """Step the stream back k draws: each draw takes one 64-bit output of PCG64."""
        self._gen.bit_generator.advance(-k)


class RowDraws:
    """The streams of a block's R rows, each called once per draw vector of a round."""

    def __init__(self, rngs: list[RngStream], n: int):
        self._rngs = rngs
        self._items = np.empty((len(rngs), n + 1))
        self._votes = np.empty(len(rngs) * n)

    def items(self) -> np.ndarray:
        """(R, N + 1): each row's item and participation draws for the next round."""
        for rng, row in zip(self._rngs, self._items):
            rng.uniform(len(row), row)
        return self._items

    def votes(self, n_eligible: np.ndarray) -> np.ndarray:
        """Each row's next ``n_eligible[r]`` draws, row after row."""
        start = 0
        for rng, stop in zip(self._rngs, n_eligible.cumsum().tolist()):
            rng.uniform(stop - start, self._votes[start:stop])
            start = stop
        return self._votes[:start]

    def close(self) -> None:
        """Nothing was drawn ahead, so nothing is rewound."""


class ReadAhead:
    """The streams of a block's R rows, drawn ahead into one (R, W) buffer.

    A round takes at most 2N + 1 draws from a row: the item, N
    participation draws and at most N votes. Every ``depth`` rounds (fewer
    when the run has fewer left) a refill moves each row's unread draws to
    the front of its buffer row and tops it up to that many rounds of the
    worst case, in one call per row; each round then reads every row's
    draws at once, at per-row offsets. ``close`` rewinds each stream by its
    unread draws, so a row reads the values the draw-order contract gives
    and its stream ends where one call per draw vector leaves it.
    """

    def __init__(self, rngs: list[RngStream], n: int, rounds: int, depth: int):
        self._rngs = rngs
        self._n = n
        self._rounds = rounds  # rounds of the run not yet drawn ahead
        self._depth = depth
        self._left = 0  # rounds before the next refill
        rows = len(rngs)
        self._buf = np.empty((rows, depth * (2 * n + 1)))
        self._windows = sliding_window_view(self._buf, n + 1, axis=1)
        self._rows = np.arange(rows)
        self._row_starts = self._rows * self._buf.shape[1]
        self._positions = np.arange(rows * n)
        self._next = np.zeros(rows, dtype=np.int64)  # each row's first unread draw
        self._end = np.zeros(rows, dtype=np.int64)   # and the end of its drawn ones

    def items(self) -> np.ndarray:
        """(R, N + 1): each row's item and participation draws for the next round."""
        if not self._left:
            self._refill()
        self._left -= 1
        draws = self._windows[self._rows, self._next]
        self._next += self._n + 1
        return draws

    def votes(self, n_eligible: np.ndarray) -> np.ndarray:
        """Each row's next ``n_eligible[r]`` draws, row after row."""
        # The k-th draw returned, counted over all rows, is row r's draw at
        # flat position k + r * W + next[r] - (the draws of the rows before r).
        at = np.repeat(self._row_starts + self._next - (n_eligible.cumsum() - n_eligible),
                       n_eligible)
        at += self._positions[:at.size]
        self._next += n_eligible
        return self._buf.ravel()[at]

    def close(self) -> None:
        """Rewind each stream by the draws its row did not read."""
        for rng, unread in zip(self._rngs, (self._end - self._next).tolist()):
            rng.rewind(unread)

    def _refill(self) -> None:
        self._left = min(self._depth, self._rounds)
        self._rounds -= self._left
        want = self._left * (2 * self._n + 1)
        ends = []
        for rng, buf, start, end in zip(self._rngs, self._buf, self._next.tolist(),
                                        self._end.tolist()):
            tail = end - start
            buf[:tail] = buf[start:end]
            end = max(tail, want)
            rng.uniform(end - tail, buf[tail:end])
            ends.append(end)
        self._end[:] = ends
        self._next[:] = 0


# The four voter classes, in the order of every per-class column: informed
# or uninformed (I/U), engaged or disengaged (E/D).
CLASSES = ("IE", "ID", "UE", "UD")


def sample_rosters(params: Sequence[SimParams], rngs: Sequence[RngStream]) -> np.ndarray:
    """Sample each row's (is_engaged, is_informed) per voter from two
    independent Bernoullis, row r with ``params[r]`` from stream ``rngs[r]``.

    Returns the (R, N, 2) boolean rosters ``protocol.init_registry`` takes,
    in voter-id order. A row's 2N draws, engagement then informedness, are
    taken in one call into one buffer of the block, and the whole block is
    compared at once with each row's two probabilities; the rosters are a
    view of that (R, 2, N) comparison. Classes are fixed for the whole run.
    The params share ``num_voters``.
    """
    n = params[0].num_voters
    draws = np.empty((len(rngs), 2 * n))
    for rng, row in zip(rngs, draws):
        rng.uniform(2 * n, row)
    cutoffs = np.array([(p.p_engaged, p.p_informed) for p in params])[:, :, None]
    return (draws.reshape(len(rngs), 2, n) < cutoffs).transpose(0, 2, 1)
