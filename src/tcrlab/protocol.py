"""The registry state machine: staking, tally, settlement, inflation.

One round processes one candidate item: draw the item, compute the required
stake, draw participation intents and filter out those that cannot cover
the stake, draw the eligible voters' votes, tally them, move the stake pool
to the winning side, inflate the balances of everyone who voted, and record
the round's stake, totals, item, decision and vote counts in the state's
history, once, in the round's row of the run's record.

A state holds a block of R replications advanced in lockstep: balances are
an (R, N) array, one row per replication, and a round writes only its
eligible voters' entries. A block may span cells: its rows share a
``block_key`` (num_voters, num_items and the stake policy kind), and every
other parameter is a per-row column. Each replication keeps its own stream,
drawn in the order ``voters.py`` fixes: the round reads ``state.draws``,
one of the two draw sources there. Every per-replication sum runs over
the same elements in the same order as a sum over that replication alone,
and each per-row column feeds the same operation a scalar parameter would,
so a replication's output does not depend on the block it runs in.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .params import AnalysisSigmaStake, ConfigurationError, SimParams
from .voters import CLASSES, RngStream, RowDraws

REL_TOL = 1e-9
_UE = CLASSES.index("UE")
# Entries a class sum gathers at once; a longer stack of rounds goes in chunks.
GATHER_SLOTS = 2**13


class InvariantViolation(RuntimeError):
    """A protocol invariant (conservation, non-negativity, ...) was broken.

    ``row`` is the failing replication's row in its block, when known.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class Round(NamedTuple):
    """What one round did in every replication of a block: (R,) and (R, N) arrays.

    ``decision_add``, ``n_eligible`` and ``n_add`` are views of the round's
    row in ``TcrState.history``.
    """

    round_index: int
    item_good: np.ndarray
    stake: np.ndarray
    intends: np.ndarray
    eligible: np.ndarray
    add: np.ndarray
    decision_add: np.ndarray
    payout: np.ndarray
    n_eligible: np.ndarray
    n_add: np.ndarray


class History:
    """A block's run as ``run_round`` records it: row k of each column is round k.

    The (rounds, R) columns hold each round's stake, token totals before and
    after settlement, participant tokens after settlement and supply after
    inflation; whether the item was good and whether it was added; and the
    counts of intending, eligible and add voters. ``tokens`` (rounds, R, 4)
    holds each class's tokens after a round once it is checked. Only the (R, N)
    balances after inflation are kept in a ring of ``depth`` slots: round k
    is in slot k - ``checked`` until ``check_rounds`` checks the whole ring
    at once and the ring starts over. A slot's balances lead its row of
    ``padded``, whose zero tail (to a multiple of 8 entries) the class-token
    sums read.
    """

    def __init__(self, depth: int, rounds: int, rows: int, n: int):
        self.depth = depth
        self.padded = np.zeros((depth, rows * n // 8 * 8 + 8))
        self.balances = self.padded[:, :rows * n].reshape(depth, rows, n)
        (self.stake, self.pre_settle, self.post_settle, self.participant_tokens,
         self.total) = np.empty((5, rounds, rows))
        self.item_good, self.decision_add = np.empty((2, rounds, rows), dtype=bool)
        self.n_intends, self.n_eligible, self.n_add = np.empty((3, rounds, rows), dtype=np.int64)
        self.tokens = np.empty((rounds, rows, len(CLASSES)))
        self.checked = 0


class TcrState:
    """Registry state of a block of R replications between rounds.

    Balances, engagement and informedness are (R, N) arrays indexed by
    (replication row, voter id). Row r runs with ``params[r]``; the rows of
    a block share a ``block_key``, and everything else a cell may vary is
    held here once, as an (R,) column built from each row's params. Classes
    never change during a run, so their sizes, an (R, 4) array in
    ``CLASSES`` order, and the gathers that sum each class's tokens over
    the history's ring are fixed here; the sigma stake's base sums read the
    0.0 that follows the balances in ``_flat``.

    Each round is recorded in ``history``, which has a row for each of the
    run's ``num_items`` rounds; its checks run, over every row of every
    round in one pass, and its class tokens are summed, once per ring of
    balances: when the ring is full or ``check_rounds`` is called. The ring
    holds one round unless a caller replaces the history with a deeper one,
    so by default every round is checked as it ends.

    Rounds read ``draws``, a ``voters.RowDraws`` or ``ReadAhead`` over the
    rows' streams that a caller sets for a whole run and closes at its end
    (``harness._advance`` does); while it is None, a round makes its own.
    """

    def __init__(self, params: Sequence[SimParams], is_engaged: np.ndarray,
                 is_informed: np.ndarray):
        if len(set(map(block_key, params))) != 1:
            raise ConfigurationError(
                "the rows of a block must share num_voters, num_items and the stake policy kind"
            )
        self.params = tuple(params)
        self.num_voters, self.num_items, policy = block_key(params[0])
        self.sigma_stake = policy is AnalysisSigmaStake
        # Derived values such as 1 + delta are computed in Python, row by row,
        # so each column entry is the float a scalar parameter would give.
        (initial, self.growth, self.inflation_rate, self.stake_factor, item_good, vote_engaged,
         vote_disengaged, correct_informed, correct_uninformed) = np.array([
            (p.initial_tokens, 1.0 + p.inflation_rate, p.inflation_rate,
             p.stake_policy.sigma if self.sigma_stake else p.initial_stake / p.initial_tokens,
             p.p_item_good, p.p_vote_engaged, p.p_vote_disengaged,
             p.p_correct_informed, p.p_correct_uninformed)
            for p in params
        ], dtype=np.float64).T
        self.clamp_value = np.array([p.clamp_value for p in params])
        rows, n = is_engaged.shape
        self._flat = np.zeros(rows * n + 1)
        self.balances = self._flat[:-1].reshape(rows, n)
        self.balances[:] = initial[:, None]
        self.round_index = 0
        self.history = History(1, self.num_items, rows, n)
        # (R, 4, N) in CLASSES order: IE, ID, UE, UD.
        masks = np.stack([is_informed & is_engaged, is_informed & ~is_engaged,
                          ~is_informed & is_engaged, ~is_informed & ~is_engaged], axis=1)
        self._class_masks = masks
        self.class_sizes = masks.sum(axis=2)
        if self.sigma_stake:  # its base: each row's UE voters, or all if it has none
            ue = masks[:, _UE]
            self._stake_base = _SegmentSums((ue | ~ue.any(axis=1, keepdims=True))[:, None])
        # The first draw of a round decides the item, the next N who intends to vote.
        self.draw_cutoffs = np.concatenate(
            (item_good[:, None],
             np.where(is_engaged, vote_engaged[:, None], vote_disengaged[:, None])), axis=1)
        self.p_correct = np.where(is_informed, correct_informed[:, None],
                                  correct_uninformed[:, None])
        self.draws = None
        self._vote_grid = np.zeros((rows, n))

    def class_tokens(self, rounds: int) -> np.ndarray:
        """(rounds, R, 4) tokens held by each class, in ``CLASSES`` order,
        after each of the first ``rounds`` ring slots of ``history``; each
        entry has the bits of ``balances[r][class_mask].sum()`` of its slot."""
        return self._classes.sums(self.history.padded, rounds).reshape(
            rounds, *self.class_sizes.shape)

    @cached_property
    def _classes(self):
        return _SegmentSums(self._class_masks, *self.history.padded.shape)


def block_key(params: SimParams) -> tuple:
    """What fixes a block's shape and round path: cells with equal keys can share a block."""
    return params.num_voters, params.num_items, type(params.stake_policy)


class _SegmentSums:
    """Per-(replication, class) sums of the balances an (R, C, N) mask picks.

    One gather lays out R·C segments in (replication, class) order, each a
    0.0 (read at flat index R·N) and then the class's balances in voter-id
    order, and one ``np.add.reduceat`` sums them. numpy's ``add.reduce`` of
    k values is 0.0 plus their pairwise sum, and ``reduceat`` of a segment
    its first value plus the pairwise sum of the rest, so each sum has the
    bits of ``balances[r][mask[r, c]].sum()``; an empty class sums to 0.0.
    The gather's index comes from the flat positions of the mask with each
    segment's leading zero prepended, split into (replication, position).
    """

    def __init__(self, masks: np.ndarray, rounds: int = 1, stride: int = 0):
        r, c, n = masks.shape
        self.sizes = masks.sum(axis=2).reshape(-1)
        # The (replication, position) of each entry of the (R, C, N + 1)
        # mask, position 0 the leading zero, in row-major order.
        picked = np.flatnonzero(np.concatenate((np.ones((r, c, 1), bool), masks), axis=2))
        rows, cols = picked // (c * (n + 1)), picked % (n + 1)
        self.chunk = max(1, min(rounds, GATHER_SLOTS // rows.size))
        offsets = np.arange(self.chunk)[:, None]
        self._stride = stride
        self._index = (np.where(cols > 0, rows * n + cols - 1, r * n)
                       + offsets * stride).reshape(-1)
        self._starts = (np.flatnonzero(cols == 0) + offsets * rows.size).reshape(-1)
        self._gathered = np.empty(self._index.size)

    def sums(self, source: np.ndarray, rounds: int = 1) -> np.ndarray:
        """(rounds, R·C) sums of the first ``rounds`` rows of ``source``, each
        R·N balances and a zero, ``stride`` entries apart, a chunk at a time."""
        flat = source.reshape(-1)
        size, count = self._index.size // self.chunk, self._starts.size // self.chunk
        out = np.empty((rounds, count))
        for first in range(0, rounds, self.chunk):
            k = min(self.chunk, rounds - first)
            gathered = np.take(flat[first * self._stride:], self._index[:k * size],
                               out=self._gathered[:k * size], mode="clip")
            np.add.reduceat(gathered, self._starts[:k * count],
                            out=out[first:first + k].reshape(-1))
        return out


def init_registry(params: SimParams | Sequence[SimParams], rosters) -> TcrState:
    """A fresh block, one replication per roster; every voter starts at the initial balance.

    ``rosters`` is (R, N, 2) booleans: (is_engaged, is_informed) per voter,
    as ``voters.sample_rosters`` returns them. ``params`` is one
    ``SimParams`` for every row, or one per row, all with the same
    ``block_key``. The state keeps no reference to the rosters.
    """
    rosters = np.asarray(rosters, dtype=bool)
    if isinstance(params, SimParams):
        params = [params] * len(rosters)
    if (rosters.ndim != 3 or len(params) != len(rosters)
            or rosters.shape[1:] != (params[0].num_voters, 2)):
        raise ConfigurationError(
            f"rosters have shape {rosters.shape}, params expect "
            f"({len(params)}, {params[0].num_voters}, 2)"
        )
    return TcrState(params, rosters[..., 0], rosters[..., 1])


def required_stake(state: TcrState, total: np.ndarray) -> np.ndarray:
    """(R,) stake every participant must lock this round, given the (R,) token supply;
    under the sigma stake, sigma times each row's mean UE balance (all voters' if none)."""
    if state.sigma_stake:
        base = state._stake_base.sums(state._flat)[0] / state._stake_base.sizes
    else:
        base = total / state.num_voters
    return state.stake_factor * base


def run_round(state: TcrState, rngs: Sequence[RngStream]) -> Round:
    """Draw and execute one round in every replication; mutates state.

    ``rngs[r]`` is row r's stream. Every draw is read from ``state.draws``,
    or from a ``voters.RowDraws`` over ``rngs`` for this round alone while
    it is None, in the order the contract in ``voters.py`` fixes.
    Settlement and inflation write only the eligible voters' balances, at
    the flat indices the vote draws are placed at: each is gathered once,
    settled and scattered back, and after the post-settlement and
    participant-token sums over the full rows, inflated and scattered again.
    Each row's values reach its entries, which are contiguous, by
    ``np.repeat`` over the rows' eligible counts; in a one-row block they
    broadcast. The round is recorded in its row of ``state.history``, and
    its balances in the ring; when the ring fills, every row of every round
    in it is checked at once (``check_rounds``). Callers run it under
    ``np.errstate(over="ignore", invalid="ignore")``: a row that overflows
    or turns NaN runs on until its ring is checked, which reports the first
    failing round, and the first failing row in it, once.
    """
    h = state.history
    s = state.round_index
    bal = state.balances
    pre_settle_total = np.add.reduce(bal, axis=1, out=h.pre_settle[s])
    stake = required_stake(state, pre_settle_total)
    h.stake[s] = stake
    draws = state.draws
    if draws is None:
        draws = RowDraws(rngs, state.num_voters)
    below = draws.items() < state.draw_cutoffs
    item_good, intends = below[:, 0], below[:, 1:]
    h.item_good[s] = item_good
    np.add.reduce(intends, axis=1, out=h.n_intends[s])
    eligible = intends & (bal >= (stake * (1.0 - REL_TOL))[:, None])
    n_eligible = np.add.reduce(eligible, axis=1, out=h.n_eligible[s])
    # Each row's vote draws, end to end, go to its eligible voters' flat indices.
    idx = eligible.ravel().nonzero()[0]
    state._vote_grid.ravel()[idx] = draws.votes(n_eligible)
    add = eligible & ((state._vote_grid < state.p_correct) == item_good[:, None])
    n_add = np.add.reduce(add, axis=1, out=h.n_add[s])
    n_reject = n_eligible - n_add
    # Equal sides, including the empty round, reject and refund every stake.
    decision_add = np.greater(n_add, n_reject, out=h.decision_add[s])
    moved = n_add != n_reject
    n_win = np.where(decision_add, n_add, n_reject)
    payout = np.divide(stake * n_eligible, n_win, out=stake.copy(), where=moved)

    # Only the eligible voters' balances are written, at the flat indices of
    # vote placement, so every other balance keeps its bits. Winners gain
    # payout - stake and losers lose the stake: n_win >= 1 whenever the sides
    # differ, so for a finite stake both are finite. A tie's voters gain 0.0
    # or -0.0, which keeps their bits (balances are never -0.0). Then each
    # voter is inflated at its row's rate. The indices are row-major, so a
    # row's entries are contiguous and its values reach them by np.repeat;
    # a one-row block's (1,) values broadcast as they are.
    per_row = (decision_add, payout - stake, np.where(moved, -stake, -0.0), state.growth)
    if len(bal) > 1:
        per_row = [np.repeat(values, n_eligible) for values in per_row]
    decided, gain, loss, growth = per_row
    flat = bal.ravel()
    settled = flat[idx]
    settled += np.where(add.ravel()[idx] == decided, gain, loss)
    flat[idx] = settled
    np.add.reduce(bal, axis=1, out=h.post_settle[s])
    np.add.reduce(bal * eligible, axis=1, out=h.participant_tokens[s])
    settled *= growth
    flat[idx] = settled
    np.add.reduce(bal, axis=1, out=h.total[s])
    h.balances[s - h.checked] = bal
    state.round_index += 1
    if state.round_index - h.checked == h.depth:
        check_rounds(state, rngs)
    return Round(s, item_good, stake, intends, eligible, add, decision_add, payout,
                 n_eligible, n_add)


def check_rounds(state: TcrState, rngs: Sequence[RngStream]) -> None:
    """Check the rounds in the history's ring and sum their class tokens; the ring starts over.

    Each check is one (rounds, R) array over the ring: settlement is
    zero-sum, the supply is finite, it grew by the inflation rate times the
    participants' tokens, and no balance is below -REL_TOL x max(1, stake).
    The two sums agree when ``|actual - expected| <= REL_TOL x
    max(|expected|, 1)``, and NaN fails every check. The first failing
    (round, row), in row-major order, raises for its first failing check in
    that order. Each round's class tokens then fill its row of
    ``history.tokens``.
    """
    h = state.history
    lo, hi = h.checked, state.round_index
    if lo == hi:
        return
    balances = h.balances[:hi - lo]
    pre, post, total = h.pre_settle[lo:hi], h.post_settle[lo:hi], h.total[lo:hi]
    expected = post + state.inflation_rate * h.participant_tokens[lo:hi]
    # Every row's bound is at most -REL_TOL, so a slot whose lowest balance
    # is at least that passes in every row; only otherwise is each row's taken.
    lowest = balances.min(axis=(1, 2))[:, None]
    if not (lowest >= -REL_TOL).all():
        lowest = balances.min(axis=2)

    def close(actual, wanted):
        return np.abs(actual - wanted) <= REL_TOL * np.maximum(np.abs(wanted), 1.0)

    failed = ~np.array([close(post, pre), np.isfinite(total), close(total, expected),
                        lowest >= -REL_TOL * np.fmax(h.stake[lo:hi], 1.0)])
    if failed.any():
        s, r = np.argwhere(failed.any(axis=0))[0].tolist()
        where = f"round {lo + s} (seed {rngs[r].seed})"
        check = failed[:, s, r].argmax()
        if check == 1:
            raise ConfigurationError(
                f"token balances overflow at round {lo + s}: inflation_rate "
                f"{state.params[r].inflation_rate} compounds past the float range"
            )
        if check == 3:
            raise InvariantViolation(f"negative balance after {where}", r)
        what, actual, wanted = (("settlement zero-sum", post, pre) if check == 0
                                else ("inflation bookkeeping", total, expected))
        raise InvariantViolation(
            f"{what} at {where}: {actual[s, r].item()!r} != {wanted[s, r].item()!r}", r)
    h.tokens[lo:hi] = state.class_tokens(hi - lo)
    h.checked = hi
