"""The registry state machine: staking, tally, settlement, inflation.

One round processes one candidate item: draw the item, compute the required
stake, draw participation intents and filter out those that cannot cover
the stake, draw the eligible voters' votes, tally them, move the stake pool
to the winning side, inflate the balances of everyone who voted, and record
the decision.

A state holds a block of R replications of one cell, advanced in lockstep:
balances are an (R, N) array, one row per replication, and every step works
on boolean (R, N) masks. Each replication keeps its own stream, drawn in the
order ``voters.py`` fixes. Every per-replication sum runs over the same
elements in the same order as a sum over that replication alone, so a
replication's output does not depend on the block it runs in.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .params import AnalysisSigmaStake, ConfigurationError, ProtocolStake, SimParams
from .voters import RngStream, VoterClass

REL_TOL = 1e-9
_UE = tuple(VoterClass).index(VoterClass.UNINFORMED_ENGAGED)


class InvariantViolation(RuntimeError):
    """A protocol invariant (conservation, non-negativity, ...) was broken.

    ``row`` is the failing replication's row in its block, when known.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class Decision(enum.Enum):
    ADD = "add"
    REJECT = "reject"


@dataclass
class Item:
    item_id: int
    is_good: bool


@dataclass
class RoundRecord:
    """Audit of one voting round of one replication.

    It keeps the round's voter masks and vote counts; the voter-id sets are
    built from the masks the first time they are read.
    """

    round_index: int
    item: Item
    stake: float
    decision: Decision
    decision_correct: bool
    per_winner_payout: float
    intends: np.ndarray
    eligible: np.ndarray
    add: np.ndarray
    n_participants: int
    n_add: int
    n_reject: int

    @cached_property
    def n_forced(self) -> int:
        """Intending voters who could not cover the stake."""
        return int(self.intends.sum()) - self.n_participants

    @cached_property
    def intended_participants(self) -> frozenset[int]:
        return _ids(self.intends)

    @cached_property
    def forced_abstentions(self) -> frozenset[int]:
        return _ids(self.intends & ~self.eligible)

    @cached_property
    def add_voters(self) -> frozenset[int]:
        return _ids(self.add)

    @cached_property
    def reject_voters(self) -> frozenset[int]:
        return _ids(self.eligible & ~self.add)

    @cached_property
    def inflation_applied_to(self) -> frozenset[int]:
        return _ids(self.eligible)


class Round(NamedTuple):
    """What one round did in every replication of a block: (R,) and (R, N) arrays.

    ``total`` is each replication's token supply after the round.
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
    total: np.ndarray

    def record(self, r: int = 0) -> RoundRecord:
        """The audit of the replication in row ``r``."""
        good, decision_add = bool(self.item_good[r]), bool(self.decision_add[r])
        n_eligible, n_add = int(self.n_eligible[r]), int(self.n_add[r])
        return RoundRecord(
            round_index=self.round_index,
            item=Item(self.round_index, good),
            stake=float(self.stake[r]),
            decision=Decision.ADD if decision_add else Decision.REJECT,
            decision_correct=decision_add == good,
            per_winner_payout=float(self.payout[r]),
            intends=self.intends[r],
            eligible=self.eligible[r],
            add=self.add[r],
            n_participants=n_eligible,
            n_add=n_add,
            n_reject=n_eligible - n_add,
        )


class TcrState:
    """Registry state of a block of R replications between rounds.

    Balances, engagement and informedness are (R, N) arrays indexed by
    (replication row, voter id). Classes never change during a run, so
    their sizes, an (R, 4) array in ``VoterClass`` order, and the index
    groups that sum each class's tokens are fixed here. Every round yields
    one decision per replication, so ``v_incorrect`` is ``round_index``
    minus ``v_correct``.
    """

    def __init__(self, params: SimParams, balances: np.ndarray,
                 is_engaged: np.ndarray, is_informed: np.ndarray):
        self.params = params
        self.balances = balances
        self.round_index = 0
        self.v_correct = np.zeros(len(balances), dtype=np.int64)
        # (R, 4, N) in VoterClass order: IE, ID, UE, UD.
        masks = np.stack([is_informed & is_engaged, is_informed & ~is_engaged,
                          ~is_informed & is_engaged, ~is_informed & ~is_engaged], axis=1)
        self._class_masks = masks
        self.class_sizes = masks.sum(axis=2)
        # The first draw of a round decides the item, the next N who intends to vote.
        self.draw_cutoffs = np.concatenate(
            (np.full((len(balances), 1), params.p_item_good),
             np.where(is_engaged, params.p_vote_engaged, params.p_vote_disengaged)), axis=1)
        self.p_correct = np.where(is_informed, params.p_correct_informed,
                                  params.p_correct_uninformed)

    @property
    def v_incorrect(self) -> np.ndarray:
        return self.round_index - self.v_correct

    @property
    def total_tokens(self) -> np.ndarray:
        """(R,) token supply of each replication."""
        return self.balances.sum(axis=1)

    def class_tokens(self) -> np.ndarray:
        """(R, 4) tokens held by each class, in ``VoterClass`` order."""
        return _grouped_sums(self.balances, self._class_groups, self.class_sizes.shape)

    @cached_property
    def _class_groups(self):
        return _sum_groups(self._class_masks)

    @cached_property
    def _stake_base(self):
        """Groups and sizes of each row's engaged-uninformed voters, or all voters if none."""
        ue = self._class_masks[:, _UE]
        base = ue | ~ue.any(axis=1, keepdims=True)
        return _sum_groups(base[:, None]), base.sum(axis=1)


def _sum_groups(masks: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Group the (replication, class) pairs of an (R, C, N) mask by class size.

    Each group is (positions in the flattened (R, C) output, (G, k) flat
    indices into the (R, N) balances), so one row-wise sum covers every
    k-voter class of the group.
    """
    r, c, n = masks.shape
    sizes = masks.sum(axis=2).reshape(-1)
    flat_masks = masks.reshape(r * c, n)
    groups = []
    for k in np.unique(sizes):
        positions = np.flatnonzero(sizes == k)
        cols = np.nonzero(flat_masks[positions])[1].reshape(positions.size, k)
        groups.append((positions, cols + (positions // c)[:, None] * n))
    return groups


def _grouped_sums(balances: np.ndarray, groups, shape) -> np.ndarray:
    """Per-(replication, class) balance sums over ``_sum_groups`` groups.

    Each sum adds the same elements in the same order as
    ``balances[r][class_mask].sum()``: a masked ``np.where`` or
    ``np.add.reduceat`` would group them differently and change the last
    digits.
    """
    flat = balances.ravel()
    out = np.empty(math.prod(shape))
    for positions, idx in groups:
        out[positions] = np.add.reduce(flat[idx], axis=1)
    return out.reshape(shape)


def init_registry(params: SimParams, rosters) -> TcrState:
    """A fresh block, one replication per roster; every voter starts at the initial balance.

    ``rosters`` is (R, N, 2) booleans: (is_engaged, is_informed) per voter.
    """
    rosters = np.asarray(rosters, dtype=bool)
    if rosters.ndim != 3 or rosters.shape[1:] != (params.num_voters, 2):
        raise ConfigurationError(
            f"rosters have shape {rosters.shape}, params expect (R, {params.num_voters}, 2)"
        )
    balances = np.full(rosters.shape[:2], params.initial_tokens, dtype=np.float64)
    return TcrState(params, balances, rosters[..., 0].copy(), rosters[..., 1].copy())


def required_stake(state: TcrState, total: np.ndarray) -> np.ndarray:
    """(R,) stake every participant must lock this round, given the (R,) token supply."""
    p = state.params
    if isinstance(p.stake_policy, ProtocolStake):
        return (p.initial_stake / p.initial_tokens) * (total / p.num_voters)
    assert isinstance(p.stake_policy, AnalysisSigmaStake)
    groups, sizes = state._stake_base
    return p.stake_policy.sigma * (_grouped_sums(state.balances, groups, sizes.shape) / sizes)


def tally(add_count, reject_count):
    """Majority among votes actually cast, True for Add; ties and empty rounds reject."""
    return add_count > reject_count


def settle(state: TcrState, stake: np.ndarray, winners: np.ndarray, losers: np.ndarray,
           n_win: np.ndarray, n_lose: np.ndarray) -> np.ndarray:
    """Move each stake pool from its losing to its winning side; returns the (R,) payouts.

    ``winners`` and ``losers`` are disjoint (R, N) voter masks of the sides
    the tally chose, with ``n_win`` and ``n_lose`` voters. Ties (equal
    sides, including the empty round) refund every stake, so the payout
    equals the stake and no balance moves. Transfers are zero-sum.
    """
    moved = n_win != n_lose
    payout = np.divide(stake * (n_win + n_lose), n_win, out=stake.copy(), where=moved)
    bal = state.balances
    # A tie's payout is the stake, so its winners gain exactly 0.0.
    np.add(bal, (payout - stake)[:, None], out=bal, where=winners)
    np.subtract(bal, np.where(moved, stake, 0.0)[:, None], out=bal, where=losers)
    return payout


def apply_inflation(state: TcrState, participants: np.ndarray, delta: float) -> None:
    """Multiply every participant's post-settlement balance by (1 + delta).

    Losing voters are inflated too; forced abstainers and non-voters are not.
    """
    if delta != 0.0:
        np.multiply(state.balances, 1.0 + delta, out=state.balances, where=participants)


def run_round(state: TcrState, rngs: Sequence[RngStream]) -> Round:
    """Draw and execute one round in every replication; mutates state.

    ``rngs[r]`` is row r's stream. Draws follow the contract in
    ``voters.py``: the item and one participation draw per voter in one
    call, then one vote draw per eligible voter in voter-id order.
    Conservation, inflation bookkeeping and non-negativity are checked in
    every row. Callers run it under ``np.errstate(over="ignore",
    invalid="ignore")``: a row that overflows or turns NaN fails those
    checks, which report it once.
    """
    p = state.params
    bal = state.balances
    rows, n = bal.shape
    pre_settle_total = bal.sum(axis=1)
    stake = required_stake(state, pre_settle_total)
    draws = np.empty((rows, n + 1))
    for r, rng in enumerate(rngs):
        draws[r] = rng.uniform(n + 1)
    below = draws < state.draw_cutoffs
    item_good, intends = below[:, 0], below[:, 1:]
    eligible = intends & (bal >= (stake * (1.0 - REL_TOL))[:, None])
    n_eligible = eligible.sum(axis=1)
    ids = eligible.reshape(-1).nonzero()[0]
    votes = np.concatenate([rng.uniform(k) for rng, k in zip(rngs, n_eligible.tolist())])
    add = np.zeros((rows, n), dtype=bool)
    add.reshape(-1)[ids] = ((votes < state.p_correct.ravel()[ids])
                            == np.repeat(item_good, n_eligible))
    n_add = add.sum(axis=1)
    n_reject = n_eligible - n_add
    decision_add = tally(n_add, n_reject)

    winners = np.where(decision_add[:, None], add, eligible ^ add)
    n_win = np.where(decision_add, n_add, n_reject)
    payout = settle(state, stake, winners, eligible ^ winners, n_win, n_eligible - n_win)
    post_settle_total = bal.sum(axis=1)
    participant_tokens = (bal * eligible).sum(axis=1)
    apply_inflation(state, eligible, p.inflation_rate)
    total = bal.sum(axis=1)
    expected = post_settle_total + p.inflation_rate * participant_tokens
    # One test that implies every check below, since hypot(a, b) >= |a|, |b|
    # and non-negative balances give expected >= pre_settle_total - drift;
    # the checks run only when it fails.
    if not ((np.hypot(post_settle_total - pre_settle_total, total - expected)
             / np.maximum(pre_settle_total, 1.0)).max() <= 0.5 * REL_TOL
            and bal.min() >= 0.0):
        _check_round(state, rngs, stake, pre_settle_total, post_settle_total, total, expected)

    state.v_correct += decision_add == item_good
    state.round_index += 1
    return Round(state.round_index - 1, item_good, stake, intends, eligible, add,
                 decision_add, payout, n_eligible, n_add, total)


def _check_round(state, rngs, stake, pre_settle_total, post_settle_total, total, expected):
    """Conservation, overflow, inflation bookkeeping and non-negativity, row by row."""
    k = state.round_index
    for r in range(len(stake)):
        where = f"round {k} (seed {rngs[r].seed})"
        _check_close(float(post_settle_total[r]), float(pre_settle_total[r]),
                     "settlement zero-sum", where, r)
        if not math.isfinite(total[r]):
            raise ConfigurationError(
                f"token balances overflow at round {k}: inflation_rate "
                f"{state.params.inflation_rate} compounds past the float range"
            )
        _check_close(float(total[r]), float(expected[r]), "inflation bookkeeping", where, r)
        if not state.balances[r].min() >= -REL_TOL * max(1.0, float(stake[r])):
            raise InvariantViolation(f"negative balance after {where}", r)


def _ids(mask: np.ndarray) -> frozenset[int]:
    return frozenset(np.flatnonzero(mask).tolist())


def _check_close(actual: float, expected: float, what: str, where: str, row: int) -> None:
    scale = max(abs(expected), 1.0)
    if not abs(actual - expected) <= REL_TOL * scale:
        raise InvariantViolation(f"{what} at {where}: {actual!r} != {expected!r}", row)
