"""The registry state machine: staking, tally, settlement, inflation.

One round processes one candidate item: draw the item, compute the required
stake, draw participation intents and filter out those that cannot cover
the stake, draw the eligible voters' votes, tally them, move the stake pool
to the winning side, inflate the balances of everyone who voted, and record
the decision. Balances live in a numpy array and every step works on
boolean masks over the voters, so whole-roster steps stay cheap.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .params import AnalysisSigmaStake, ConfigurationError, ProtocolStake, SimParams
from .voters import RngStream, VoterClass

REL_TOL = 1e-9


class InvariantViolation(RuntimeError):
    """A protocol invariant (conservation, non-negativity, ...) was broken."""


class Decision(enum.Enum):
    ADD = "add"
    REJECT = "reject"


@dataclass
class Item:
    item_id: int
    is_good: bool


@dataclass
class RoundRecord:
    """Full audit of one voting round."""

    round_index: int
    item: Item
    stake: float
    intended_participants: frozenset[int]
    forced_abstentions: frozenset[int]
    add_voters: frozenset[int]
    reject_voters: frozenset[int]
    decision: Decision
    decision_correct: bool
    per_winner_payout: float
    inflation_applied_to: frozenset[int]


class TcrState:
    """Registry state between rounds.

    Balances, engagement and informedness are parallel arrays indexed by
    voter id. Classes never change during a run, so their masks and sizes
    are fixed here. A completed round always yields exactly one decision,
    so ``round_index == v_correct + v_incorrect`` at all times.
    """

    def __init__(self, params: SimParams, balances: np.ndarray,
                 is_engaged: np.ndarray, is_informed: np.ndarray):
        self.params = params
        self.balances = balances
        self.is_engaged = is_engaged
        self.is_informed = is_informed
        self.round_index = 0
        self.v_correct = 0
        self.v_incorrect = 0
        self.registry: list[int] = []
        self.class_masks = {
            VoterClass.INFORMED_ENGAGED: is_informed & is_engaged,
            VoterClass.INFORMED_DISENGAGED: is_informed & ~is_engaged,
            VoterClass.UNINFORMED_ENGAGED: ~is_informed & is_engaged,
            VoterClass.UNINFORMED_DISENGAGED: ~is_informed & ~is_engaged,
        }
        self.class_sizes = {cls: int(mask.sum()) for cls, mask in self.class_masks.items()}
        self.p_vote = np.where(is_engaged, params.p_vote_engaged, params.p_vote_disengaged)

    @property
    def num_voters(self) -> int:
        return len(self.balances)

    @property
    def total_tokens(self) -> float:
        return float(self.balances.sum())


def init_registry(params: SimParams, roster: list[tuple[bool, bool]]) -> TcrState:
    """Create a fresh registry: every voter starts at the initial balance."""
    if len(roster) != params.num_voters:
        raise ConfigurationError(
            f"roster has {len(roster)} voters, params expect {params.num_voters}"
        )
    engaged = np.array([e for e, _ in roster], dtype=bool)
    informed = np.array([i for _, i in roster], dtype=bool)
    balances = np.full(params.num_voters, params.initial_tokens, dtype=np.float64)
    return TcrState(params, balances, engaged, informed)


def required_stake(state: TcrState) -> float:
    """Stake every participant must lock this round."""
    policy = state.params.stake_policy
    if isinstance(policy, ProtocolStake):
        p = state.params
        return (p.initial_stake / p.initial_tokens) * (state.total_tokens / p.num_voters)
    assert isinstance(policy, AnalysisSigmaStake)
    ue = state.class_masks[VoterClass.UNINFORMED_ENGAGED]
    base = state.balances[ue] if ue.any() else state.balances
    return policy.sigma * float(base.mean())


def tally(add_count: int, reject_count: int) -> Decision:
    """Majority among votes actually cast; ties and empty rounds reject."""
    return Decision.ADD if add_count > reject_count else Decision.REJECT


def settle(state: TcrState, stake: float, add: np.ndarray, reject: np.ndarray,
           decision: Decision) -> float:
    """Move the stake pool to the winning side; returns the per-winner payout.

    ``add`` and ``reject`` are disjoint voter masks. Ties (equal sides,
    including the empty round) refund every stake, so the payout equals the
    stake and no balance moves. Transfers are zero-sum.
    """
    winners, losers = (add, reject) if decision is Decision.ADD else (reject, add)
    n_win, n_lose = int(winners.sum()), int(losers.sum())
    if n_win == n_lose:
        return stake
    if n_win == 0:
        raise InvariantViolation("non-tie round with no winners")
    payout = stake * (n_win + n_lose) / n_win
    state.balances[winners] += payout - stake
    state.balances[losers] -= stake
    return payout


def apply_inflation(state: TcrState, participants: np.ndarray, delta: float) -> None:
    """Multiply every participant's post-settlement balance by (1 + delta).

    Losing voters are inflated too; forced abstainers and non-voters are not.
    """
    if delta != 0.0:
        state.balances[participants] *= 1.0 + delta


def run_round(state: TcrState, rng: RngStream) -> RoundRecord:
    """Draw and execute one full round in fixed order; mutates state, returns the audit.

    Draws follow the contract in ``voters.py``: the item, one participation
    draw per voter, then one vote draw per eligible voter in voter-id order.
    """
    p = state.params
    item = Item(state.round_index, bool(rng.uniform() < p.p_item_good))
    stake = required_stake(state)
    intends = rng.uniform(state.num_voters) < state.p_vote
    eligible = intends & (state.balances >= stake * (1.0 - REL_TOL))
    ids = np.flatnonzero(eligible)
    p_correct = np.where(state.is_informed[ids], p.p_correct_informed, p.p_correct_uninformed)
    add = np.zeros_like(eligible)
    add[ids] = (rng.uniform(ids.size) < p_correct) == item.is_good
    reject = eligible & ~add

    pre_settle_total = state.total_tokens
    decision = tally(int(add.sum()), int(reject.sum()))
    payout = settle(state, stake, add, reject, decision)
    post_settle_total = state.total_tokens
    _check_close(post_settle_total, pre_settle_total, "settlement zero-sum")

    participant_tokens = float(state.balances[eligible].sum())
    apply_inflation(state, eligible, p.inflation_rate)
    total = state.total_tokens
    if not math.isfinite(total):
        raise ConfigurationError(
            f"token balances overflow at round {state.round_index}: "
            f"inflation_rate {p.inflation_rate} compounds past the float range"
        )
    _check_close(
        total,
        post_settle_total + p.inflation_rate * participant_tokens,
        "inflation bookkeeping",
    )
    if not state.balances.min() >= -REL_TOL * max(1.0, stake):
        raise InvariantViolation(f"negative balance after round {state.round_index}")

    decision_correct = (decision is Decision.ADD) == item.is_good
    if decision_correct:
        state.v_correct += 1
    else:
        state.v_incorrect += 1
    if decision is Decision.ADD:
        state.registry.append(item.item_id)
    state.round_index += 1
    if state.round_index != state.v_correct + state.v_incorrect:
        raise InvariantViolation("round_index out of sync with decision counts")

    participants = frozenset(ids.tolist())
    intended = _ids(intends)
    add_voters = _ids(add)
    return RoundRecord(
        round_index=state.round_index - 1,
        item=item,
        stake=stake,
        intended_participants=intended,
        forced_abstentions=intended - participants,
        add_voters=add_voters,
        reject_voters=participants - add_voters,
        decision=decision,
        decision_correct=decision_correct,
        per_winner_payout=payout,
        inflation_applied_to=participants,
    )


def _ids(mask: np.ndarray) -> frozenset[int]:
    return frozenset(np.flatnonzero(mask).tolist())


def _check_close(actual: float, expected: float, what: str) -> None:
    scale = max(abs(expected), 1.0)
    if not abs(actual - expected) <= REL_TOL * scale:
        raise InvariantViolation(f"{what}: {actual!r} != {expected!r}")
