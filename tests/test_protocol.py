import numpy as np
import pytest

from tcrlab.params import AnalysisSigmaStake, ConfigurationError, SimParams
from tcrlab.protocol import (
    Decision,
    InvariantViolation,
    apply_inflation,
    init_registry,
    required_stake,
    run_round,
    settle,
    tally,
)
from tcrlab.voters import RngStream

# Engaged voters always intend and disengaged never do; informed voters are
# always correct and uninformed always wrong; every item is good. A round's
# votes then follow from the roster alone, whatever the draws.
SURE = dict(p_vote_engaged=1.0, p_vote_disengaged=0.0, p_correct_informed=1.0,
            p_correct_uninformed=0.0, p_item_good=1.0)


def make_state(n=100, initial_tokens=100.0, roster=None, **kwargs):
    """A one-replication block."""
    params = SimParams(num_voters=n, initial_tokens=initial_tokens, **kwargs)
    return init_registry(params, [roster or [(True, True)] * n])


def mask(n, ids):
    """A (1, n) voter mask of one replication."""
    out = np.zeros((1, n), dtype=bool)
    out[0, list(ids)] = True
    return out


def settle_sides(state, stake, winners, losers):
    """Settle a one-replication block: the stake pool of ``losers`` goes to ``winners``."""
    return settle(state, np.array([stake]), winners, losers,
                  winners.sum(axis=1), losers.sum(axis=1))


def one_round(state, seed=0):
    """Run one round of a one-replication block; returns its audit."""
    return run_round(state, [RngStream(seed)]).record()



class TestInitRegistry:
    def test_table_defaults(self):
        state = make_state(n=100, initial_tokens=100.0)
        assert state.total_tokens.tolist() == [10000.0]
        assert state.round_index == 0
        assert state.v_correct.tolist() == [0] and state.v_incorrect.tolist() == [0]

    def test_single_voter(self):
        state = make_state(n=1)
        assert state.total_tokens.tolist() == [100.0]

    def test_zero_initial_tokens_rejected(self):
        with pytest.raises(ConfigurationError):
            SimParams(num_voters=3, initial_tokens=0.0)

    def test_roster_size_mismatch(self):
        params = SimParams(num_voters=5)
        with pytest.raises(ConfigurationError):
            init_registry(params, [[(True, True)] * 4])


class TestClassTokens:
    # Class sizes per row, in VoterClass order (IE, ID, UE, UD), of a
    # 400-voter block: empty, 1-7, 8-128 and above-128 classes, different
    # in every row.
    SIZES = [(0, 3, 130, 267), (1, 7, 8, 384), (128, 129, 0, 143), (5, 64, 200, 131)]

    def test_stacked_round_by_round_and_direct_sums_agree_bit_for_bit(self):
        gen = np.random.default_rng(0)
        kinds = [(True, True), (False, True), (True, False), (False, False)]  # (engaged, informed)
        rosters = []
        for sizes in self.SIZES:
            pairs = [kind for kind, k in zip(kinds, sizes) for _ in range(k)]
            rosters.append([pairs[i] for i in gen.permutation(len(pairs))])
        state = init_registry(SimParams(num_voters=400), rosters)
        assert state.class_sizes.tolist() == [list(sizes) for sizes in self.SIZES]
        # Six rounds of balances spread over eight orders of magnitude.
        shape = (6, *state.balances.shape)
        history = gen.random(shape) * 10.0 ** gen.integers(-3, 6, shape)
        stacked = state.class_tokens(history)
        assert stacked.shape == (6, len(self.SIZES), 4)
        for k, balances in enumerate(history):
            state.balances[:] = balances
            direct = np.array([[balances[r][state._class_masks[r, c]].sum() for c in range(4)]
                               for r in range(len(self.SIZES))])
            assert state.class_tokens().tobytes() == direct.tobytes(), k
            assert stacked[k].tobytes() == direct.tobytes(), k


class TestRequiredStake:
    def test_protocol_round_zero_identity(self):
        state = make_state(n=100, initial_tokens=100.0, initial_stake=5.0)
        assert required_stake(state, state.total_tokens) == pytest.approx([5.0])

    def test_protocol_tracks_total(self):
        state = make_state(n=100, initial_tokens=100.0, initial_stake=5.0)
        state.balances[0, 0] += 100.0  # total now 10100
        assert required_stake(state, state.total_tokens) == pytest.approx([5.05])

    def test_protocol_per_replication(self):
        params = SimParams(num_voters=2, initial_tokens=100.0, initial_stake=5.0)
        state = init_registry(params, [[(True, True)] * 2] * 3)
        state.balances[1] = [300.0, 100.0]
        assert required_stake(state, state.total_tokens) == pytest.approx([5.0, 10.0, 5.0])

    def test_analysis_sigma_uses_uninformed_engaged_mean(self):
        params = SimParams(
            num_voters=4, stake_policy=AnalysisSigmaStake(sigma=0.05)
        )
        roster = [(True, True), (True, False), (True, False), (False, False)]
        state = init_registry(params, [roster])
        assert required_stake(state, state.total_tokens) == pytest.approx([5.0])
        # only engaged-uninformed balances matter
        state.balances[0, 0] = 500.0
        assert required_stake(state, state.total_tokens) == pytest.approx([5.0])
        state.balances[0, 1] = 300.0
        assert required_stake(state, state.total_tokens) == pytest.approx([10.0])

    def test_analysis_sigma_falls_back_to_all_voters(self):
        params = SimParams(num_voters=2, stake_policy=AnalysisSigmaStake(sigma=0.1))
        state = init_registry(params, [[(True, True), (False, True)]])
        assert required_stake(state, state.total_tokens) == pytest.approx([10.0])

    def test_analysis_sigma_per_replication(self):
        # Replication 0 has an engaged-uninformed voter, replication 1 none.
        params = SimParams(num_voters=2, stake_policy=AnalysisSigmaStake(sigma=0.1))
        state = init_registry(params, [[(True, False), (True, True)],
                                       [(True, True), (False, True)]])
        state.balances[:] = [[50.0, 150.0], [50.0, 150.0]]
        assert required_stake(state, state.total_tokens) == pytest.approx([5.0, 10.0])


class TestTally:
    def test_strict_majority_adds(self):
        assert tally(35, 25)

    def test_tie_rejects(self):
        assert not tally(30, 30)

    def test_zero_participation_rejects(self):
        assert not tally(0, 0)

    def test_reject_majority(self):
        assert not tally(10, 40)

    def test_per_replication(self):
        assert tally(np.array([35, 30, 0, 10]), np.array([25, 30, 0, 40])).tolist() == [
            True, False, False, False]


class TestSettle:
    def test_split_rule_arithmetic(self):
        state = make_state(n=60)
        add, rej = mask(60, range(35)), mask(60, range(35, 60))
        payout = settle_sides(state, 5.0, add, rej)
        assert payout == pytest.approx([300.0 / 35])
        assert np.allclose(state.balances[add], 100.0 + 300.0 / 35 - 5.0)
        assert np.allclose(state.balances[rej], 95.0)

    def test_unanimous_round_is_neutral(self):
        state = make_state(n=40)
        settle_sides(state, 5.0, mask(40, range(40)), mask(40, ()))
        assert np.allclose(state.balances, 100.0)

    def test_tie_refunds_everyone(self):
        state = make_state(n=60)
        payout = settle_sides(state, 5.0, mask(60, range(30, 60)), mask(60, range(30)))
        assert payout == pytest.approx([5.0])
        assert np.allclose(state.balances, 100.0)

    def test_zero_participants_no_change(self):
        state = make_state(n=10)
        settle_sides(state, 5.0, mask(10, ()), mask(10, ()))
        assert np.allclose(state.balances, 100.0)

    def test_conservation(self):
        state = make_state(n=50)
        before = state.total_tokens
        settle_sides(state, 7.3, mask(50, range(20, 45)), mask(50, range(20)))
        assert state.total_tokens == pytest.approx(before, rel=1e-9)

    def test_rows_settle_independently(self):
        # Row 0 wins 2 to 1, row 1 ties 1 to 1, row 2 wins 2 to 1 on the other voters.
        params = SimParams(num_voters=3)
        state = init_registry(params, [[(True, True)] * 3] * 3)
        winners = np.array([[1, 1, 0], [1, 0, 0], [0, 1, 1]], dtype=bool)
        losers = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=bool)
        stake = np.array([6.0, 6.0, 6.0])
        payout = settle(state, stake, winners, losers, winners.sum(axis=1), losers.sum(axis=1))
        assert payout == pytest.approx([9.0, 6.0, 9.0])
        assert np.allclose(state.balances, [[103, 103, 94], [100, 100, 100], [94, 103, 103]])


def mixed_delta_state(n, deltas):
    """A block with one row per inflation rate, every voter engaged and informed."""
    params = [SimParams(num_voters=n, inflation_rate=d) for d in deltas]
    return init_registry(params, [[(True, True)] * n] * len(deltas))


class TestApplyInflation:
    def test_participant_inflated_at_its_rows_rate(self):
        state = mixed_delta_state(2, [0.02, 0.5])
        apply_inflation(state, np.array([[True, False], [False, True]]))
        assert state.balances.tolist() == [[100.0 * 1.02, 100.0], [100.0, 150.0]]

    def test_zero_delta_is_identity(self):
        # A row at delta 0 keeps its balances' bits, whatever the other rows do.
        state = mixed_delta_state(5, [0.0, 0.05])
        state.balances[:] = [[0.0, 1e-300, 3.3, 7e12, 1.0 / 3.0], [1.0] * 5]
        before = state.balances[0].tobytes()
        apply_inflation(state, np.ones((2, 5), dtype=bool))
        assert state.balances[0].tobytes() == before
        assert state.balances[1].tolist() == [1.05] * 5


class TestRunRound:
    def test_add_decision_on_good_item(self):
        # 35 informed and 25 uninformed engaged voters, 40 disengaged
        roster = [(True, True)] * 35 + [(True, False)] * 25 + [(False, True)] * 40
        state = make_state(n=100, roster=roster, **SURE)
        record = one_round(state)
        assert record.intended_participants == frozenset(range(60))
        assert record.add_voters == frozenset(range(35))
        assert (record.n_add, record.n_reject, record.n_participants) == (35, 25, 60)
        assert record.decision is Decision.ADD
        assert record.decision_correct
        assert record.item.item_id == record.round_index == 0
        assert state.v_correct.tolist() == [1] and state.v_incorrect.tolist() == [0]
        assert state.round_index == 1
        assert record.add_voters.isdisjoint(record.reject_voters)

    def test_zero_participation_rejects_bad_item(self):
        state = make_state(n=10, **{**SURE, "p_vote_engaged": 0.0, "p_item_good": 0.0})
        before = state.balances.copy()
        record = one_round(state)
        assert record.intended_participants == frozenset()
        assert record.decision is Decision.REJECT
        assert record.decision_correct
        assert state.v_correct.tolist() == [1]
        assert np.array_equal(state.balances, before)

    def test_vote_from_ineligible_voter_rejected(self):
        # Voter 3 is priced out and voters 4..9 never intend: none of them
        # votes, and only the 3 eligible voters consume vote draws.
        roster = [(True, True)] * 4 + [(False, True)] * 6
        state = make_state(n=10, roster=roster, **SURE)
        state.balances[0, 3] = 1.0
        rng = RngStream(5)
        record = run_round(state, [rng]).record()
        assert record.inflation_applied_to == frozenset({0, 1, 2})
        assert record.add_voters | record.reject_voters == frozenset({0, 1, 2})
        replay = RngStream(5)
        replay.uniform(1 + 10 + 3)
        assert rng.uniform(1) == replay.uniform(1)

    def test_forced_abstention_recorded_and_uninflated(self):
        state = make_state(n=4, inflation_rate=0.02, **SURE)
        state.balances[0, 3] = 1.0  # below the required stake
        record = one_round(state)
        assert record.intended_participants == frozenset(range(4))
        assert record.forced_abstentions == frozenset({3})
        assert record.n_forced == 1
        assert 3 not in record.inflation_applied_to
        assert state.balances[0, 3] == pytest.approx(1.0)
        assert np.allclose(state.balances[0, :3], 102.0)

    def test_tie_round_is_wealth_neutral(self):
        roster = [(True, True)] * 5 + [(True, False)] * 5
        state = make_state(n=10, roster=roster, inflation_rate=0.0, **SURE)
        record = one_round(state)
        assert len(record.add_voters) == len(record.reject_voters) == 5
        assert record.decision is Decision.REJECT
        assert record.per_winner_payout == pytest.approx(record.stake)
        assert np.allclose(state.balances, 100.0)


class TestInvariantsFailOnNan:
    def test_nan_balance_raises(self):
        state = make_state(n=4)
        state.balances[0, 0] = np.nan
        with pytest.raises(InvariantViolation, match="settlement zero-sum at round 0"):
            one_round(state)

    def test_negative_balance_raises_but_rounding_residue_passes(self):
        # Nobody votes, so the round only has to keep balances non-negative.
        state = make_state(n=4, p_vote_engaged=0.0)
        state.balances[0, :2] = [-1e-12, 100.0 + 1e-12]
        one_round(state)
        state.balances[0, :2] = [-1e-6, 100.0 + 1e-6]
        with pytest.raises(InvariantViolation, match=r"negative balance after round 1 \(seed 0\)"):
            one_round(state)

    def test_overflow_is_a_configuration_error(self):
        # Each balance stays finite, but their doubled sum does not.
        state = make_state(n=2, inflation_rate=1.0, **SURE)
        state.balances[:] = 6e307
        with pytest.raises(ConfigurationError, match="overflow"), \
                np.errstate(over="ignore", invalid="ignore"):
            one_round(state)
