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
    params = SimParams(num_voters=n, initial_tokens=initial_tokens, **kwargs)
    return init_registry(params, roster or [(True, True)] * n)


def mask(n, ids):
    out = np.zeros(n, dtype=bool)
    out[list(ids)] = True
    return out


class TestInitRegistry:
    def test_table_defaults(self):
        state = make_state(n=100, initial_tokens=100.0)
        assert state.total_tokens == pytest.approx(10000.0)
        assert state.round_index == 0
        assert state.v_correct == 0 and state.v_incorrect == 0

    def test_single_voter(self):
        state = make_state(n=1)
        assert state.total_tokens == pytest.approx(100.0)

    def test_zero_initial_tokens_rejected(self):
        with pytest.raises(ConfigurationError):
            SimParams(num_voters=3, initial_tokens=0.0)

    def test_roster_size_mismatch(self):
        params = SimParams(num_voters=5)
        with pytest.raises(ConfigurationError):
            init_registry(params, [(True, True)] * 4)


class TestRequiredStake:
    def test_protocol_round_zero_identity(self):
        state = make_state(n=100, initial_tokens=100.0, initial_stake=5.0)
        assert required_stake(state) == pytest.approx(5.0)

    def test_protocol_tracks_total(self):
        state = make_state(n=100, initial_tokens=100.0, initial_stake=5.0)
        state.balances[0] += 100.0  # total now 10100
        assert required_stake(state) == pytest.approx(5.05)

    def test_analysis_sigma_uses_uninformed_engaged_mean(self):
        params = SimParams(
            num_voters=4, stake_policy=AnalysisSigmaStake(sigma=0.05)
        )
        roster = [(True, True), (True, False), (True, False), (False, False)]
        state = init_registry(params, roster)
        assert required_stake(state) == pytest.approx(5.0)
        # only engaged-uninformed balances matter
        state.balances[0] = 500.0
        assert required_stake(state) == pytest.approx(5.0)

    def test_analysis_sigma_falls_back_to_all_voters(self):
        params = SimParams(num_voters=2, stake_policy=AnalysisSigmaStake(sigma=0.1))
        state = init_registry(params, [(True, True), (False, True)])
        assert required_stake(state) == pytest.approx(10.0)


class TestTally:
    def test_strict_majority_adds(self):
        assert tally(35, 25) is Decision.ADD

    def test_tie_rejects(self):
        assert tally(30, 30) is Decision.REJECT

    def test_zero_participation_rejects(self):
        assert tally(0, 0) is Decision.REJECT

    def test_reject_majority(self):
        assert tally(10, 40) is Decision.REJECT


class TestSettle:
    def test_split_rule_arithmetic(self):
        state = make_state(n=60)
        add, rej = mask(60, range(35)), mask(60, range(35, 60))
        payout = settle(state, 5.0, add, rej, Decision.ADD)
        assert payout == pytest.approx(300.0 / 35)
        assert np.allclose(state.balances[add], 100.0 + 300.0 / 35 - 5.0)
        assert np.allclose(state.balances[rej], 95.0)

    def test_unanimous_round_is_neutral(self):
        state = make_state(n=40)
        settle(state, 5.0, mask(40, range(40)), mask(40, ()), Decision.ADD)
        assert np.allclose(state.balances, 100.0)

    def test_tie_refunds_everyone(self):
        state = make_state(n=60)
        payout = settle(state, 5.0, mask(60, range(30)), mask(60, range(30, 60)),
                        Decision.REJECT)
        assert payout == pytest.approx(5.0)
        assert np.allclose(state.balances, 100.0)

    def test_zero_participants_no_change(self):
        state = make_state(n=10)
        settle(state, 5.0, mask(10, ()), mask(10, ()), Decision.REJECT)
        assert np.allclose(state.balances, 100.0)

    def test_conservation(self):
        state = make_state(n=50)
        before = state.total_tokens
        settle(state, 7.3, mask(50, range(20)), mask(50, range(20, 45)), Decision.REJECT)
        assert state.total_tokens == pytest.approx(before, rel=1e-9)


class TestApplyInflation:
    def test_participant_inflated(self):
        state = make_state(n=2)
        apply_inflation(state, mask(2, {0}), 0.02)
        assert state.balances[0] == pytest.approx(102.0)
        assert state.balances[1] == pytest.approx(100.0)

    def test_zero_delta_is_identity(self):
        state = make_state(n=5)
        apply_inflation(state, mask(5, range(5)), 0.0)
        assert np.allclose(state.balances, 100.0)


class TestRunRound:
    def test_add_decision_on_good_item(self):
        # 35 informed and 25 uninformed engaged voters, 40 disengaged
        roster = [(True, True)] * 35 + [(True, False)] * 25 + [(False, True)] * 40
        state = make_state(n=100, roster=roster, **SURE)
        record = run_round(state, RngStream(0))
        assert record.intended_participants == frozenset(range(60))
        assert record.add_voters == frozenset(range(35))
        assert record.decision is Decision.ADD
        assert record.decision_correct
        assert state.v_correct == 1 and state.v_incorrect == 0
        assert state.registry == [0]
        assert state.round_index == 1
        assert record.add_voters.isdisjoint(record.reject_voters)

    def test_zero_participation_rejects_bad_item(self):
        state = make_state(n=10, **{**SURE, "p_vote_engaged": 0.0, "p_item_good": 0.0})
        before = state.balances.copy()
        record = run_round(state, RngStream(0))
        assert record.intended_participants == frozenset()
        assert record.decision is Decision.REJECT
        assert record.decision_correct
        assert state.v_correct == 1
        assert np.array_equal(state.balances, before)

    def test_vote_from_ineligible_voter_rejected(self):
        # Voter 3 is priced out and voters 4..9 never intend: none of them
        # votes, and only the 3 eligible voters consume vote draws.
        roster = [(True, True)] * 4 + [(False, True)] * 6
        state = make_state(n=10, roster=roster, **SURE)
        state.balances[3] = 1.0
        rng = RngStream(5)
        record = run_round(state, rng)
        assert record.inflation_applied_to == frozenset({0, 1, 2})
        assert record.add_voters | record.reject_voters == frozenset({0, 1, 2})
        replay = RngStream(5)
        replay.uniform(1 + 10 + 3)
        assert rng.uniform() == replay.uniform()

    def test_forced_abstention_recorded_and_uninflated(self):
        state = make_state(n=4, inflation_rate=0.02, **SURE)
        state.balances[3] = 1.0  # below the required stake
        record = run_round(state, RngStream(0))
        assert record.intended_participants == frozenset(range(4))
        assert record.forced_abstentions == frozenset({3})
        assert 3 not in record.inflation_applied_to
        assert state.balances[3] == pytest.approx(1.0)
        assert np.allclose(state.balances[:3], 102.0)

    def test_tie_round_is_wealth_neutral(self):
        roster = [(True, True)] * 5 + [(True, False)] * 5
        state = make_state(n=10, roster=roster, inflation_rate=0.0, **SURE)
        record = run_round(state, RngStream(0))
        assert len(record.add_voters) == len(record.reject_voters) == 5
        assert record.decision is Decision.REJECT
        assert record.per_winner_payout == pytest.approx(record.stake)
        assert np.allclose(state.balances, 100.0)


class TestInvariantsFailOnNan:
    def test_nan_balance_raises(self):
        state = make_state(n=4)
        state.balances[0] = np.nan
        with pytest.raises(InvariantViolation):
            run_round(state, RngStream(0))

    def test_overflow_is_a_configuration_error(self):
        # Each balance stays finite, but their doubled sum does not.
        state = make_state(n=2, inflation_rate=1.0, **SURE)
        state.balances[:] = 6e307
        with pytest.raises(ConfigurationError, match="overflow"), np.errstate(over="ignore"):
            run_round(state, RngStream(0))
