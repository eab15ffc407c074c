import numpy as np
import pytest

from tcrlab import protocol
from tcrlab.params import AnalysisSigmaStake, ConfigurationError, SimParams
from tcrlab.protocol import (GATHER_SLOTS, InvariantViolation, check_rounds, init_registry,
                             required_stake, run_round)
from tcrlab.voters import ReadAhead, RngStream, RowDraws, sample_rosters

# Engaged voters always intend and disengaged never do; informed voters are
# always correct and uninformed always wrong; every item is good. A round's
# votes then follow from the roster alone, whatever the draws.
SURE = dict(p_vote_engaged=1.0, p_vote_disengaged=0.0, p_correct_informed=1.0,
            p_correct_uninformed=0.0, p_item_good=1.0)
# (is_engaged, is_informed) of a voter who, under SURE, votes Add, votes
# Reject or stays out.
ADD, REJ, OUT = (True, True), (True, False), (False, True)


def streams(rows, first=0):
    """Streams seeded first, first + 1, ... for a block of ``rows`` rows."""
    return [RngStream(first + r) for r in range(rows)]


def make_state(n=100, initial_tokens=100.0, roster=None, seed=0, **kwargs):
    """A one-replication block whose stream is seeded ``seed``."""
    params = SimParams(num_voters=n, initial_tokens=initial_tokens, **kwargs)
    return init_registry(params, [roster or [(True, True)] * n], [RngStream(seed)])


def one_round(state):
    """Run one round of a block and check it; returns its ``Round``."""
    rnd = run_round(state)
    check_rounds(state)
    return rnd


def ids(mask):
    """Voter ids of a (N,) mask."""
    return np.flatnonzero(mask).tolist()


def correct_decisions(state):
    """Each row's correct decisions so far, from its history's columns."""
    h, k = state.history, state.round_index
    return (h.decision_add[:k] == h.item_good[:k]).sum(axis=0)


class TestInitRegistry:
    def test_table_defaults(self):
        state = make_state(n=100, initial_tokens=100.0)
        assert state.balances.sum(axis=1).tolist() == [10000.0]
        assert state.round_index == 0
        assert correct_decisions(state).tolist() == [0]

    def test_single_voter(self):
        state = make_state(n=1)
        assert state.balances.sum(axis=1).tolist() == [100.0]

    def test_zero_initial_tokens_rejected(self):
        with pytest.raises(ConfigurationError):
            SimParams(num_voters=3, initial_tokens=0.0)

    def test_roster_size_mismatch(self):
        params = SimParams(num_voters=5)
        with pytest.raises(ConfigurationError):
            init_registry(params, [[(True, True)] * 4], streams(1))

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_a_stream_for_each_row(self, count):
        # One stream for three rows would give every row row 0's draws.
        with pytest.raises(ConfigurationError, match=f"^{count} streams given for 3 rows$"):
            init_registry(SimParams(num_voters=2), [[(True, True)] * 2] * 3, streams(count))

    def test_rows_of_mixed_block_keys_rejected(self):
        params = [SimParams(num_voters=2, num_items=5), SimParams(num_voters=2, num_items=6)]
        with pytest.raises(ConfigurationError, match="must share num_voters, num_items"):
            init_registry(params, [[(True, True)] * 2] * 2, streams(2))

    @pytest.mark.parametrize("rows,n,rounds,depth,source", [
        (1, 100, 50, 50, RowDraws), (20, 10, 13, 13, ReadAhead), (16, 201, 5, 5, RowDraws),
        (15, 10, 13, 13, RowDraws), (20, 4000, 3, 1, RowDraws), (400, 200, 2, 1, RowDraws),
        (300, 200, 5, 1, ReadAhead), (2, 3, 0, 1, RowDraws)])
    def test_ring_and_draw_source_fit_the_block(self, rows, n, rounds, depth, source):
        # The ring holds HISTORY_SLOTS voter slots, at least one round; a
        # block reads ahead from 16 rows and up to 200 voters, when two
        # rounds of 2N + 1 draws a row fit READ_AHEAD_SLOTS.
        state = init_registry(SimParams(num_voters=n, num_items=rounds),
                              np.ones((rows, n, 2), bool), streams(rows))
        assert state.history.depth == depth
        assert type(state.draws) is source


def spread_balances(gen, shape):
    """Random positive balances spread over eight orders of magnitude."""
    return gen.random(shape) * 10.0 ** gen.integers(-3, 6, shape)


def test_reduceat_of_a_zero_led_segment_has_the_bits_of_add_reduce():
    # The class-token and stake sums rest on this: np.add.reduce of x is
    # 0.0 + pairwise(x), and np.add.reduceat of [0.0, *x] is the same. Three
    # vectors of every length from 0 past the 128-element pairwise block.
    gen = np.random.default_rng(3)
    vectors = [spread_balances(gen, k) for k in range(301) for _ in range(3)]
    segments = np.concatenate([np.concatenate(([0.0], x)) for x in vectors])
    starts = np.cumsum([0] + [x.size + 1 for x in vectors[:-1]])
    expected = np.array([np.add.reduce(x) for x in vectors])
    assert np.add.reduceat(segments, starts).tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows,classes,n", [(1, 4, 1), (1, 4, 30), (7, 4, 13), (5, 1, 40)])
def test_segment_index_matches_a_3d_nonzero_build(rows, classes, n):
    # Masks of mixed density, with empty and full classes, and one-row blocks.
    gen = np.random.default_rng(rows * 100 + n)
    masks = gen.random((rows, classes, n)) < gen.choice([0.0, 0.3, 0.9, 1.0], (rows, classes, 1))
    sums = protocol._SegmentSums(masks)
    r, _, cols = np.concatenate((np.ones((rows, classes, 1), bool), masks), axis=2).nonzero()
    assert sums._index.tolist() == np.where(cols > 0, r * n + cols - 1, rows * n).tolist()
    assert sums._starts.tolist() == np.flatnonzero(cols == 0).tolist()
    balances = np.concatenate((spread_balances(gen, rows * n), [0.0]))
    expected = [balances[:-1].reshape(rows, n)[i][masks[i, c]].sum()
                for i in range(rows) for c in range(classes)]
    assert sums.sums(balances)[0].tobytes() == np.array(expected).tobytes()


def test_params_columns_are_each_rows_values():
    # Two params objects, interleaved, and a third equal to the first: each
    # row's columns hold its own params' values, read once per object.
    a = SimParams(num_voters=6, inflation_rate=0.03, p_vote_engaged=0.7, p_correct_informed=0.8)
    b = SimParams(num_voters=6, inflation_rate=0.1, initial_tokens=50.0, p_item_good=0.2,
                  p_vote_disengaged=0.4, p_correct_uninformed=0.35, clamp_value=False)
    params = [a, b, b, a, SimParams(**vars(a))]
    rosters = np.random.default_rng(1).random((5, 6, 2)) < 0.5
    state = init_registry(params, rosters, streams(5))
    for r, p in enumerate(params):
        one = init_registry(p, rosters[r:r + 1], streams(1))
        for name in ("inflation_rate", "stake_factor", "growth", "clamp_value", "balances",
                     "draw_cutoffs", "p_correct"):
            assert getattr(state, name)[r].tobytes() == getattr(one, name)[0].tobytes(), (r, name)
    assert state.params == tuple(params)


class TestClassTokens:
    # Class sizes per row, in CLASSES order (IE, ID, UE, UD), of a
    # 400-voter block: empty, 1-7, 8-128 and above-128 classes, different
    # in every row.
    SIZES = [(0, 3, 130, 267), (1, 7, 8, 384), (128, 129, 0, 143), (5, 64, 200, 131)]

    def test_stacked_round_by_round_and_direct_sums_agree_bit_for_bit(self, monkeypatch):
        gen = np.random.default_rng(0)
        kinds = [(True, True), (False, True), (True, False), (False, False)]  # (engaged, informed)
        rosters = []
        for sizes in self.SIZES:
            pairs = [kind for kind, k in zip(kinds, sizes) for _ in range(k)]
            rosters.append([pairs[i] for i in gen.permutation(len(pairs))])
        # The history path gathers 5 rounds of 1600 balances and 16 zeros at
        # a time, so a 7-round ring takes a full chunk and a partial one.
        depth = 7
        assert GATHER_SLOTS // (400 * 4 + 16) == 5
        monkeypatch.setattr(protocol, "HISTORY_SLOTS", depth * 400 * 4)
        state = init_registry(SimParams(num_voters=400), rosters, streams(4))
        assert state.class_sizes.tolist() == [list(sizes) for sizes in self.SIZES]
        history = state.history
        assert history.depth == depth
        history.balances[:] = spread_balances(gen, history.balances.shape)
        stacked = state.class_tokens(depth)
        assert stacked.shape == (depth, len(self.SIZES), 4)
        assert state.class_tokens(3).tobytes() == stacked[:3].tobytes()
        for k, balances in enumerate(history.balances):
            direct = np.array([[balances[r][state._class_masks[r, c]].sum() for c in range(4)]
                               for r in range(len(self.SIZES))])
            assert stacked[k].tobytes() == direct.tobytes(), k


def test_run_round_by_hand_past_several_rings(monkeypatch):
    # A 3-deep ring over 7 rounds, with no harness: two full rings that
    # run_round checks, then a one-round tail that the last round checks.
    params = [SimParams(num_voters=20, num_items=7, p_informed=p, inflation_rate=0.05)
              for p in (0.2, 0.5, 0.9)]
    rosters = sample_rosters(params, streams(len(params)))
    monkeypatch.setattr(protocol, "HISTORY_SLOTS", 3 * 3 * 20)
    state = init_registry(params, rosters, streams(3, first=10))
    h = state.history
    assert h.depth == 3
    checked = []

    def record(state):
        checked.append((state.history.checked, state.round_index))
        check_rounds(state)

    monkeypatch.setattr(protocol, "check_rounds", record)
    views = ("decision_add", "n_eligible", "n_add")
    returned, values, balances = [], [], []
    for _ in range(7):
        rnd = run_round(state)
        returned.append(rnd)
        values.append([getattr(rnd, name).copy() for name in views])
        balances.append(state.balances.copy())
    assert checked == [(0, 3), (3, 6), (6, 7)]
    protocol.check_rounds(state)  # nothing is left to check
    assert checked == [(0, 3), (3, 6), (6, 7), (7, 7)] and h.checked == 7
    for k, after in enumerate(balances):
        direct = np.array([[after[r][state._class_masks[r, c]].sum() for c in range(4)]
                           for r in range(3)])
        assert h.tokens[k].tobytes() == direct.tobytes(), k
    # Rounds 3 and 6 took round 0's ring slot; its counts differ from theirs.
    assert not np.array_equal(values[3][1], values[0][1])
    assert not np.array_equal(values[6][1], values[0][1])
    # Each Round's views are its own history row, which no later round writes.
    for k, rnd in enumerate(returned):
        assert rnd.round_index == k
        for name, value in zip(views, values[k]):
            assert np.array_equal(getattr(rnd, name), value), (k, name)
            assert np.array_equal(getattr(h, name)[k], value), (k, name)


def settle_by_masks(before, rnd, r, growth):
    """Row r's balances after settlement and after inflation, by boolean masks."""
    settled, e = before.copy(), rnd.eligible[r]
    if 2 * rnd.n_add[r] != rnd.n_eligible[r]:
        won = e & (rnd.add[r] == rnd.decision_add[r])
        settled[won] += rnd.payout[r] - rnd.stake[r]
        settled[e & ~won] -= rnd.stake[r]
    inflated = settled.copy()
    inflated[e] *= growth
    return settled, inflated


def test_settlement_of_each_row_has_the_bits_of_the_row_run_alone():
    # Rows of five cells with their own inflation rates: row 1's engaged
    # voters intend but are priced out, row 2 ties every round, and every
    # voter of row 3 is eligible in round 0.
    n, rounds, deltas = 12, 4, (0.05, 0.5, 0.2, 0.0, 0.3)
    engaged_only = dict(p_vote_engaged=1.0, p_vote_disengaged=0.0)
    params = [SimParams(num_voters=n, num_items=rounds, inflation_rate=d, **kw)
              for d, kw in zip(deltas, ({}, engaged_only, SURE, engaged_only, {}))]
    rosters = [sample_rosters(params[:1], [RngStream(1)])[0], [(r < 6, True) for r in range(n)],
               [ADD, ADD, REJ, REJ] + [OUT] * (n - 4), [(True, r % 3 > 0) for r in range(n)],
               sample_rosters(params[4:], [RngStream(2)])[0]]
    start = np.random.default_rng(3).uniform(50.0, 150.0, (5, n))
    start[1] = np.where(np.arange(n) < 6, 0.5, 1000.0)
    start[3] = 100.0
    seeds = [10, 11, 12, 13, 14]
    block = init_registry(params, rosters, [RngStream(s) for s in seeds])
    block.balances[:] = start
    alone = [init_registry(p, [roster], [RngStream(s)])
             for p, roster, s in zip(params, rosters, seeds)]
    for r, state in enumerate(alone):
        state.balances[:] = start[r]
    columns = ("stake", "pre_settle", "post_settle", "participant_tokens", "total",
               "item_good", "decision_add", "n_intends", "n_eligible", "n_add")
    for k in range(rounds):
        before = block.balances.copy()
        rnd = one_round(block)
        if k == 0:
            assert rnd.intends[1].sum() == 6 and rnd.n_eligible[1] == 0
            assert rnd.n_eligible[2] == 4 and rnd.n_add[2] == 2
            assert rnd.eligible[3].all() and rnd.n_add[3] not in (0, n)
        assert 0 < rnd.n_eligible[0] and 0 < rnd.n_eligible[4]
        for r, state in enumerate(alone):
            one = one_round(state)
            settled, inflated = settle_by_masks(before[r], rnd, r, 1.0 + deltas[r])
            assert block.balances[r].tobytes() == inflated.tobytes(), (k, r)
            assert state.balances[0].tobytes() == inflated.tobytes(), (k, r)
            assert one.eligible[0].tolist() == rnd.eligible[r].tolist(), (k, r)
            for h, i in ((block.history, r), (state.history, 0)):
                assert h.post_settle[k, i] == np.add.reduce(settled), (k, r)
                assert h.participant_tokens[k, i] == np.add.reduce(settled * rnd.eligible[r])
                assert h.total[k, i] == np.add.reduce(inflated), (k, r)
            for name in columns:
                got = getattr(block.history, name)[k, r]
                assert got.tobytes() == getattr(state.history, name)[k, 0].tobytes(), (k, r, name)


class TestRequiredStake:
    def test_protocol_round_zero_identity(self):
        state = make_state(n=100, initial_tokens=100.0, initial_stake=5.0)
        assert required_stake(state, state.balances.sum(axis=1)) == pytest.approx([5.0])

    def test_protocol_tracks_total(self):
        state = make_state(n=100, initial_tokens=100.0, initial_stake=5.0)
        state.balances[0, 0] += 100.0  # total now 10100
        assert required_stake(state, state.balances.sum(axis=1)) == pytest.approx([5.05])

    def test_protocol_per_replication(self):
        params = SimParams(num_voters=2, initial_tokens=100.0, initial_stake=5.0)
        state = init_registry(params, [[(True, True)] * 2] * 3, streams(3))
        state.balances[1] = [300.0, 100.0]
        assert required_stake(state, state.balances.sum(axis=1)) == pytest.approx([5.0, 10.0, 5.0])

    def test_analysis_sigma_uses_uninformed_engaged_mean(self):
        params = SimParams(
            num_voters=4, stake_policy=AnalysisSigmaStake(sigma=0.05)
        )
        roster = [(True, True), (True, False), (True, False), (False, False)]
        state = init_registry(params, [roster], streams(1))
        assert required_stake(state, state.balances.sum(axis=1)) == pytest.approx([5.0])
        # only engaged-uninformed balances matter
        state.balances[0, 0] = 500.0
        assert required_stake(state, state.balances.sum(axis=1)) == pytest.approx([5.0])
        state.balances[0, 1] = 300.0
        assert required_stake(state, state.balances.sum(axis=1)) == pytest.approx([10.0])

    def test_analysis_sigma_falls_back_to_all_voters(self):
        params = SimParams(num_voters=2, stake_policy=AnalysisSigmaStake(sigma=0.1))
        state = init_registry(params, [[(True, True), (False, True)]], streams(1))
        assert required_stake(state, state.balances.sum(axis=1)) == pytest.approx([10.0])

    def test_analysis_sigma_per_replication(self):
        # Replication 0 has an engaged-uninformed voter, replication 1 none.
        params = SimParams(num_voters=2, stake_policy=AnalysisSigmaStake(sigma=0.1))
        state = init_registry(params, [[(True, False), (True, True)],
                                       [(True, True), (False, True)]], streams(2))
        state.balances[:] = [[50.0, 150.0], [50.0, 150.0]]
        assert required_stake(state, state.balances.sum(axis=1)) == pytest.approx([5.0, 10.0])

    def test_analysis_sigma_base_bit_for_bit(self):
        # Rows of 400 voters with 0 (the all-voter fallback), 1, 7, 8, 128,
        # 129 and 400 engaged-uninformed voters; the rest informed.
        gen = np.random.default_rng(5)
        ue_sizes = [0, 1, 7, 8, 128, 129, 400]
        rosters = [[(True, False)] * k + [(bool(gen.integers(2)), True) for _ in range(400 - k)]
                   for k in ue_sizes]
        rosters = [[roster[i] for i in gen.permutation(400)] for roster in rosters]
        params = SimParams(num_voters=400, stake_policy=AnalysisSigmaStake(sigma=0.07))
        state = init_registry(params, rosters, streams(len(rosters)))
        for _ in range(3):
            state.balances[:] = spread_balances(gen, state.balances.shape)
            stake = required_stake(state, state.balances.sum(axis=1))
            for r, k in enumerate(ue_sizes):
                base = state._class_masks[r, 2] if k else np.ones(400, dtype=bool)
                expected = state.stake_factor[r] * (state.balances[r][base].sum() / base.sum())
                assert stake[r].tobytes() == expected.tobytes(), k


class TestSettlement:
    """Tally and settlement, through whole rounds at delta 0."""

    def test_split_rule_arithmetic(self):
        state = make_state(n=60, roster=[ADD] * 35 + [REJ] * 25, inflation_rate=0.0, **SURE)
        rnd = one_round(state)
        assert rnd.decision_add[0]
        assert rnd.payout[0] == pytest.approx(300.0 / 35)
        assert np.allclose(state.balances[0, :35], 100.0 + 300.0 / 35 - 5.0)
        assert np.allclose(state.balances[0, 35:], 95.0)

    def test_conservation(self):
        roster = [REJ] * 20 + [ADD] * 25 + [OUT] * 5
        state = make_state(n=50, roster=roster, initial_stake=7.3, inflation_rate=0.0, **SURE)
        before = state.balances.sum(axis=1)
        rnd = one_round(state)
        assert rnd.stake[0] == pytest.approx(7.3)
        assert state.balances.sum(axis=1) == pytest.approx(before, rel=1e-9)

    @pytest.mark.parametrize("n_add, n_rej, decision_add", [
        (35, 25, True), (30, 30, False), (0, 0, False), (10, 40, False)],
        ids=["strict-majority-adds", "tie-rejects", "no-participant-rejects", "reject-majority"])
    def test_decision_and_payout_follow_the_strict_majority(self, n_add, n_rej, decision_add):
        roster = [ADD] * n_add + [REJ] * n_rej + [OUT] * 10
        state = make_state(n=len(roster), roster=roster, inflation_rate=0.0, **SURE)
        rnd = one_round(state)
        assert (rnd.n_add[0], rnd.n_eligible[0] - rnd.n_add[0], rnd.decision_add[0]) == (
            n_add, n_rej, decision_add)
        if n_add == n_rej:
            assert rnd.payout[0] == rnd.stake[0]
            assert state.balances.tolist() == [[100.0] * len(roster)]
            return
        n_win = max(n_add, n_rej)
        payout = 5.0 * (n_add + n_rej) / n_win
        assert rnd.payout[0] == pytest.approx(payout)
        won = np.array([decision_add] * n_add + [not decision_add] * n_rej)
        assert np.allclose(state.balances[0, :n_add + n_rej],
                           np.where(won, 100.0 + payout - 5.0, 95.0))
        assert state.balances[0, n_add + n_rej:].tolist() == [100.0] * 10

    def test_loser_holding_exactly_the_stake_ends_at_zero(self):
        # The stake is every voter's whole balance.
        state = make_state(n=3, roster=[ADD, ADD, REJ], initial_stake=100.0,
                           inflation_rate=0.0, **SURE)
        rnd = one_round(state)
        assert rnd.stake[0] == 100.0
        assert rnd.decision_add[0] and rnd.eligible[0, 2]
        assert state.balances.tolist() == [[150.0, 150.0, 0.0]]

    @pytest.mark.parametrize("side, decision_add", [(ADD, True), (REJ, False)])
    def test_unanimous_round_changes_no_balance(self, side, decision_add):
        state = make_state(n=40, roster=[side] * 40, inflation_rate=0.0, **SURE)
        assert one_round(state).decision_add[0] == decision_add
        assert state.balances.tolist() == [[100.0] * 40]

    def test_rows_settle_independently(self):
        # Row 0 adds 2 to 1, row 1 ties 1 to 1, row 2 rejects 2 to 1 and
        # row 3 has no participant.
        params = SimParams(num_voters=3, initial_stake=6.0, inflation_rate=0.0, **SURE)
        state = init_registry(params, [[ADD, ADD, REJ], [ADD, REJ, OUT], [REJ, ADD, REJ],
                                       [OUT] * 3], streams(4))
        rnd = one_round(state)
        assert rnd.decision_add.tolist() == [True, False, False, False]
        assert rnd.payout == pytest.approx([9.0, 6.0, 9.0, 6.0])
        assert np.allclose(state.balances,
                           [[103, 103, 94], [100, 100, 100], [103, 94, 103], [100, 100, 100]])


class TestInflation:
    def test_participants_inflate_at_their_rows_rate(self):
        params = [SimParams(num_voters=3, initial_stake=0.0, inflation_rate=d, **SURE)
                  for d in (0.02, 0.5)]
        state = init_registry(params, [[ADD, OUT, ADD], [OUT, ADD, REJ]], streams(2))
        one_round(state)
        assert state.balances.tolist() == [[100.0 * 1.02, 100.0, 100.0 * 1.02],
                                           [100.0, 150.0, 150.0]]

    def test_zero_delta_row_keeps_its_bits(self):
        # A zero stake makes every intending voter eligible, whatever its
        # balance. The delta-0 row keeps its balances' bits, whatever the
        # other row does.
        params = [SimParams(num_voters=5, initial_stake=0.0, inflation_rate=d, **SURE)
                  for d in (0.0, 0.5)]
        state = init_registry(params, [[ADD, REJ, ADD, OUT, ADD], [ADD, OUT, ADD, OUT, REJ]],
                              streams(2))
        state.balances[0] = [0.0, 1e-300, 3.3, 7e12, 1.0 / 3.0]
        before = state.balances[0].tobytes()
        rnd = one_round(state)
        assert rnd.eligible.tolist() == [[True, True, True, False, True],
                                         [True, False, True, False, True]]
        assert state.balances[0].tobytes() == before
        assert state.balances[1].tolist() == [150.0, 100.0, 150.0, 100.0, 150.0]

    def test_settlement_precedes_inflation(self):
        # Each row settles first, then inflates its voters' settled balances
        # at its own rate: row 0 adds 2 to 1, row 1 ties.
        params = [SimParams(num_voters=4, initial_stake=6.0, inflation_rate=d, **SURE)
                  for d in (0.5, 0.25)]
        state = init_registry(params, [[ADD, ADD, REJ, OUT], [ADD, REJ, OUT, OUT]], streams(2))
        one_round(state)
        assert state.balances.tolist() == [[154.5, 154.5, 141.0, 100.0],
                                           [125.0, 125.0, 100.0, 100.0]]

    def test_supply_grows_by_delta_times_participant_tokens(self):
        # Settlement only moves tokens among the participants, so a round
        # adds delta times the tokens they held when it began.
        state = make_state(n=50, inflation_rate=0.05, seed=11)
        state.balances[0] = np.linspace(1.0, 500.0, 50)
        before = state.balances[0].copy()
        voted = ids(one_round(state).eligible[0])
        assert 0 < len(voted) < 50
        assert state.balances.sum(axis=1) == pytest.approx(
            before.sum() + 0.05 * before[voted].sum(), rel=1e-12)


class TestRunRound:
    def test_add_decision_on_good_item(self):
        # 35 informed and 25 uninformed engaged voters, 40 disengaged
        roster = [(True, True)] * 35 + [(True, False)] * 25 + [(False, True)] * 40
        state = make_state(n=100, roster=roster, **SURE)
        rnd = one_round(state)
        assert ids(rnd.intends[0]) == list(range(60))
        assert ids(rnd.add[0]) == list(range(35))
        assert (rnd.n_add[0], rnd.n_eligible[0] - rnd.n_add[0], rnd.n_eligible[0]) == (35, 25, 60)
        assert rnd.item_good[0] and rnd.decision_add[0]
        assert rnd.round_index == 0
        assert correct_decisions(state).tolist() == [1]
        assert state.round_index == 1
        assert not (rnd.add & ~rnd.eligible).any()

    def test_zero_participation_rejects_bad_item(self):
        state = make_state(n=10, **{**SURE, "p_vote_engaged": 0.0, "p_item_good": 0.0})
        before = state.balances.copy()
        rnd = one_round(state)
        assert ids(rnd.intends[0]) == []
        assert not rnd.item_good[0] and not rnd.decision_add[0]
        assert correct_decisions(state).tolist() == [1]
        assert np.array_equal(state.balances, before)

    def test_vote_from_ineligible_voter_rejected(self):
        # Voter 3 is priced out and voters 4..9 never intend: none of them
        # votes, and only the 3 eligible voters consume vote draws.
        roster = [(True, True)] * 4 + [(False, True)] * 6
        state = make_state(n=10, roster=roster, seed=5, **SURE)
        state.balances[0, 3] = 1.0
        rnd = one_round(state)
        [rng] = state.rngs
        assert ids(rnd.eligible[0]) == [0, 1, 2]
        assert ids(rnd.add[0] | (rnd.eligible[0] & ~rnd.add[0])) == [0, 1, 2]
        replay = RngStream(5)
        replay.uniform(1 + 10 + 3)
        assert rng.uniform(1) == replay.uniform(1)

    def test_forced_abstention_recorded_and_uninflated(self):
        state = make_state(n=4, inflation_rate=0.02, **SURE)
        state.balances[0, 3] = 1.0  # below the required stake
        rnd = one_round(state)
        assert ids(rnd.intends[0]) == [0, 1, 2, 3]
        assert ids(rnd.intends[0] & ~rnd.eligible[0]) == [3]
        h = state.history
        assert (h.n_intends[0, 0], h.n_eligible[0, 0]) == (4, 3)
        assert not rnd.eligible[0, 3]
        assert state.balances[0, 3] == pytest.approx(1.0)
        assert np.allclose(state.balances[0, :3], 102.0)

    def test_tie_round_is_wealth_neutral(self):
        roster = [(True, True)] * 5 + [(True, False)] * 5
        state = make_state(n=10, roster=roster, inflation_rate=0.0, **SURE)
        rnd = one_round(state)
        assert ids(rnd.add[0]) == [0, 1, 2, 3, 4]
        assert ids(rnd.eligible[0] & ~rnd.add[0]) == [5, 6, 7, 8, 9]
        assert not rnd.decision_add[0]
        assert rnd.payout[0] == rnd.stake[0]
        assert state.balances.tolist() == [[100.0] * 10]


def test_the_stake_of_the_mean_balance_admits_every_voter_but_no_shortfall():
    # At t0 0.1 and N 3 the round-0 stake, 0.3 / 3 under a stake of the
    # initial tokens, rounds 1.4e-17 above every balance: only the relative
    # slack lets all three vote. A voter 1e-7 short is priced out.
    everyone = dict(initial_stake=0.1, p_vote_engaged=1.0, p_vote_disengaged=1.0)
    state = make_state(n=3, initial_tokens=0.1, **everyone)
    rnd = one_round(state)
    assert rnd.stake[0] > 0.1
    assert ids(rnd.eligible[0]) == [0, 1, 2]
    state = make_state(n=3, initial_tokens=0.1, **everyone)
    state.balances[0, 2] -= 1e-7
    assert ids(one_round(state).eligible[0]) == [0, 1]


@pytest.mark.parametrize("t0", [100.0, 1e-3], ids=["relative", "floor-of-1"])
@pytest.mark.parametrize("column,what", [("post_settle", "settlement zero-sum"),
                                         ("total", "inflation bookkeeping")])
def test_sums_agree_within_rel_tol(t0, column, what):
    """check_rounds' sums agree within REL_TOL x max(|expected|, 1): a sum of
    row 2 in round 1 moved 2 x that off fails, naming the row; 0.5 x passes."""
    params = [SimParams(num_voters=20, num_items=3, initial_tokens=t0,
                        initial_stake=t0 / 20, inflation_rate=0.05)] * 3
    rosters = sample_rosters(params, streams(3))
    for factor in (0.5, 2.0):
        state = init_registry(params, rosters, streams(3, first=10))
        h = state.history
        assert h.depth == 3
        for _ in range(2):
            run_round(state)
        wanted = (h.pre_settle if column == "post_settle"
                  else h.post_settle + state.inflation_rate * h.participant_tokens)[1, 2]
        getattr(h, column)[1, 2] = wanted + factor * protocol.REL_TOL * max(abs(wanted), 1.0)
        if factor < 1:
            check_rounds(state)
            continue
        with pytest.raises(InvariantViolation, match=f"^{what} at round 1 \\(seed 12\\)") as exc:
            check_rounds(state)
        assert exc.value.row == 2


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
