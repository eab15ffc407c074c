import math

import numpy as np
import pytest

from tcrlab.metrics import METRIC_NAMES, class_wealth, lurp, metric_rows
from tcrlab.params import SimParams
from tcrlab.protocol import check_rounds, init_registry, run_round
from tcrlab.voters import CLASSES, RngStream

TOKENS = [f"tokens_{cls}" for cls in CLASSES]
WEALTH = [f"wealth_{cls}" for cls in CLASSES]


def snapshot(state, v_correct=None):
    """The metric rows of a block's current state; ``v_correct`` defaults to
    each row's correct decisions in the rounds its history records."""
    if v_correct is None:
        h, k = state.history, state.round_index
        v_correct = (h.decision_add[:k] == h.item_good[:k]).sum(axis=0)
    tokens = np.array([[balances[mask].sum() for mask in masks]
                       for balances, masks in zip(state.balances, state._class_masks)])
    return metric_rows(state.clamp_value, state.class_sizes, v_correct,
                       state.round_index, state.balances.sum(axis=1), tokens)


def named(rows):
    """The metrics of a one-replication block's snapshot, by name."""
    [row] = rows.tolist()
    return dict(zip(METRIC_NAMES, row))


class TestLurp:
    def test_direct(self):
        assert lurp(40, 10) == 30

    def test_empty_history(self):
        assert lurp(0, 0) == 0

    def test_all_correct(self):
        assert lurp(50, 0) == 50

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            lurp(-1, 0)


class TestClassWealth:
    def test_direct_arithmetic(self):
        assert class_wealth(50, 20000.0, 6000.0, 30) == pytest.approx(0.5)

    def test_zero_value_gives_zero_everywhere(self):
        assert class_wealth(0, 10000.0, 2500.0, 25) == 0.0

    def test_empty_class_is_absent(self):
        assert math.isnan(class_wealth(50, 10000.0, 0.0, 0))

    def test_nonpositive_total_rejected(self):
        with pytest.raises(ValueError):
            class_wealth(50, 0.0, 100.0, 1)


def mixed_state(**kwargs):
    params = SimParams(num_voters=4, **kwargs)
    roster = [(True, True), (False, True), (True, False), (False, False)]
    return init_registry(params, [roster], [RngStream(0)])


class TestSnapshot:
    def test_round_zero(self):
        state = mixed_state()
        row = named(snapshot(state))
        assert row["lurp_raw"] == 0 and row["lurp_clamped"] == 0
        assert row["t_total"] == pytest.approx(400.0)
        assert state.class_sizes.tolist() == [[1, 1, 1, 1]]
        for t, w in zip(TOKENS, WEALTH):
            assert row[t] == pytest.approx(100.0)
            assert row[w] == 0.0

    def test_partition_identity(self):
        state = mixed_state()
        state.balances[0, 0] = 123.456
        row = named(snapshot(state))
        assert sum(row[t] for t in TOKENS) == pytest.approx(row["t_total"], rel=1e-9)
        assert row["tokens_IE"] == 123.456
        assert state.class_sizes.sum() == 4

    def test_inflation_bookkeeping_after_unanimous_round(self):
        state = mixed_state(
            inflation_rate=0.02, p_vote_engaged=1.0, p_vote_disengaged=1.0,
            p_correct_informed=1.0, p_correct_uninformed=1.0, p_item_good=1.0,
        )
        run_round(state)
        check_rounds(state)
        row = named(snapshot(state))
        # unanimous settlement is neutral; inflation adds 2% of participant tokens
        assert row["t_total"] == pytest.approx(400.0 + 0.02 * 400.0, rel=1e-9)
        assert row["lurp_raw"] == 1

    def test_clamping(self):
        state = mixed_state()
        state.round_index = 3  # three incorrect decisions
        row = named(snapshot(state, np.array([0])))
        assert row["lurp_raw"] == -3
        assert row["lurp_clamped"] == 0
        for w in WEALTH:
            assert row[w] == 0.0

    def test_raw_value_used_when_clamp_disabled(self):
        state = mixed_state(clamp_value=False)
        state.round_index = 2  # two incorrect decisions
        row = named(snapshot(state, np.array([0])))
        assert row["wealth_IE"] == pytest.approx((-2 / 400.0) * 100.0)

    def test_idempotent(self):
        state = mixed_state()
        first = snapshot(state)
        second = snapshot(state)
        assert first.shape == (1, len(METRIC_NAMES))
        assert np.array_equal(first, second)

    def test_rows_are_replications(self):
        # Row 1 holds the mixed roster, row 0 one with only engaged voters.
        params = SimParams(num_voters=4)
        state = init_registry(params, [[(True, True), (True, True), (True, False), (True, False)],
                                       [(True, True), (False, True), (True, False), (False, False)]],
                              [RngStream(0), RngStream(1)])
        state.balances[1] = [10.0, 20.0, 30.0, 40.0]
        state.round_index = 5
        rows = snapshot(state, np.array([2, 5]))
        assert rows.shape == (2, len(METRIC_NAMES))
        assert rows[:, 0].tolist() == [-1.0, 5.0]
        assert rows[:, 1].tolist() == [0.0, 5.0]
        assert rows[:, 2].tolist() == [400.0, 100.0]
        assert rows[0, 3:7].tolist() == [200.0, 0.0, 200.0, 0.0]
        assert rows[1, 3:7].tolist() == [10.0, 20.0, 30.0, 40.0]
        assert rows[0, [7, 9]].tolist() == [0.0, 0.0]
        assert np.isnan(rows[0, [8, 10]]).all()
        assert rows[1, 7:].tolist() == pytest.approx([0.5, 1.0, 1.5, 2.0])


def test_metric_layout():
    assert METRIC_NAMES == (
        "lurp_raw", "lurp_clamped", "t_total",
        "tokens_IE", "tokens_ID", "tokens_UE", "tokens_UD",
        "wealth_IE", "wealth_ID", "wealth_UE", "wealth_UD",
    )
