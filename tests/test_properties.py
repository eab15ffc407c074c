"""Property tests for the protocol invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tcrlab.harness import RunConfig, run_simulation
from tcrlab.metrics import METRIC_NAMES
from tcrlab.params import SimParams
from tcrlab.protocol import init_registry, settle, tally
from tcrlab.voters import RngStream, VoterClass, sample_roster

probability = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def settlement_cases(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    stake = draw(st.floats(min_value=0.01, max_value=50.0))
    sides = draw(st.lists(st.booleans(), min_size=0, max_size=n))
    voted = np.zeros((1, n), dtype=bool)
    voted[0, : len(sides)] = True
    add = np.zeros((1, n), dtype=bool)
    add[0, : len(sides)] = sides
    return n, np.array([stake]), add, voted & ~add


def settle_by_tally(state, stake, add, rej):
    n_add, n_rej = add.sum(axis=1), rej.sum(axis=1)
    if tally(n_add, n_rej)[0]:
        settle(state, stake, add, rej, n_add, n_rej)
    else:
        settle(state, stake, rej, add, n_rej, n_add)


@given(settlement_cases())
def test_settlement_is_zero_sum(case):
    n, stake, add, rej = case
    state = init_registry(
        SimParams(num_voters=n, initial_tokens=100.0, initial_stake=50.0),
        [[(True, True)] * n],
    )
    before = state.total_tokens
    settle_by_tally(state, stake, add, rej)
    assert np.all(abs(state.total_tokens - before) <= 1e-9 * np.maximum(before, 1.0))


@given(settlement_cases())
def test_tie_and_unanimous_rounds_are_wealth_neutral(case):
    n, stake, add, rej = case
    state = init_registry(
        SimParams(num_voters=n, initial_tokens=100.0, initial_stake=50.0),
        [[(True, True)] * n],
    )
    if add.sum() == rej.sum() or not add.any() or not rej.any():
        settle_by_tally(state, stake, add, rej)
        assert np.allclose(state.balances, 100.0, rtol=1e-9)


@st.composite
def sim_configs(draw):
    initial_tokens = draw(st.floats(min_value=1.0, max_value=1000.0))
    params = SimParams(
        num_voters=draw(st.integers(min_value=1, max_value=30)),
        num_items=draw(st.integers(min_value=1, max_value=15)),
        initial_tokens=initial_tokens,
        initial_stake=draw(st.floats(min_value=0.0, max_value=0.5)) * initial_tokens,
        inflation_rate=draw(st.floats(min_value=0.0, max_value=0.2)),
        p_engaged=draw(probability),
        p_informed=draw(probability),
        p_vote_engaged=draw(probability),
        p_vote_disengaged=draw(probability),
        p_correct_informed=draw(probability),
        p_correct_uninformed=draw(probability),
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return RunConfig(sim_params=params, base_seed=seed)


@settings(max_examples=60, deadline=None)
@given(sim_configs())
def test_full_run_invariants(config):
    # conservation, inflation bookkeeping and non-negativity are enforced
    # inside run_round itself; a finishing run already certifies them.
    trace = run_simulation(config)
    assert len(trace) == config.sim_params.num_items
    for r, (record, row) in enumerate(trace):
        row = dict(zip(METRIC_NAMES, row.tolist()))
        assert record.round_index == r
        assert row["lurp_clamped"] == max(0, row["lurp_raw"])
        tokens = sum(row[f"tokens_{cls.value}"] for cls in VoterClass)
        assert abs(tokens - row["t_total"]) <= 1e-9 * max(row["t_total"], 1.0)
        assert record.add_voters.isdisjoint(record.reject_voters)
        assert record.add_voters | record.reject_voters == record.inflation_applied_to
        assert (record.add_voters | record.reject_voters).isdisjoint(
            record.forced_abstentions
        )
        assert record.intended_participants == (
            record.inflation_applied_to | record.forced_abstentions
        )
    if config.sim_params.inflation_rate == 0.0:
        totals = [row[METRIC_NAMES.index("t_total")] for _, row in trace]
        assert max(totals) - min(totals) <= 1e-9 * max(totals)


@settings(max_examples=60, deadline=None)
@given(sim_configs())
def test_runs_are_deterministic(config):
    a = [row for _, row in run_simulation(config)]
    b = [row for _, row in run_simulation(config)]
    assert np.array_equal(a, b, equal_nan=True)


@given(
    st.integers(min_value=1, max_value=50),
    probability,
    probability,
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_roster_classes_partition_voters(n, p_e, p_i, seed):
    params = SimParams(num_voters=n, p_engaged=p_e, p_informed=p_i)
    roster = sample_roster(params, RngStream(seed))
    state = init_registry(params, [roster])
    tokens = state.class_tokens()[0]
    assert state.class_sizes.sum() == n
    assert tokens.sum() == state.total_tokens[0]
    # (is_engaged, is_informed) of each class, in VoterClass order: IE, ID, UE, UD.
    flags = [(True, True), (False, True), (True, False), (False, False)]
    for c, cls_flags in enumerate(flags):
        in_class = [(e, i) == cls_flags for e, i in roster.tolist()]
        assert sum(in_class) == state.class_sizes[0, c]
        assert tokens[c] == state.balances[0][in_class].sum()
