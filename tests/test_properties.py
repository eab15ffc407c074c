"""Property tests for the protocol invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tcrlab.harness import run_simulation
from tcrlab.metrics import METRIC_NAMES
from tcrlab.params import SimParams
from tcrlab.protocol import init_registry, run_round
from tcrlab.voters import CLASSES, RngStream, sample_rosters

probability = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def one_row_rounds(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    params = SimParams(
        num_voters=n,
        initial_stake=draw(st.floats(min_value=0.0, max_value=100.0)),
        inflation_rate=draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5))),
        p_vote_engaged=draw(probability),
        p_vote_disengaged=draw(probability),
        p_correct_informed=draw(probability),
        p_correct_uninformed=draw(probability),
        p_item_good=draw(probability),
    )
    roster = draw(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=n, max_size=n))
    balances = draw(st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=n, max_size=n))
    return params, roster, balances, draw(st.integers(min_value=0, max_value=2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(one_row_rounds())
def test_round_moves_only_participants_and_settles_zero_sum(case):
    params, roster, balances, seed = case
    state = init_registry(params, [roster])
    state.balances[0] = balances
    before = state.balances[0].copy()
    rnd = run_round(state, [RngStream(seed)])
    after = state.balances[0]
    voted = rnd.eligible[0]
    n_add, n_reject = rnd.n_add[0], rnd.n_eligible[0] - rnd.n_add[0]
    assert after[~voted].tobytes() == before[~voted].tobytes()
    if params.inflation_rate == 0.0:
        assert abs(after.sum() - before.sum()) <= 1e-9 * max(before.sum(), 1.0)
    if n_add == n_reject or 0 in (n_add, n_reject):
        # A tie or a unanimous round moves no stake; only inflation is left.
        inflated = before * np.where(voted, 1.0 + params.inflation_rate, 1.0)
        assert np.allclose(after, inflated, rtol=1e-9, atol=0.0)


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
    return params, seed


@settings(max_examples=60, deadline=None)
@given(sim_configs())
def test_full_run_invariants(config):
    # conservation, inflation bookkeeping and non-negativity are enforced
    # inside run_round itself; a finishing run already certifies them.
    params, seed = config
    trace = run_simulation(params, seed)
    assert len(trace.rows) == params.num_items
    assert trace.class_sizes.sum() == params.num_voters
    for row in trace.rows:
        row = dict(zip(METRIC_NAMES, row.tolist()))
        assert row["lurp_clamped"] == max(0, row["lurp_raw"])
        tokens = sum(row[f"tokens_{cls}"] for cls in CLASSES)
        assert abs(tokens - row["t_total"]) <= 1e-9 * max(row["t_total"], 1.0)
    c = trace.rounds
    assert all(len(column) == params.num_items for column in c.values())
    assert (0 <= c["n_add"]).all() and (c["n_add"] <= c["n_eligible"]).all()
    assert (c["n_eligible"] <= c["n_intends"]).all()
    assert (c["n_intends"] <= params.num_voters).all()
    assert np.array_equal(c["decision_add"], c["n_add"] > c["n_eligible"] - c["n_add"])
    assert np.array_equal(c["v_correct"], np.cumsum(c["decision_add"] == c["item_good"]))
    assert np.array_equal(trace.rows[:, METRIC_NAMES.index("t_total")], c["total"])
    # The same run, round by round: its masks give the trace's counts.
    rng = RngStream(seed)
    state = init_registry(params, sample_rosters([params], [rng]))
    for k in range(params.num_items):
        rnd = run_round(state, [rng])
        intends, eligible, add = rnd.intends[0], rnd.eligible[0], rnd.add[0]
        assert not (add & ~eligible).any() and not (eligible & ~intends).any()
        forced = intends & ~eligible
        assert forced.sum() == c["n_intends"][k] - c["n_eligible"][k]
        assert (intends.sum(), eligible.sum(), add.sum()) == (
            c["n_intends"][k], c["n_eligible"][k], c["n_add"][k])
        assert (rnd.item_good[0], rnd.decision_add[0]) == (
            c["item_good"][k], c["decision_add"][k])
        assert rnd.stake[0] == c["stake"][k]
    if params.inflation_rate == 0.0:
        totals = trace.rows[:, METRIC_NAMES.index("t_total")]
        assert max(totals) - min(totals) <= 1e-9 * max(totals)


@settings(max_examples=60, deadline=None)
@given(sim_configs())
def test_runs_are_deterministic(config):
    a = run_simulation(*config).rows
    b = run_simulation(*config).rows
    assert np.array_equal(a, b, equal_nan=True)


@given(
    st.integers(min_value=1, max_value=50),
    probability,
    probability,
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_roster_classes_partition_voters(n, p_e, p_i, seed):
    params = SimParams(num_voters=n, p_engaged=p_e, p_informed=p_i)
    roster = sample_rosters([params], [RngStream(seed)])[0]
    state = init_registry(params, [roster])
    state.history.balances[0] = state.balances
    tokens = state.class_tokens(1)[0, 0]
    assert state.class_sizes.sum() == n
    assert tokens.sum() == state.balances.sum(axis=1)[0]
    # (is_engaged, is_informed) of each class, in CLASSES order: IE, ID, UE, UD.
    flags = [(True, True), (False, True), (True, False), (False, False)]
    for c, cls_flags in enumerate(flags):
        in_class = [(e, i) == cls_flags for e, i in roster.tolist()]
        assert sum(in_class) == state.class_sizes[0, c]
        assert tokens[c] == state.balances[0][in_class].sum()
