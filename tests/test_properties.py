"""Property tests for the protocol invariants."""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcrlab.harness import SweepSpec, replicate, run_simulation, run_sweep
from tcrlab.metrics import METRIC_NAMES
from tcrlab.params import AnalysisSigmaStake, ProtocolStake, SimParams
from tcrlab.protocol import check_rounds, init_registry, run_round
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
    state = init_registry(params, [roster], [RngStream(seed)])
    state.balances[0] = balances
    before = state.balances[0].copy()
    rnd = run_round(state)
    check_rounds(state)
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
    state = init_registry(params, sample_rosters([params], [rng]), [rng])
    for k in range(params.num_items):
        rnd = run_round(state)
        check_rounds(state)
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
    state = init_registry(params, [roster], [RngStream(seed)])
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


@st.composite
def replicated_cells(draw):
    """(params, replications, base seed) of a small cell, under either stake
    policy, from one voter and up; blocks of 16 rows and more read ahead."""
    initial_tokens = draw(st.floats(min_value=1.0, max_value=1000.0))
    params = SimParams(
        num_voters=draw(st.integers(min_value=1, max_value=12)),
        num_items=draw(st.integers(min_value=0, max_value=12)),
        initial_tokens=initial_tokens,
        initial_stake=draw(st.floats(min_value=0.0, max_value=0.5)) * initial_tokens,
        inflation_rate=draw(st.floats(min_value=0.0, max_value=0.2)),
        p_engaged=draw(probability),
        p_informed=draw(probability),
        p_vote_engaged=draw(probability),
        p_vote_disengaged=draw(probability),
        p_correct_informed=draw(probability),
        p_correct_uninformed=draw(probability),
        p_item_good=draw(probability),
        clamp_value=draw(st.booleans()),
        stake_policy=draw(st.one_of(
            st.just(ProtocolStake()),
            st.floats(min_value=0.01, max_value=0.99).map(AnalysisSigmaStake))),
    )
    return (params, draw(st.integers(min_value=1, max_value=20)),
            draw(st.integers(min_value=0, max_value=2**32 - 1)))


SCALED = [METRIC_NAMES.index(name) for name in ("t_total", *(f"tokens_{c}" for c in CLASSES))]
UNSCALED = [i for i in range(len(METRIC_NAMES)) if i not in SCALED]


@settings(max_examples=15, deadline=None)
@given(replicated_cells(), st.integers(min_value=-40, max_value=40))
# At 2^-30 the stake is about 4e-8: an absolute eligibility slack would admit everyone.
@example((SimParams(num_voters=5, num_items=20, initial_stake=40.0, inflation_rate=0.05), 17, 3),
         -30)
@example((SimParams(num_voters=1, num_items=6, stake_policy=AnalysisSigmaStake(0.5)), 3, 1), 40)
@example((SimParams(num_voters=4, num_items=0), 2, 0), -40)
def test_scaling_the_tokens_by_a_power_of_two_scales_only_the_token_columns(cell, k):
    # Every token amount, the stake included, is 2^k times its unscaled
    # value, exactly; the eligibility test and every check are relative.
    params, replications, base_seed = cell
    factor = 2.0 ** k
    scaled = replace(params, initial_tokens=params.initial_tokens * factor,
                     initial_stake=params.initial_stake * factor)
    rows = replicate(params, replications, base_seed)
    rows_scaled = replicate(scaled, replications, base_seed)
    assert (rows[..., SCALED] * factor).tobytes() == rows_scaled[..., SCALED].tobytes()
    assert rows[..., UNSCALED].tobytes() == rows_scaled[..., UNSCALED].tobytes()


@settings(max_examples=15, deadline=None)
@given(replicated_cells(), st.integers(min_value=0, max_value=8),
       st.integers(min_value=0, max_value=8))
@example((SimParams(num_voters=1, stake_policy=AnalysisSigmaStake(0.2)), 20, 4), 0, 5)
def test_a_longer_run_starts_with_the_shorter_one(cell, k, m):
    # A round draws nothing for a later one, and a read-ahead block rewinds
    # what it drew past its last round, so K + M rounds begin with K.
    params, replications, base_seed = cell
    short, long = (replace(params, num_items=rounds) for rounds in (k, k + m))
    assert (replicate(long, replications, base_seed)[:, :k].tobytes()
            == replicate(short, replications, base_seed).tobytes())
    # The aggregate text of rounds < K too, whichever blocks each job count cuts.
    prefix = run_sweep(SweepSpec(grid=(("num_items", (k,)),), replications=replications,
                                 base_seed=base_seed, base_params=short)).cells[0].csv_rows
    for jobs in (1, 2):
        spec = SweepSpec(grid=(("num_items", (k + m,)),), replications=replications,
                         base_seed=base_seed, base_params=long)
        rows = run_sweep(spec, jobs=jobs).cells[0].csv_rows.split("\n")[1:]
        assert "".join("\n" + row for row in rows[:k * len(METRIC_NAMES)]) == prefix
