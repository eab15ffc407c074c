"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The statistical criteria run on a shared grid of 500-replication cells
(p_informed x inflation_rate) computed once per session.
"""

import csv
import json
import time

import numpy as np
import pytest

from tcrlab.analysis import AnalysisParams, tokens_informed_engaged
from tcrlab.cli import main
from tcrlab.harness import METRIC_NAMES, derive_seed, replicate, validate_against_analysis
from tcrlab.params import SimParams
from tcrlab.protocol import init_registry, run_round
from tcrlab.voters import RngStream, sample_rosters

IDX = {name: i for i, name in enumerate(METRIC_NAMES)}
CLASSES = ("IE", "ID", "UE", "UD")

REPLICATIONS = 500
BASE_SEED = 20260823
GRID_CELLS = {
    (0.1, 0.0): 0,
    (0.1, 0.02): 1,
    (0.5, 0.0): 2,
    (0.5, 0.02): 3,
    (0.9, 0.0): 4,
    (0.9, 0.02): 5,
    (0.9, 0.05): 6,
}


@pytest.fixture(scope="session")
def grid():
    """(p_informed, inflation_rate) -> (reps, 50, metrics) array, 500 reps each."""
    out = {}
    for (p_i, delta), cell_index in GRID_CELLS.items():
        params = SimParams(p_informed=p_i, inflation_rate=delta)
        out[(p_i, delta)] = replicate(
            params, REPLICATIONS, BASE_SEED, cell_index=cell_index
        )
    return out


def check(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{name}]: {status} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def finals(grid, p_i, delta, metric):
    return grid[(p_i, delta)][:, -1, IDX[metric]]


def paired_bootstrap_ci(a, b, n_boot=2000, seed=0):
    """Percentile 95% CI for the mean of (a - b), paired by replication."""
    mask = ~(np.isnan(a) | np.isnan(b))
    d = a[mask] - b[mask]
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.integers(0, len(d), size=(n_boot, len(d)))
    means = d[idx].mean(axis=1)
    return float(np.percentile(means, 2.5)), float(np.percentile(means, 97.5))


def bootstrap_ci(a, b, n_boot=2000, seed=0):
    """Percentile 95% CI for mean(a) - mean(b), resampling a and b independently.

    For samples from different cells, whose seeds are unrelated, so that
    pairing by replication index would mean nothing.
    """
    a = a[~np.isnan(a)]
    b = b[~np.isnan(b)]
    rng = np.random.Generator(np.random.PCG64(seed))
    means_a = a[rng.integers(0, len(a), size=(n_boot, len(a)))].mean(axis=1)
    means_b = b[rng.integers(0, len(b), size=(n_boot, len(b)))].mean(axis=1)
    diffs = means_a - means_b
    return float(np.percentile(diffs, 2.5)), float(np.percentile(diffs, 97.5))


def class_counts(grid, p_i, delta):
    """(replications, 4) voters per class, in CLASSES order, for one grid cell.

    The grid holds no counts, so each replication's roster is drawn again
    from the head of its stream, as the draw-order contract lays it out.
    A class must be empty exactly where its wealth is NaN; a drift in the
    contract fails here.
    """
    params = SimParams(p_informed=p_i, inflation_rate=delta)
    cell_index = GRID_CELLS[(p_i, delta)]
    counts = np.empty((REPLICATIONS, len(CLASSES)), dtype=int)
    for rep in range(REPLICATIONS):
        rng = RngStream(derive_seed(BASE_SEED, cell_index, rep))
        engaged, informed = sample_rosters([params], [rng])[0].T
        counts[rep] = [
            np.sum(informed & engaged),
            np.sum(informed & ~engaged),
            np.sum(~informed & engaged),
            np.sum(~informed & ~engaged),
        ]
    for c, cls in enumerate(CLASSES):
        empty = np.isnan(finals(grid, p_i, delta, f"wealth_{cls}"))
        assert np.array_equal(counts[:, c] == 0, empty), (
            f"replayed roster disagrees with the grid on empty {cls} classes "
            f"at cell ({p_i}, {delta})"
        )
    return counts


def worst_pairwise_gap(values):
    return max(
        abs(a - b) / max(abs(a), abs(b))
        for i, a in enumerate(values)
        for b in values[i + 1:]
    )


def _fmt(per_class):
    return ", ".join(f"{cls} {v:.4f}" for cls, v in per_class.items())


ORACLE = AnalysisParams(
    t0=100.0, sigma=0.05, delta=0.02, n_ie=30, n_ue=20, n_id=30, n_ud=20
)


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    report = validate_against_analysis(ORACLE, 50)
    elapsed = time.perf_counter() - start
    worst = max(report.max_rel_error.values())
    check(
        1,
        "oracle equivalence",
        report.passed and worst <= 1e-9 and elapsed < 1.0,
        f"max rel err {worst:.3e}, runtime {elapsed:.3f}s",
    )


def test_criterion_2_closed_form_consistency():
    t_ie = ORACLE.t0
    t_ue = ORACLE.t0
    worst = 0.0
    worst_bound_excess = -np.inf
    ratio = ORACLE.n_ue / ORACLE.n_ie
    for k in range(1, 1001):
        t_ie = (t_ie + t_ue * ORACLE.sigma * ratio) * (1.0 + ORACLE.delta)
        t_ue = t_ue * (1.0 - ORACLE.sigma) * (1.0 + ORACLE.delta)
        closed = tokens_informed_engaged(ORACLE, k)
        worst = max(worst, abs(closed - t_ie) / t_ie)
        approx = ORACLE.t0 * (1.0 + ORACLE.delta) ** k * (1.0 + ratio)
        bound = (
            ORACLE.t0 * (1.0 + ORACLE.delta) ** k * ratio
            * (1.0 - ORACLE.sigma) ** k
        )
        # the identity |approx - closed| == bound holds exactly; allow
        # rounding slack proportional to the magnitude of the terms
        slack = 1e-9 * approx
        worst_bound_excess = max(
            worst_bound_excess, (abs(approx - closed) - bound - slack) / approx
        )
    check(
        2,
        "closed-form internal consistency",
        worst <= 1e-12 and worst_bound_excess <= 0.0,
        f"recursion rel err {worst:.3e}, bound excess {worst_bound_excess:.3e}",
    )


def test_criterion_3_conservation_suite(grid):
    # settlement zero-sum, inflation bookkeeping and non-negativity are
    # asserted inside run_round at 1e-9 on every round of every replication;
    # the grid completing certifies them. Additionally: no inflation means a
    # constant total supply for all 50 rounds.
    worst_drift = 0.0
    for p_i in (0.1, 0.5, 0.9):
        totals = grid[(p_i, 0.0)][:, :, IDX["t_total"]]
        drift = np.max(np.abs(totals - totals[:, :1])) / 10000.0
        worst_drift = max(worst_drift, drift)
    check(
        3,
        "conservation suite",
        worst_drift <= 1e-9,
        f"max relative drift of total at delta=0: {worst_drift:.3e}",
    )


def test_criterion_4_low_information_regime(grid):
    fracs = {}
    for delta in (0.0, 0.02):
        clamped = grid[(0.1, delta)][:, :, IDX["lurp_clamped"]]
        fracs[delta] = float(np.mean(np.all(clamped == 0, axis=1)))
    check(
        4,
        "low-information value stays at zero",
        all(f >= 0.95 for f in fracs.values()),
        f"all-zero fraction delta=0: {fracs[0.0]:.3f}, delta=0.02: {fracs[0.02]:.3f}",
    )


def test_criterion_5_high_information_regime(grid):
    means = {
        delta: float(np.mean(finals(grid, 0.9, delta, "lurp_raw")))
        for delta in (0.0, 0.02)
    }
    check(
        5,
        "high-information linear value growth",
        all(m >= 45.0 for m in means.values()),
        f"mean final value delta=0: {means[0.0]:.2f}, delta=0.02: {means[0.02]:.2f}",
    )


def test_criterion_6_engagement_incentive(grid):
    w_ie = finals(grid, 0.9, 0.02, "wealth_IE")
    w_id = finals(grid, 0.9, 0.02, "wealth_ID")
    w_ue = finals(grid, 0.9, 0.02, "wealth_UE")
    lo_id, _ = paired_bootstrap_ci(w_ie, w_id, seed=601)
    lo_ue, _ = paired_bootstrap_ci(w_ie, w_ue, seed=602)
    premium_infl = float(np.nanmean(w_ie)) / float(np.nanmean(w_id))
    premium_base = float(
        np.nanmean(finals(grid, 0.9, 0.0, "wealth_IE"))
    ) / float(np.nanmean(finals(grid, 0.9, 0.0, "wealth_ID")))
    check(
        6,
        "engagement incentive",
        lo_id > 0 and lo_ue > 0 and premium_infl > premium_base,
        f"CI lower bounds {lo_id:.4f}/{lo_ue:.4f}, "
        f"premium {premium_infl:.3f} vs {premium_base:.3f}",
    )


def test_criterion_7_high_inflation_effect(grid):
    """At p_informed 0.9, 5% inflation lifts the engaged uninformed (UE)
    relative to the informed disengaged (ID): the per-replication ratio
    wealth_UE / wealth_ID has a higher mean at delta 0.05 than at delta 0.
    The factor value / T cancels, so the ratio is the per-voter token ratio.
    Measured: 0.0241 at delta 0, 0.0472 at delta 0.05.

    The ratio does not reach 1: UE do not overtake ID, and the model says
    they cannot. The stake is initial_stake / initial_tokens = 0.05 of the
    mean balance, and by the closed form (tokens_uninformed_engaged) UE
    tokens scale by (1 - 0.05) * (1 + 0.05) = 0.9975 < 1 a round while ID
    tokens stay at t0; asymptotic_classification agrees. Measured at delta
    0.05: mean final wealth 0.0095 for UE against 0.1996 for ID, or 8.2
    against 173 tokens per voter. Pricing out is not the cause: inflation
    lowers the UE share of intents lost to forced abstention from 39% to
    25%, and under AnalysisSigmaStake(0.05), which indexes the stake to the
    UE balance itself, UE still end below ID (0.156 against 0.198 over 200
    replications).
    """
    w_ue = finals(grid, 0.9, 0.05, "wealth_UE")
    w_id = finals(grid, 0.9, 0.05, "wealth_ID")
    ratios = {
        delta: finals(grid, 0.9, delta, "wealth_UE")
        / finals(grid, 0.9, delta, "wealth_ID")
        for delta in (0.0, 0.05)
    }
    lo, hi = bootstrap_ci(ratios[0.05], ratios[0.0], seed=701)
    check(
        7,
        "high inflation lifts engaged uninformed against informed disengaged",
        lo > 0,
        f"mean UE {np.nanmean(w_ue):.4f} vs ID {np.nanmean(w_id):.4f} at delta=0.05; "
        f"mean UE/ID ratio {np.nanmean(ratios[0.0]):.4f} -> "
        f"{np.nanmean(ratios[0.05]):.4f}, CI of the rise [{lo:.4f}, {hi:.4f}]",
    )


def test_criterion_8_neutral_regime(grid):
    """At p_informed 0.5 and no inflation the four classes end with similar
    wealth at the cross-replication mean state,
    (mean lurp_clamped / mean t_total) * (sum of class tokens / sum of
    class voters), which has no covariance term. Measured: IE 0.0947,
    ID 0.0954, UE 0.0992, UD 0.0965, a worst gap of 0.045.

    The per-replication wealth means are not similar, and an exact symmetry
    says they cannot be. Swapping the informed and uninformed labels and
    flipping each item's polarity leaves every vote, tally and balance as it
    was and negates lurp_raw. So IE and UE hold the same expected tokens per
    voter, as do ID and UD, yet
    E[wealth_IE] - E[wealth_UE] = E[lurp_raw * t_IE / (n_IE * T)]: the
    covariance of value and informed tokens, built into the per-replication
    metric. Measured: IE 0.150, ID 0.111, UE 0.025, UD 0.076, a gap of
    0.833, and every class has a median of 0.
    """
    cell = grid[(0.5, 0.0)][:, -1]
    counts = class_counts(grid, 0.5, 0.0)
    value_per_token = cell[:, IDX["lurp_clamped"]].mean() / cell[:, IDX["t_total"]].mean()
    at_mean_state = {
        cls: float(
            value_per_token * cell[:, IDX[f"tokens_{cls}"]].sum() / counts[:, c].sum()
        )
        for c, cls in enumerate(CLASSES)
    }
    worst = worst_pairwise_gap(list(at_mean_state.values()))
    means = {
        cls: float(np.nanmean(finals(grid, 0.5, 0.0, f"wealth_{cls}")))
        for cls in CLASSES
    }
    check(
        8,
        "neutral regime wealth parity",
        worst <= 0.25,
        f"at mean state {_fmt(at_mean_state)}, worst gap {worst:.3f}; "
        f"per-replication means {_fmt(means)}, "
        f"worst gap {worst_pairwise_gap(list(means.values())):.3f}",
    )


def test_criterion_9_determinism(tmp_path):
    sim_a, sim_b = tmp_path / "sa", tmp_path / "sb"
    assert main(["simulate", "--seed", "123", "--out", str(sim_a)]) == 0
    assert main(["simulate", "--seed", "123", "--out", str(sim_b)]) == 0
    sim_ok = (
        (sim_a / "trace.csv").read_bytes() == (sim_b / "trace.csv").read_bytes()
        and (sim_a / "summary.json").read_bytes() == (sim_b / "summary.json").read_bytes()
    )

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "grid": {"p_informed": [0.1, 0.9], "inflation_rate": [0.0, 0.02]},
        "replications": 10,
        "base_seed": 77,
        "sim_params": {"num_items": 20},
    }))
    j1, j8 = tmp_path / "j1", tmp_path / "j8"
    assert main(["sweep", str(spec), "--jobs", "1", "--out", str(j1)]) == 0
    assert main(["sweep", str(spec), "--jobs", "8", "--out", str(j8)]) == 0
    sweep_ok = (
        (j1 / "aggregate.csv").read_bytes() == (j8 / "aggregate.csv").read_bytes()
        and (j1 / "aggregate.json").read_bytes() == (j8 / "aggregate.json").read_bytes()
    )
    check(
        9,
        "byte-identical reruns",
        sim_ok and sweep_ok,
        f"simulate identical: {sim_ok}, sweep jobs 1 vs 8 identical: {sweep_ok}",
    )


def test_criterion_10_degenerate_reductions():
    params = SimParams(
        num_items=1000,
        p_vote_engaged=1.0,
        p_vote_disengaged=0.0,
        p_correct_informed=1.0,
        p_correct_uninformed=0.0,
    )
    roster = (
        [(True, True)] * 30 + [(True, False)] * 20
        + [(False, True)] * 25 + [(False, False)] * 25
    )
    engaged = np.array([e for e, _ in roster])
    informed = np.array([i for _, i in roster])
    # A supplied roster consumes no draws, so the rounds draw from the
    # stream's start, as a run seeded 55 with this roster would.
    rng = RngStream(55)
    state = init_registry(params, [roster], [rng])
    ok = True
    for _ in range(params.num_items):
        rnd = run_round(state)
        add, reject = rnd.add[0], rnd.eligible[0] & ~rnd.add[0]
        # engaged always intend to vote, disengaged never do
        ok = ok and np.array_equal(rnd.intends[0], engaged)
        correct_voters, incorrect_voters = (add, reject) if rnd.item_good[0] else (reject, add)
        # informed voters always correct, uninformed always incorrect
        ok = ok and np.array_equal(correct_voters, rnd.eligible[0] & informed)
        ok = ok and np.array_equal(incorrect_voters, rnd.eligible[0] & ~informed)
        if not ok:
            break
    ok = ok and state.round_index == 1000
    check(
        10,
        "degenerate-parameter reductions",
        ok,
        f"verified over {state.round_index} rounds",
    )
