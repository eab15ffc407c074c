"""Reference engine the benchmark checks tcrlab's outputs against.

Written from the contracts the package documents, not from its code: the
draw order in ``tcrlab/voters.py``, the round order in
``tcrlab/protocol.py`` and the SplitMix64 seed derivation in
``tcrlab/harness.py``. It works on boolean masks, with no sets, dicts or
per-voter objects, so it stays independent of the engine's plumbing.
Only the stochastic mode with the protocol stake schedule is covered,
which is all the workloads use.
"""

from __future__ import annotations

import warnings

import numpy as np

REL_TOL = 1e-9
METRICS = (
    "lurp_raw", "lurp_clamped", "t_total",
    "tokens_IE", "tokens_ID", "tokens_UE", "tokens_UD",
    "wealth_IE", "wealth_ID", "wealth_UE", "wealth_UD",
)
# Per-round audit columns, named as in trace.csv.
AUDIT = (
    "item_good", "decision_add", "decision_correct", "participants",
    "forced_abstentions", "add_votes", "reject_votes", "stake",
)
STATS = ("mean", "std", "min", "max", "p5", "p95")

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(base_seed: int, cell_index: int, rep_index: int) -> int:
    h = _mix64((base_seed & _MASK64) ^ _mix64(cell_index & _MASK64))
    return _mix64(h ^ _mix64(rep_index & _MASK64))


def simulate(p, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One run of params ``p``: (rounds, METRICS) and (rounds, AUDIT) arrays."""
    if type(p.stake_policy).__name__ != "ProtocolStake":
        raise ValueError("the reference covers the protocol stake schedule only")
    g = np.random.Generator(np.random.PCG64(seed))
    n = p.num_voters
    engaged = g.random(n) < p.p_engaged
    informed = g.random(n) < p.p_informed
    classes = (informed & engaged, informed & ~engaged,
               ~informed & engaged, ~informed & ~engaged)
    sizes = [int(c.sum()) for c in classes]
    p_vote = np.where(engaged, p.p_vote_engaged, p.p_vote_disengaged)
    bal = np.full(n, float(p.initial_tokens))
    v_correct = v_incorrect = 0
    metrics = np.empty((p.num_items, len(METRICS)))
    audit = np.empty((p.num_items, len(AUDIT)))
    for r in range(p.num_items):
        good = g.random() < p.p_item_good
        stake = (p.initial_stake / p.initial_tokens) * (bal.sum() / n)
        intends = g.random(n) < p_vote
        eligible = intends & (bal >= stake * (1.0 - REL_TOL))
        ids = np.flatnonzero(eligible)
        p_correct = np.where(informed[ids], p.p_correct_informed, p.p_correct_uninformed)
        correct = g.random(ids.size) < p_correct
        add = np.zeros(n, dtype=bool)
        add[ids[correct == good]] = True
        reject = eligible & ~add
        n_add, n_reject = int(add.sum()), int(reject.sum())
        decision_add = n_add > n_reject
        winners, losers = (add, reject) if decision_add else (reject, add)
        n_win = n_add if decision_add else n_reject
        if n_add != n_reject:
            payout = stake * (n_add + n_reject) / n_win
            bal[winners] += payout - stake
            bal[losers] -= stake
        if ids.size and p.inflation_rate != 0.0:
            bal[eligible] *= 1.0 + p.inflation_rate
        if decision_add == good:
            v_correct += 1
        else:
            v_incorrect += 1
        raw = v_correct - v_incorrect
        clamped = max(0, raw)
        value = clamped if p.clamp_value else raw
        t_total = bal.sum()
        tokens = [float(bal[c].sum()) for c in classes]
        wealth = [(value / t_total) * (t / k) if k else np.nan
                  for t, k in zip(tokens, sizes)]
        metrics[r] = [raw, clamped, t_total, *tokens, *wealth]
        audit[r] = [good, decision_add, decision_add == good, ids.size,
                    int(intends.sum()) - ids.size, n_add, n_reject, stake]
    return metrics, audit


def replicate(p, replications: int, base_seed: int, cell_index: int = 0) -> np.ndarray:
    """(replications, rounds, METRICS) array, seeds derived per replication."""
    return np.stack([
        simulate(p, derive_seed(base_seed, cell_index, rep))[0]
        for rep in range(replications)
    ])


def aggregate(samples: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per-(round, metric) stats over replications, skipping NaNs."""
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("ignore", category=RuntimeWarning)
        stats = {
            "mean": np.nanmean(samples, axis=0),
            "std": np.nanstd(samples, axis=0),
            "min": np.nanmin(samples, axis=0),
            "max": np.nanmax(samples, axis=0),
            "p5": np.nanpercentile(samples, 5, axis=0),
            "p95": np.nanpercentile(samples, 95, axis=0),
        }
    return stats, np.sum(~np.isnan(samples), axis=0)


def close(actual: np.ndarray, expected: np.ndarray, scale: np.ndarray, rel: float) -> bool:
    """Same NaN pattern, and within ``rel`` of ``scale`` everywhere else."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    nan = np.isnan(expected)
    if actual.shape != expected.shape or not np.array_equal(np.isnan(actual), nan):
        return False
    err = np.abs(actual[~nan] - expected[~nan])
    return bool(np.all(err <= rel * np.maximum(np.abs(scale[~nan]), 1e-300)))
