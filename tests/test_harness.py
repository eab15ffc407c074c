import numpy as np
import pytest

from tcrlab import harness
from tcrlab.analysis import AnalysisParams
from tcrlab.harness import (
    BehaviorMode,
    METRIC_NAMES,
    RunConfig,
    SweepSpec,
    aggregate_metrics,
    derive_seed,
    replicate,
    run_simulation,
    run_sweep,
    validate_against_analysis,
)
from tcrlab.params import ConfigurationError, SimParams

IDX = {name: i for i, name in enumerate(METRIC_NAMES)}


def metrics(trace):
    return np.array([row for _, row in trace])


class TestRunSimulation:
    def test_default_run_shape(self):
        trace = run_simulation(RunConfig(SimParams(), base_seed=42))
        assert len(trace) == 50
        record, row = trace[-1]
        assert record.round_index == 49
        assert row.shape == (len(METRIC_NAMES),)

    def test_zero_rounds(self):
        trace = run_simulation(RunConfig(SimParams(num_items=0), base_seed=1))
        assert trace == []

    def test_deterministic(self):
        config = RunConfig(SimParams(), base_seed=7)
        a = metrics(run_simulation(config))
        b = metrics(run_simulation(config))
        assert np.array_equal(a, b)

    def test_seed_changes_trace(self):
        a = metrics(run_simulation(RunConfig(SimParams(), base_seed=1)))
        b = metrics(run_simulation(RunConfig(SimParams(), base_seed=2)))
        assert not np.array_equal(a, b)

    def test_no_inflation_conserves_total(self):
        trace = run_simulation(RunConfig(SimParams(inflation_rate=0.0), base_seed=3))
        totals = metrics(trace)[:, IDX["t_total"]]
        assert max(totals) - min(totals) <= 1e-9 * 10000

    def test_degenerate_mode_requires_informed_majority(self):
        config = RunConfig(
            SimParams(num_voters=4),
            base_seed=0,
            behavior_mode=BehaviorMode.DEGENERATE_IDEAL,
        )
        roster = [(True, False), (True, False), (True, True), (False, True)]
        with pytest.raises(ConfigurationError):
            run_simulation(config, roster=roster)

    def test_degenerate_mode_forces_probabilities(self):
        config = RunConfig(
            SimParams(), base_seed=0, behavior_mode=BehaviorMode.DEGENERATE_IDEAL
        )
        eff = config.effective_params()
        assert eff.p_vote_engaged == 1.0
        assert eff.p_vote_disengaged == 0.0
        assert eff.p_correct_informed == 1.0
        assert eff.p_correct_uninformed == 0.0


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_distinct_replications(self):
        seeds = {derive_seed(0, 0, rep) for rep in range(1000)}
        assert len(seeds) == 1000

    def test_distinct_cells(self):
        assert derive_seed(0, 0, 0) != derive_seed(0, 1, 0)

    def test_64_bit_range(self):
        s = derive_seed(2**64 - 1, 10**6, 10**6)
        assert 0 <= s < 2**64


class TestReplicate:
    def test_shape(self):
        arr = replicate(SimParams(num_items=10), 5, base_seed=1)
        assert arr.shape == (5, 10, len(METRIC_NAMES))

    def test_parallel_matches_serial(self):
        params = SimParams(num_items=10, num_voters=20)
        serial = replicate(params, 8, base_seed=3, jobs=1)
        parallel = replicate(params, 8, base_seed=3, jobs=4)
        assert np.array_equal(serial, parallel)

    def test_invalid_replications(self):
        with pytest.raises(ConfigurationError):
            replicate(SimParams(), 0, base_seed=0)

    def test_pool_capped_by_cpus_and_replications(self, monkeypatch):
        started = []

        class RecordingPool:
            """Runs tasks in this process and records the pool size asked for."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        params = SimParams(num_items=2, num_voters=5)
        serial = replicate(params, 8, base_seed=0, jobs=1)
        parallel = replicate(params, 8, base_seed=0, jobs=10**6)
        assert np.array_equal(parallel, serial, equal_nan=True)
        replicate(params, 3, base_seed=0, jobs=10**6)
        replicate(params, 8, base_seed=0, jobs=2)
        assert started == [4, 3, 2]
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        replicate(params, 8, base_seed=0, jobs=8)
        assert started == [4, 3, 2]  # CPU count unknown: runs serially


class TestSweep:
    def spec(self, replications=3):
        return SweepSpec(
            grid=(("p_informed", (0.1, 0.9)), ("inflation_rate", (0.0, 0.02))),
            replications=replications,
            base_seed=11,
            base_params=SimParams(num_items=10, num_voters=20),
        )

    def test_grid_cells(self):
        assert self.spec().cells() == [
            {"p_informed": 0.1, "inflation_rate": 0.0},
            {"p_informed": 0.1, "inflation_rate": 0.02},
            {"p_informed": 0.9, "inflation_rate": 0.0},
            {"p_informed": 0.9, "inflation_rate": 0.02},
        ]

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(grid=(("bogus", (1,)),), replications=1)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(grid=(), replications=1)

    def test_aggregate_shape(self):
        agg = run_sweep(self.spec())
        assert len(agg.cells) == 4
        cell = agg.cells[0]
        assert cell.counts.shape == (10, len(METRIC_NAMES))
        assert cell.stats["mean"].shape == (10, len(METRIC_NAMES))

    def test_repeatable(self):
        a = run_sweep(self.spec())
        b = run_sweep(self.spec())
        for ca, cb in zip(a.cells, b.cells):
            for name in ca.stats:
                assert np.array_equal(
                    ca.stats[name], cb.stats[name], equal_nan=True
                )

    def test_single_cell_single_rep_matches_run_simulation(self):
        spec = SweepSpec(
            grid=(("p_informed", (0.5,)),),
            replications=1,
            base_seed=4,
            base_params=SimParams(num_items=10, num_voters=20),
        )
        agg = run_sweep(spec)
        direct = replicate(
            SimParams(num_items=10, num_voters=20, p_informed=0.5),
            1, base_seed=4, cell_index=0,
        )[0]
        assert np.array_equal(
            agg.cells[0].stats["mean"], direct, equal_nan=True
        )


class TestAggregateMetrics:
    def test_skips_absent_values(self):
        samples = np.full((3, 1, 1), np.nan)
        samples[0, 0, 0] = 2.0
        samples[1, 0, 0] = 4.0
        stats, counts = aggregate_metrics(samples)
        assert counts[0, 0] == 2
        assert stats["mean"][0, 0] == pytest.approx(3.0)
        assert stats["min"][0, 0] == 2.0 and stats["max"][0, 0] == 4.0

    def test_all_absent_stays_nan(self):
        stats, counts = aggregate_metrics(np.full((2, 1, 1), np.nan))
        assert counts[0, 0] == 0
        assert np.isnan(stats["mean"][0, 0])


class TestValidateAgainstAnalysis:
    PARAMS = AnalysisParams(
        t0=100.0, sigma=0.05, delta=0.02, n_ie=30, n_ue=20, n_id=30, n_ud=20
    )

    def test_oracle_equivalence(self):
        report = validate_against_analysis(self.PARAMS, 50)
        assert report.passed
        assert max(report.max_rel_error.values()) <= 1e-9

    def test_zero_rounds_trivially_passes(self):
        report = validate_against_analysis(self.PARAMS, 0)
        assert report.passed
        assert all(e == 0.0 for e in report.max_rel_error.values())

    def test_no_inflation_case(self):
        p = AnalysisParams(
            t0=100.0, sigma=0.05, delta=0.0, n_ie=30, n_ue=20, n_id=30, n_ud=20
        )
        report = validate_against_analysis(p, 20)
        assert report.passed

    def test_premise_violation_rejected(self):
        with pytest.raises(ConfigurationError):
            AnalysisParams(
                t0=100.0, sigma=0.05, delta=0.02, n_ie=20, n_ue=30, n_id=30, n_ud=20
            )
