import os
import threading
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from tcrlab import harness
from tcrlab.analysis import AnalysisParams
from tcrlab.harness import (
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
from tcrlab.params import AnalysisSigmaStake, ConfigurationError, ProtocolStake, SimParams
from tcrlab.protocol import InvariantViolation

IDX = {name: i for i, name in enumerate(METRIC_NAMES)}


def metrics(trace):
    return np.array([row for _, row in trace])


@pytest.fixture(autouse=True)
def no_cached_pool():
    """Each test starts and ends without a shared pool, so no fake pool leaks."""
    harness._POOL.close()
    yield
    harness._POOL.close()


@pytest.fixture()
def pool_events(monkeypatch):
    """Replace the process pool with one that runs each task in this process
    as its result is read; returns the ("start" | "shutdown", workers) events."""
    events = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.workers = max_workers
            events.append(("start", max_workers))

        def map(self, fn, tasks):
            return map(fn, tasks)

        def shutdown(self, wait=True):
            assert wait
            events.append(("shutdown", self.workers))

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    return events


def starts(events):
    return [workers for event, workers in events if event == "start"]


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

    def test_pool_capped_by_cpus_and_replications(self, pool_events, monkeypatch):
        params = SimParams(num_items=2, num_voters=5)
        serial = replicate(params, 8, base_seed=0, jobs=1)
        parallel = replicate(params, 8, base_seed=0, jobs=10**6)
        assert np.array_equal(parallel, serial, equal_nan=True)
        replicate(params, 3, base_seed=0, jobs=10**6)
        replicate(params, 8, base_seed=0, jobs=2)
        started = starts(pool_events)
        assert started == [4, 3, 2]
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        replicate(params, 8, base_seed=0, jobs=8)
        assert starts(pool_events) == [4, 3, 2]  # CPU count unknown: runs serially

    def test_one_pool_per_sweep(self, pool_events, monkeypatch):
        submitted = []
        block_task = harness._block_task
        monkeypatch.setattr(harness, "_block_task",
                            lambda task: submitted.append(task) or block_task(task))
        spec = SweepSpec(
            grid=(("p_informed", (0.1, 0.9)), ("inflation_rate", (0.0, 0.05))),
            replications=6, base_seed=2, base_params=SimParams(num_items=5, num_voters=9),
        )
        agg = run_sweep(spec, jobs=2)
        started = starts(pool_events)
        assert started == [2]
        # the four cells share a block key, so their 24 rows are cut into one
        # contiguous block per worker
        assert [[(c, start, stop) for _, c, _, start, stop in segments]
                for _, segments in submitted] == [[(0, 0, 6), (1, 0, 6)], [(2, 0, 6), (3, 0, 6)]]
        serial = run_sweep(spec, jobs=1)
        for a, b in zip(agg.cells, serial.cells):
            for name in a.stats:
                assert np.array_equal(a.stats[name], b.stats[name], equal_nan=True)

    def test_blocks_capped_by_voter_slots(self, monkeypatch):
        params = SimParams(num_items=20, num_voters=7, initial_stake=40.0)
        whole = replicate(params, 11, base_seed=5, cell_index=2)
        monkeypatch.setattr(harness, "BLOCK_SLOTS", 30)  # 4 replications per block
        blocks = []
        run_block = harness.run_block
        monkeypatch.setattr(harness, "run_block",
                            lambda p, seeds: blocks.append(len(seeds)) or run_block(p, seeds))
        split = replicate(params, 11, base_seed=5, cell_index=2)
        assert blocks == [4, 4, 3]
        assert np.array_equal(whole, split, equal_nan=True)

    def test_blocks_capped_by_row_rounds(self, monkeypatch):
        spec = SweepSpec(grid=(("p_informed", (0.1, 0.9)),), replications=3, base_seed=5,
                         base_params=SimParams(num_items=20, num_voters=7))
        whole = sweep_samples(spec, jobs=1)
        monkeypatch.setattr(harness, "MAX_ROW_ROUNDS", 80)  # 4 replications per block
        blocks = []
        run_block = harness.run_block
        monkeypatch.setattr(harness, "run_block",
                            lambda p, seeds: blocks.append(len(seeds)) or run_block(p, seeds))
        split = sweep_samples(spec, jobs=1)
        assert blocks == [4, 2]
        for a, b in zip(whole, split):
            assert a.tobytes() == b.tobytes()

    def test_invariant_violation_names_cell_replication_and_seed(self, monkeypatch):
        run_round = harness.run_round

        def corrupt_row_2_at_round_3(state, rngs):
            if state.round_index == 3:
                state.balances[2, 0] = np.nan
            return run_round(state, rngs)

        monkeypatch.setattr(harness, "run_round", corrupt_row_2_at_round_3)
        with pytest.raises(InvariantViolation) as exc:
            replicate(SimParams(num_items=5, num_voters=10), 4, base_seed=8, cell_index=1)
        seed = derive_seed(8, 1, 2)
        assert str(exc.value) == (
            f"cell 1, replication 2: settlement zero-sum at round 3 (seed {seed}): nan != nan"
        )



class TestSharedPool:
    SPEC = SweepSpec(grid=(("p_informed", (0.1, 0.9)),), replications=4, base_seed=3,
                     base_params=SimParams(num_items=5, num_voters=9))

    def test_calls_with_the_same_worker_count_share_one_pool(self, pool_events):
        first = run_sweep(self.SPEC, jobs=2)
        second = run_sweep(self.SPEC, jobs=2)
        replicate(SimParams(num_items=5, num_voters=9), 4, base_seed=3, jobs=2)
        assert pool_events == [("start", 2)]
        for a, b in zip(first.cells, second.cells):
            assert a.stats["mean"].tobytes() == b.stats["mean"].tobytes()

    def test_another_worker_count_shuts_the_old_pool_down_first(self, pool_events):
        run_sweep(self.SPEC, jobs=2)
        run_sweep(self.SPEC, jobs=3)
        run_sweep(self.SPEC, jobs=1)  # serial: the pool stays
        run_sweep(self.SPEC, jobs=3)
        assert pool_events == [("start", 2), ("shutdown", 2), ("start", 3)]

    def test_broken_pool_is_replaced_on_the_next_call(self, monkeypatch):
        started = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_block_task", exit_worker)
            with pytest.raises(BrokenProcessPool):
                run_sweep(self.SPEC, jobs=2)
        parallel = sweep_samples(self.SPEC, jobs=2)
        assert started == [2, 2]
        for got, expected in zip(parallel, sweep_samples(self.SPEC, jobs=1)):
            assert got.tobytes() == expected.tobytes()

    def test_abandoned_sweep_cancels_its_queued_blocks(self, monkeypatch):
        futures, release = [], threading.Event()

        class OneThreadPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers=1)

            def submit(self, fn, task):
                futures.append(super().submit(fn, task))
                return futures[-1]

        block_task = harness._block_task

        def later_cells_wait(task):
            if task[1][0][1] > 0:
                release.wait(timeout=60)
            return block_task(task)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", OneThreadPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(harness, "_block_task", later_cells_wait)
        monkeypatch.setattr(harness, "BLOCK_SLOTS", 2)  # one block per cell
        # The first cell's statistics overflow, so the sweep stops after it.
        spec = SweepSpec(grid=(("initial_tokens", (1e307, 100.0, 100.0, 100.0)),),
                         replications=2, base_seed=1,
                         base_params=SimParams(num_voters=1, num_items=1, initial_stake=1.0))
        try:
            # The held exception keeps the sweep's frames, and so its blocks, alive.
            with pytest.raises(ConfigurationError, match="overflow the float range") as exc:
                run_sweep(spec, jobs=2)
            assert exc.value.__traceback__ is not None
            assert len(futures) == 4
            assert futures[0].done() and not futures[0].cancelled()
            # the second block may already be running; the rest had not started
            assert futures[2].cancelled() and futures[3].cancelled()
        finally:
            release.set()


    def test_a_read_block_is_released(self, monkeypatch):
        blocks = []
        block_task = harness._block_task

        def recorded(task):
            block = block_task(task)
            blocks.append(weakref.ref(block))
            return block

        # One thread runs the blocks in order, so a block's work item is gone
        # before the next block's result can be read.
        monkeypatch.setattr(harness, "ProcessPoolExecutor",
                            lambda max_workers: ThreadPoolExecutor(max_workers=1))
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(harness, "_block_task", recorded)
        monkeypatch.setattr(harness, "BLOCK_SLOTS", 2)  # one block per cell
        params = SimParams(num_voters=1, num_items=3)
        runs = harness._replicate_cells([(c, params) for c in range(3)], 2, 1, jobs=2)
        first = next(runs)
        next(runs)
        # the first cell's block is no longer held once the second cell is out
        assert blocks[0]() is None
        assert first.shape == (2, 3, len(METRIC_NAMES))
        runs.close()


def exit_worker(task):
    """A block task that kills the worker process running it."""
    os._exit(3)


# Cells whose every replication must come out of a block exactly as it comes
# out of run_simulation alone.
BATCH_CELLS = {
    "protocol stake": SimParams(num_items=30),
    "sigma stake": SimParams(num_items=30, stake_policy=AnalysisSigmaStake(0.1),
                             inflation_rate=0.05),
    "raw value": SimParams(num_items=30, clamp_value=False, p_informed=0.1),
    # forced abstentions in most rounds, and tied and empty rounds
    "7 voters at stake 40": SimParams(num_voters=7, num_items=60, initial_stake=40.0),
    "3 voters, empty classes": SimParams(num_voters=3, num_items=30),
    "no rounds": SimParams(num_items=0),
}


class TestBatchingInvariance:
    @pytest.mark.parametrize("replications", [1, 5, 40])
    @pytest.mark.parametrize("name", list(BATCH_CELLS))
    def test_replicate_matches_run_simulation(self, name, replications):
        params = BATCH_CELLS[name]
        expected = np.array([
            metrics(run_simulation(RunConfig(params, base_seed=derive_seed(9, 3, rep))))
            .reshape(params.num_items, len(METRIC_NAMES))
            for rep in range(replications)
        ])
        for jobs in (1, 2):
            got = replicate(params, replications, base_seed=9, cell_index=3, jobs=jobs)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected, equal_nan=True), jobs

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("grid", [
        (("num_voters", (3, 7, 100)), ("clamp_value", (True, False))),
        (("stake_policy", (ProtocolStake(), AnalysisSigmaStake(0.1))), ("num_items", (0, 30))),
    ], ids=["voters-clamp", "stake-rounds"])
    def test_run_sweep_matches_replicate(self, grid, jobs):
        spec = SweepSpec(grid=grid, replications=40, base_seed=6,
                         base_params=SimParams(num_items=30, initial_stake=40.0))
        agg = run_sweep(spec, jobs=jobs)
        for c, overrides in enumerate(spec.cells()):
            samples = replicate(replace(spec.base_params, **overrides), 40, 6, cell_index=c)
            stats, counts = aggregate_metrics(samples)
            assert np.array_equal(agg.cells[c].counts, counts)
            for name in stats:
                assert np.array_equal(agg.cells[c].stats[name], stats[name], equal_nan=True)



# Every parameter a cell of a block may vary, over four small grids.
SPANNING_GRIDS = {
    "inflation-clamp-item": (("inflation_rate", (0.0, 0.05)), ("clamp_value", (True, False)),
                             ("p_item_good", (0.3, 0.8))),
    "roster-tokens": (("p_engaged", (0.2, 0.9)), ("p_informed", (0.1, 0.7)),
                      ("initial_tokens", (100.0, 37.5))),
    "votes-stake": (("p_vote_engaged", (0.6, 1.0)), ("p_vote_disengaged", (0.0, 0.4)),
                    ("initial_stake", (5.0, 30.0))),
    "correct-sigma": (("p_correct_informed", (0.7, 1.0)), ("p_correct_uninformed", (0.0, 0.3)),
                      ("stake_policy", (AnalysisSigmaStake(0.05), AnalysisSigmaStake(0.2)))),
}


def sweep_samples(spec, jobs):
    """Each cell's samples from one cell-spanning sweep, in cell order."""
    cells = [(c, replace(spec.base_params, **o)) for c, o in enumerate(spec.cells())]
    return list(harness._replicate_cells(cells, spec.replications, spec.base_seed, jobs))


class TestCellSpanningBlocks:
    @pytest.mark.parametrize("slots", [None, 9 * 7])
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("name", list(SPANNING_GRIDS))
    def test_sweep_matches_replicate_per_cell(self, monkeypatch, name, jobs, slots):
        if slots is not None:  # 7 rows per block: blocks cut cells at odd offsets
            monkeypatch.setattr(harness, "BLOCK_SLOTS", slots)
        spec = SweepSpec(grid=SPANNING_GRIDS[name], replications=5, base_seed=12,
                         base_params=SimParams(num_voters=9, num_items=12))
        agg = run_sweep(spec, jobs=jobs)
        for c, (overrides, got) in enumerate(zip(spec.cells(), sweep_samples(spec, jobs))):
            expected = replicate(replace(spec.base_params, **overrides), 5, 12, cell_index=c)
            assert got.tobytes() == expected.tobytes(), overrides
            stats, counts = aggregate_metrics(expected)
            assert np.array_equal(agg.cells[c].counts, counts)
            for stat in stats:
                assert agg.cells[c].stats[stat].tobytes() == stats[stat].tobytes()

    def test_groups_gather_cells_that_are_not_neighbours(self, monkeypatch):
        # The block key's axes vary fastest, so no two cells of a group are adjacent.
        spec = SweepSpec(
            grid=(("inflation_rate", (0.0, 0.05)), ("num_voters", (9, 12)),
                  ("stake_policy", (ProtocolStake(), AnalysisSigmaStake(0.1))),
                  ("num_items", (0, 7))),
            replications=3, base_seed=4, base_params=SimParams(initial_stake=30.0),
        )
        blocks = []
        run_block = harness.run_block

        def recording_run_block(params, seeds):
            blocks.append(len(seeds))
            return run_block(params, seeds)

        monkeypatch.setattr(harness, "run_block", recording_run_block)
        got = sweep_samples(spec, jobs=1)
        assert blocks == [6] * 8  # two cells, eight apart, per block
        for c, overrides in enumerate(spec.cells()):
            expected = replicate(replace(spec.base_params, **overrides), 3, 4, cell_index=c)
            assert got[c].shape == expected.shape
            assert got[c].tobytes() == expected.tobytes(), overrides

    def test_invariant_violation_names_the_second_cell_of_a_block(self, monkeypatch):
        run_round = harness.run_round

        def corrupt_row_5_at_round_3(state, rngs):
            if state.round_index == 3:
                state.balances[5, 0] = np.nan
            return run_round(state, rngs)

        monkeypatch.setattr(harness, "run_round", corrupt_row_5_at_round_3)
        spec = SweepSpec(grid=(("p_informed", (0.1, 0.9)),), replications=4, base_seed=8,
                         base_params=SimParams(num_items=5, num_voters=10))
        with pytest.raises(InvariantViolation) as exc:
            run_sweep(spec)  # one block: rows 0-3 are cell 0, rows 4-7 cell 1
        seed = derive_seed(8, 1, 1)
        assert str(exc.value) == (
            f"cell 1, replication 1: settlement zero-sum at round 3 (seed {seed}): nan != nan"
        )


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

    @pytest.mark.parametrize("replications", [1, 2, 7, 40, 333])
    def test_percentiles_equal_nanpercentile(self, replications):
        rng = np.random.Generator(np.random.PCG64(replications))
        samples = rng.standard_normal((replications, 9, 11)) * 10.0 ** rng.integers(-3, 9, 11)
        # a different share of NaNs per column, and columns with none or only NaNs
        samples[rng.random(samples.shape) < rng.random((9, 11))] = np.nan
        samples[:, 0, 0] = np.nan
        samples[:, 1, 1] = 4.25
        stats, counts = aggregate_metrics(samples)
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for q in (5, 95):
                expected = np.nanpercentile(samples, q, axis=0)
                got = stats[f"p{q}"]
                assert got.shape == expected.shape
                assert np.array_equal(got, expected, equal_nan=True)
                assert got.tobytes() == expected.tobytes()
        assert counts[0, 0] == 0 and counts[1, 1] == replications


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
