import importlib.util
import json
import os
import pickle
import re
import subprocess
import sys
import threading
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tcrlab
from tcrlab import cli, harness
from tcrlab.analysis import AnalysisParams
from tcrlab.harness import (
    METRIC_NAMES,
    ROUND_COLUMNS,
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
from tcrlab.serialize import (
    aggregate_csv_rows,
    aggregate_json_rounds,
    write_aggregate_json,
)
from tcrlab.voters import ReadAhead, RngStream

IDX = {name: i for i, name in enumerate(METRIC_NAMES)}
# The benchmark's reference engine, whose scalar SplitMix64 seed derivation is
# written from the documented contract, not from the package's code.
_REFERENCE = importlib.util.spec_from_file_location(
    "reference", Path(__file__).resolve().parents[1] / "perfbench" / "reference.py")
reference = importlib.util.module_from_spec(_REFERENCE)
_REFERENCE.loader.exec_module(reference)


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

    monkeypatch.setattr(harness, "_start_pool", RecordingPool)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 4)
    return events


def starts(events):
    return [workers for event, workers in events if event == "start"]


class TestRunSimulation:
    def test_default_run_shape(self):
        trace = run_simulation(RunConfig(SimParams(), base_seed=42))
        assert trace.rows.shape == (50, len(METRIC_NAMES))
        assert {name: column.shape for name, column in trace.rounds.items()} == dict.fromkeys(
            ROUND_COLUMNS, (50,))
        assert trace.class_sizes.sum() == 100

    def test_zero_rounds(self):
        trace = run_simulation(RunConfig(SimParams(num_items=0), base_seed=1))
        assert trace.rows.shape == (0, len(METRIC_NAMES))
        assert all(column.shape == (0,) for column in trace.rounds.values())

    def test_deterministic(self):
        config = RunConfig(SimParams(), base_seed=7)
        a = run_simulation(config).rows
        b = run_simulation(config).rows
        assert np.array_equal(a, b)

    def test_seed_changes_trace(self):
        a = run_simulation(RunConfig(SimParams(), base_seed=1)).rows
        b = run_simulation(RunConfig(SimParams(), base_seed=2)).rows
        assert not np.array_equal(a, b)

    def test_no_inflation_conserves_total(self):
        trace = run_simulation(RunConfig(SimParams(inflation_rate=0.0), base_seed=3))
        totals = trace.rows[:, IDX["t_total"]]
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

    @pytest.mark.parametrize("base_seed", [0, 7, 2**63, 2**64 - 1])
    def test_block_pass_equals_each_rows_seed(self, base_seed):
        # Segments of one row and of many, a cell hashed twice, cell indices
        # that only the 64-bit mask keeps in range, and the last 64-bit
        # replication; against the reference engine's scalar mixer.
        ranges = [(0, 0, 1), (3, 5, 70), (3, 70, 71), (2**64 + 9, 0, 4), (-1, 2, 5),
                  (10**6, 2**40, 2**40 + 3), (5, 2**64 - 1, 2**64)]
        expected = [reference.derive_seed(base_seed, cell, rep)
                    for cell, start, stop in ranges for rep in range(start, stop)]
        seeds = harness.derive_seeds(base_seed, ranges)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == expected
        assert [derive_seed(base_seed, cell, rep)
                for cell, start, stop in ranges for rep in range(start, stop)] == expected


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
        # Seeds and cell indices outside [0, 2**64) are rejected as RunConfig
        # and SweepSpec reject them, not wrapped or raised as a TypeError.
        for seed in (2**64, -1, 1.5, True):
            message = re.escape(f"seed must be an integer in [0, 2**64), got {seed!r}")
            for kwargs in ({"base_seed": seed}, {"base_seed": 0, "cell_index": seed}):
                with pytest.raises(ConfigurationError, match=message):
                    replicate(SimParams(num_items=1), 2, **kwargs)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_invalid_jobs(self, jobs):
        with pytest.raises(ConfigurationError, match=f"jobs must be >= 1, got {jobs}"):
            replicate(SimParams(num_items=1), 1, base_seed=0, jobs=jobs)

    def test_pool_capped_by_cpus_and_replications(self, pool_events, monkeypatch):
        params = SimParams(num_items=2, num_voters=5)
        serial = replicate(params, 8, base_seed=0, jobs=1)
        parallel = replicate(params, 8, base_seed=0, jobs=10**6)
        assert np.array_equal(parallel, serial, equal_nan=True)
        replicate(params, 3, base_seed=0, jobs=10**6)
        replicate(params, 8, base_seed=0, jobs=2)
        started = starts(pool_events)
        assert started == [4, 3, 2]
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        replicate(params, 8, base_seed=0, jobs=8)
        assert starts(pool_events) == [4, 3, 2]  # one usable CPU: runs serially

    def test_usable_cpus_follow_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert harness._usable_cpus() == 1
        monkeypatch.delattr(harness.os, "sched_getaffinity")
        assert harness._usable_cpus() == 4
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert harness._usable_cpus() == 1  # CPU count unknown

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
                for _, segments, _ in submitted] == [[(0, 0, 6), (1, 0, 6)],
                                                     [(2, 0, 6), (3, 0, 6)]]
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
        for replications, row in ((4, 2), (20, 17)):  # the 20-row block reads ahead

            def corrupt_row_at_round_3(state, rngs, row=row):
                if state.round_index == 3:
                    state.balances[row, 0] = np.nan
                return run_round(state, rngs)

            monkeypatch.setattr(harness, "run_round", corrupt_row_at_round_3)
            with pytest.raises(InvariantViolation) as exc:
                replicate(SimParams(num_items=5, num_voters=10), replications, base_seed=8,
                          cell_index=1)
            seed = derive_seed(8, 1, row)
            assert str(exc.value) == (
                f"cell 1, replication {row}: settlement zero-sum at round 3 (seed {seed}): "
                "nan != nan"
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

    def test_first_pool_registers_one_exit_hook_that_closes_it(self, pool_events,
                                                              monkeypatch):
        hooks = []
        monkeypatch.setattr(harness.atexit, "register", hooks.append)
        pool = harness._SharedPool()
        pool.map(2, [])
        pool.map(3, [])
        assert hooks == [pool.close]
        hooks[0]()
        assert pool_events == [("start", 2), ("shutdown", 2), ("start", 3), ("shutdown", 3)]

    def test_broken_pool_is_replaced_on_the_next_call(self, monkeypatch):
        started = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(harness, "_start_pool", RecordingPool)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_block_task", exit_worker)
            with pytest.raises(BrokenProcessPool):
                run_sweep(self.SPEC, jobs=2)
        parallel = sweep_samples(self.SPEC, jobs=2)
        assert started == [2, 2]
        for got, expected in zip(parallel, sweep_samples(self.SPEC, jobs=1)):
            assert got.tobytes() == expected.tobytes()

    def test_dead_worker_ends_the_cli_with_exit_3_and_one_line(self, tmp_path, capsys,
                                                               monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(harness, "_block_task", exit_worker)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"grid": {"p_informed": [0.1, 0.9]}, "replications": 4,
                                    "sim_params": {"num_items": 5, "num_voters": 9}}))
        out = tmp_path / "out"
        assert cli.main(["sweep", str(spec), "--jobs", "2", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error: worker process failed: ")
        assert not out.exists()

    def test_serial_runs_never_load_the_pool_machinery(self):
        """A fresh interpreter: pytest's own process may already hold multiprocessing."""
        script = Path(__file__).with_name("pool_imports.py")
        env = {**os.environ, "PYTHONPATH": str(Path(tcrlab.__file__).parents[1])}
        done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr

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
                release.wait(timeout=5)
            return block_task(task)

        # The first cell's statistics overflow, so the sweep stops after it.
        spec = SweepSpec(grid=(("initial_tokens", (1e307, 100.0, 100.0, 100.0)),),
                         replications=2, base_seed=1,
                         base_params=SimParams(num_voters=1, num_items=1, initial_stake=1.0))
        first = replicate(replace(spec.base_params, initial_tokens=1e307), 2, 1)
        assert any(np.isinf(stat).any() for stat in aggregate_metrics(first)[0].values())
        monkeypatch.setattr(harness, "_start_pool", OneThreadPool)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(harness, "_block_task", later_cells_wait)
        monkeypatch.setattr(harness, "BLOCK_SLOTS", 2)  # one block per cell
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
            [part] = parts = block_task(task)
            blocks.append(weakref.ref(part.base))  # the block its one part is a view of
            return parts

        # One thread runs the blocks in order, so a block's work item is gone
        # before the next block's result can be read.
        monkeypatch.setattr(harness, "_start_pool",
                            lambda max_workers: ThreadPoolExecutor(max_workers=1))
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
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
    def test_replicate_matches_run_simulation(self, monkeypatch, name, replications):
        """Also when the 40-row block (and the 20-row blocks at two jobs) read
        their streams ahead with a buffer of the default size, and of 2 and 3
        rounds of the 40-row block: 4 and 6 of a 20-row one, so the 30-round
        runs end on a part-filled refill."""
        params = BATCH_CELLS[name]
        expected = np.array([
            run_simulation(RunConfig(params, base_seed=derive_seed(9, 3, rep))).rows
            for rep in range(replications)
        ])
        blocks_read_ahead = replications >= harness.READ_AHEAD_ROWS
        for ahead in (None, 2, 3) if blocks_read_ahead else (None,):
            if ahead:
                monkeypatch.setattr(harness, "READ_AHEAD_SLOTS",
                                    ahead * 40 * (2 * params.num_voters + 1))
            for jobs in (1, 2):
                got = replicate(params, replications, base_seed=9, cell_index=3, jobs=jobs)
                assert got.shape == expected.shape
                assert np.array_equal(got, expected, equal_nan=True), (ahead, jobs)

    @pytest.mark.parametrize("replications", [4, 20])
    def test_each_stream_ends_after_its_rows_draws(self, monkeypatch, replications):
        """A block of rows with their own params gives each row the whole
        record ``run_simulation`` gives for its params and seed, byte for
        byte: rows, every round column and class sizes. A 20-row block reads
        its streams ahead, refilling every 3 of its 13 rounds, and a 4-row
        block calls them round by round; either leaves each stream where its
        row's draws end: the roster's 2N, then N + 1 and one per eligible
        voter each round."""
        cells = [SimParams(num_voters=10, num_items=13, initial_stake=stake,
                           inflation_rate=delta, p_informed=p_informed, clamp_value=clamp)
                 for stake, delta, p_informed, clamp in ((40.0, 0.05, 0.6, True),
                                                        (5.0, 0.0, 0.3, True),
                                                        (20.0, 0.3, 0.1, False))]
        params = [cells[r % len(cells)] for r in range(replications)]
        seeds = list(range(replications))
        n = cells[0].num_voters
        monkeypatch.setattr(harness, "READ_AHEAD_SLOTS", 3 * 20 * (2 * n + 1))
        readers = []
        monkeypatch.setattr(harness, "ReadAhead",
                            lambda *args: readers.append(args) or ReadAhead(*args))
        blocks = []
        block_streams = RngStream.block
        monkeypatch.setattr(RngStream, "block",
                            lambda seeds: blocks.append(block_streams(seeds)) or blocks[-1])
        block = harness.run_block(params, seeds)
        assert len(readers) == (replications == 20)
        assert block.rows.shape == (replications, 13, len(METRIC_NAMES))
        assert block.class_sizes.shape == (replications, 4)
        assert sorted(block.rounds) == sorted(ROUND_COLUMNS)
        for seed, (p, rng) in enumerate(zip(params, blocks[0])):
            alone = run_simulation(RunConfig(p, base_seed=seed))
            assert block.rows[seed].tobytes() == alone.rows.tobytes(), seed
            for name in ROUND_COLUMNS:
                assert block.rounds[name][seed].tobytes() == alone.rounds[name].tobytes(), name
            assert block.class_sizes[seed].tobytes() == alone.class_sizes.tobytes(), seed
            fresh = RngStream(seed)
            fresh.uniform(2 * n + int((n + 1 + alone.rounds["n_eligible"]).sum()))
            assert rng.uniform(1) == fresh.uniform(1), seed

    @pytest.mark.parametrize("slots", [1, 7 * 3 * 40, 50 * 3 * 40])
    def test_chunked_class_sums_match_an_unchunked_run(self, monkeypatch, slots):
        """Stacks of 1 round, of 7 rounds for the block and 21 for the
        single run (each with a part-filled last stack), and of every round
        give the same bytes, and the single run the same round columns."""
        params = SimParams(num_voters=40, num_items=50, stake_policy=AnalysisSigmaStake(0.1))
        monkeypatch.setattr(harness, "HISTORY_SLOTS", 2**40)
        expected = replicate(params, 3, base_seed=4)
        trace = run_simulation(RunConfig(params, base_seed=8))
        monkeypatch.setattr(harness, "HISTORY_SLOTS", slots)
        assert replicate(params, 3, base_seed=4).tobytes() == expected.tobytes()
        chunked = run_simulation(RunConfig(params, base_seed=8))
        assert chunked.rows.tobytes() == trace.rows.tobytes()
        for name in ROUND_COLUMNS:
            assert chunked.rounds[name].tobytes() == trace.rounds[name].tobytes(), name

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

    # Two groups, of 6 and of 0 rounds, of three cells of 4 replications.
    # In each group, at jobs=2 the two 6-row blocks hold cells 0 and 2 whole
    # and split cell 1; at jobs=1 with 5-row blocks the first block holds
    # cell 0 whole and cells 1 and 2 are split. Cell 2's informed classes
    # are empty, so their wealth stats are NaN.
    REDUCED = SweepSpec(grid=(("num_items", (6, 0)), ("p_informed", (0.5, 0.9, 0.0))),
                        replications=4, base_seed=7, base_params=SimParams(num_voters=9))

    @pytest.mark.parametrize("pool,jobs,shipped", [
        ("fake", 2, [["stats", 2], [2, "stats"]] * 2),
        ("real", 2, None),
        ("serial 5-row blocks", 1, [["stats", 1], [3, 2], [2]] * 2),
    ])
    def test_cells_reduced_in_or_out_of_their_blocks_match_aggregate_metrics(
            self, request, tmp_path, monkeypatch, pool, jobs, shipped):
        parts = []
        if pool == "fake":
            request.getfixturevalue("pool_events")
        elif pool == "real":
            monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        else:
            monkeypatch.setattr(harness, "BLOCK_SLOTS", 9 * 5)
        if shipped is not None:
            block_task = harness._block_task

            def recorded(task):
                block = block_task(task)
                parts.append([len(p) if isinstance(p, np.ndarray) else "stats" for p in block])
                return block

            monkeypatch.setattr(harness, "_block_task", recorded)
        agg = run_sweep(self.REDUCED, jobs=jobs)
        assert parts == ([] if shipped is None else shipped)
        for c, overrides in enumerate(self.REDUCED.cells()):
            samples = replicate(replace(self.REDUCED.base_params, **overrides), 4, 7,
                                cell_index=c)
            stats, counts = aggregate_metrics(samples)
            assert agg.cells[c].counts.tobytes() == counts.tobytes(), overrides
            for stat in stats:
                assert agg.cells[c].stats[stat].tobytes() == stats[stat].tobytes(), stat
            assert agg.cells[c].csv_rows == aggregate_csv_rows(stats, counts), overrides
            assert agg.cells[c].json_rounds == aggregate_json_rounds(stats, counts), overrides
        assert np.isnan(agg.cells[2].stats["mean"][:, IDX["wealth_IE"]]).all()
        write_aggregate_json(tmp_path / "aggregate.json", agg)
        assert '"rounds": []' in (tmp_path / "aggregate.json").read_text()

    def test_a_whole_cell_crosses_the_pipe_as_stats_not_rows(self):
        """A block task returns no sample rows for a cell it holds whole, but
        its stats and their aggregate text, so the stats it ships do not grow
        with the cell's replications."""
        params = SimParams(num_voters=9, num_items=6)
        shipped = []
        for replications in (4, 40):
            segments = ((0, 0, params, 0, replications), (1, 1, params, 0, 2))
            whole, rows = harness._block_task((3, segments, replications))
            stats, counts = aggregate_metrics(replicate(params, replications, 3))
            assert whole[1].tobytes() == counts.tobytes()
            for stat in stats:
                assert whole[0][stat].tobytes() == stats[stat].tobytes()
            assert whole[2:] == (aggregate_csv_rows(stats, counts),
                                 aggregate_json_rounds(stats, counts))
            assert rows.tobytes() == replicate(params, 2, 3, cell_index=1).tobytes()
            shipped.append(len(pickle.dumps(whole[:2])))
        assert shipped[0] == shipped[1]
        # without a cell size, every part is rows
        [samples] = harness._block_task((3, ((0, 0, params, 0, 4),), None))
        assert samples.tobytes() == replicate(params, 4, 3).tobytes()

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


def set_balance(row, value):
    def fault(balances):
        balances[row, 0] = value
    return fault


class TestStackedChecks:
    """A run checks its rounds once per history, yet fails as one checked
    round by round does: same exception, message, round and (cell,
    replication)."""

    PARAMS = SimParams(num_voters=10, num_items=10)  # 4 rows: 40 voter slots a round

    def first_failure(self, monkeypatch, slots, faults, params=PARAMS):
        """Type and message of what replications 0-3 of cell 1 raise with
        ``faults[k](balances)`` applied before round k; and the history depth."""
        run_round = harness.run_round
        depths = set()

        def faulty_run_round(state, rngs):
            depths.add(state.history.depth)
            if state.round_index in faults:
                faults[state.round_index](state.balances)
            return run_round(state, rngs)

        monkeypatch.setattr(harness, "run_round", faulty_run_round)
        monkeypatch.setattr(harness, "HISTORY_SLOTS", slots)
        with pytest.raises((InvariantViolation, ConfigurationError)) as exc:
            replicate(params, 4, base_seed=8, cell_index=1)
        return (type(exc.value), str(exc.value)), depths

    @pytest.mark.parametrize("slots,depth,faults,expected,params", [
        (2**16, 10, {3: set_balance(2, np.nan)},
         "cell 1, replication 2: settlement zero-sum at round 3 (seed {seed[2]}): nan != nan",
         PARAMS),
        # Rounds 8 and 9 are the last, partial history.
        (160, 4, {9: set_balance(1, -1.0)},
         "cell 1, replication 1: negative balance after round 9 (seed {seed[1]})", PARAMS),
        # -3e-9 is below every row's bound at a stake of 1 but within
        # 1e-9 x stake (about 5), so rounds 2-5 pass.
        (2**16, 10, {2: set_balance(0, -3e-9), 6: set_balance(3, -1.0)},
         "cell 1, replication 3: negative balance after round 6 (seed {seed[3]})", PARAMS),
        # The earlier round fails first, though a lower row fails later.
        (2**16, 10, {4: set_balance(3, -1.0), 6: set_balance(0, -1.0)},
         "cell 1, replication 3: negative balance after round 4 (seed {seed[3]})", PARAMS),
        # At a zero stake the bound is -1e-9 x max(1, stake), so -5e-10
        # passes in every round.
        (2**16, 10, {3: set_balance(2, -5e-10), 7: set_balance(1, -1.0)},
         "cell 1, replication 1: negative balance after round 7 (seed {seed[1]})",
         replace(PARAMS, initial_stake=0.0)),
    ], ids=["nan-in-a-history", "last-partial-history", "tolerated-then-negative",
            "earlier-round-first", "zero-stake-bound"])
    def test_invariant_violation_is_the_first_failing_round(self, monkeypatch, slots, depth,
                                                            faults, expected, params):
        seed = [derive_seed(8, 1, rep) for rep in range(4)]
        expected = (InvariantViolation, expected.format(seed=seed))
        assert self.first_failure(monkeypatch, 1, faults, params) == (expected, {1})
        assert self.first_failure(monkeypatch, slots, faults, params) == (expected, {depth})

    def test_overflow_names_the_first_overflowing_round(self, monkeypatch):
        params = replace(self.PARAMS, initial_tokens=1e300, inflation_rate=9.0)
        expected = (ConfigurationError, "token balances overflow at round 7: "
                    "inflation_rate 9.0 compounds past the float range")
        assert self.first_failure(monkeypatch, 1, {}, params) == (expected, {1})
        assert self.first_failure(monkeypatch, 2**16, {}, params) == (expected, {10})


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
        # infinities of both signs, zeros of both signs, equal present values;
        # where -0.0 and 0.0 tie at a percentile's neighbours, the zero's sign
        # can differ from np.nanpercentile's (test_tied_signed_zeros_keep_their_sign),
        # and at these seeds it does not
        for (r, m), pool in {(2, 2): [np.inf, -np.inf, 1.0, np.nan], (3, 3): [-0.0, 0.0, np.nan],
                             (4, 4): [-3.5, np.nan]}.items():
            samples[:, r, m] = rng.permutation(np.resize(pool, replications))
        # columns with one and two present values
        samples[:, 5, 5] = samples[:, 6, 6] = np.nan
        samples[-1, 5, 5] = 2.0
        samples[:2, 6, 6] = (3.0, -1.0)[:replications]
        # NaN-free, so one count covers every column
        complete = np.where(np.isnan(samples), 0.5, samples)
        for sample in (samples, complete):
            stats, counts = aggregate_metrics(sample)
            with np.errstate(invalid="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                for q in (5, 95):
                    expected = np.nanpercentile(sample, q, axis=0)
                    got = stats[f"p{q}"]
                    assert got.shape == expected.shape
                    assert np.array_equal(got, expected, equal_nan=True)
                    assert got.tobytes() == expected.tobytes()
        assert counts.min() == replications
        counts = aggregate_metrics(samples)[1]
        assert counts[0, 0] == 0 and counts[1, 1] == replications and counts[5, 5] == 1

    def test_tied_signed_zeros_keep_their_sign(self):
        # Which of tied -0.0 and 0.0 a percentile lands on depends on how a
        # partition orders equal keys: it stays np.percentile's over each
        # column's sorted values, and equals np.nanpercentile as a number.
        rng = np.random.Generator(np.random.PCG64(5))
        samples = rng.choice([-0.0, 0.0, 1.0, np.nan], (40, 20, 11), p=[0.45, 0.45, 0.05, 0.05])
        stats, counts = aggregate_metrics(samples)
        ordered = np.sort(samples, axis=0)
        for q in (5, 95):
            got = stats[f"p{q}"]
            expected = np.array([np.percentile(ordered[:c, r, m], q)
                                 for (r, m), c in np.ndenumerate(counts)]).reshape(counts.shape)
            assert got.tobytes() == expected.tobytes()
            assert np.array_equal(got, np.nanpercentile(samples, q, axis=0))
        # both signs come out
        zeros = np.concatenate([stats["p5"][stats["p5"] == 0], stats["p95"][stats["p95"] == 0]])
        assert 0 < np.signbit(zeros).sum() < len(zeros)

    @pytest.mark.parametrize("replications", [1, 2, 32, 333])
    def test_complete_samples_equal_the_nan_functions(self, replications):
        rng = np.random.Generator(np.random.PCG64(replications))
        samples = rng.standard_normal((replications, 50, 11)) * 10.0 ** rng.integers(-3, 9, 11)
        # signed zeros, also in the last columns, past the reductions' vector lanes
        samples[:, -1] = rng.choice([-0.0, 0.0], (replications, 11))
        # one NaN column among NaN-free ones; then with an all-NaN column, a
        # partly NaN one among the signed zeros, and an infinity beside a NaN
        one_nan = samples.copy()
        one_nan[-1, 3, 4] = np.nan
        some_nan = one_nan.copy()
        some_nan[:, 7, 2] = np.nan
        some_nan[:replications // 2 + 1, -1, 5] = np.nan
        some_nan[-1, 9, 9], some_nan[0, 9, 9] = np.inf, np.nan
        # near 1e200, whose squared deviations overflow: inf std, and no warning
        huge = 1e200 * rng.standard_normal(samples.shape)
        huge[0, 3, 4] = np.nan
        for sample in (samples, one_nan, some_nan, huge):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                stats, counts = aggregate_metrics(sample)
            with np.errstate(invalid="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                for name, nan_function in (("mean", np.nanmean), ("std", np.nanstd),
                                           ("min", np.nanmin), ("max", np.nanmax)):
                    assert stats[name].tobytes() == nan_function(sample, axis=0).tobytes(), name
        assert np.array_equal(np.isinf(stats["std"]), counts > 1)


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
