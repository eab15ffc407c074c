"""Seeded end-to-end runs, replicated sweeps, and oracle validation.

A run is a pure function of (params, seed). Sweep replications derive their
seeds from (base_seed, cell index, replication index) through a fixed
64-bit mixer, so results are identical no matter how many workers execute
them or in which order.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
import warnings
from collections.abc import Iterator, Sequence
from contextlib import closing
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .analysis import (
    AnalysisParams,
    tokens_disengaged,
    tokens_informed_engaged,
    tokens_uninformed_engaged,
    total_tokens,
    value_per_token,
)
from .metrics import METRIC_NAMES, metric_rows
from .params import AnalysisSigmaStake, ConfigurationError, SimParams, check_fields, check_seed
from .protocol import InvariantViolation, TcrState, block_key, init_registry, run_round
from .voters import RngStream, sample_rosters

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor


class Trace(NamedTuple):
    """One run: its (rounds, metrics) rows, in METRIC_NAMES order; its
    per-round columns, (rounds,) arrays keyed by ``ROUND_COLUMNS``; and its
    class sizes, in ``CLASSES`` order. A block of R runs has the same
    record with a leading row axis: (R, rounds, metrics) rows, (R, rounds)
    columns and (R, 4) class sizes."""

    rows: np.ndarray
    rounds: dict[str, np.ndarray]
    class_sizes: np.ndarray


# A run's per-round columns: its correct decisions so far and supply, which the
# metrics rows are computed from, then its stake, item, decision and voter counts.
ROUND_COLUMNS = ("v_correct", "total", "stake", "item_good", "decision_add", "n_intends",
                 "n_eligible", "n_add")


def run_simulation(params: SimParams, seed: int) -> Trace:
    """Execute all rounds of the run of ``params`` seeded ``seed``; returns its ``Trace``.

    The seed must be an integer in [0, 2**64). The run is row 0 of a one-row
    ``run_block``, so it is set up exactly as a replication of a sweep is.
    """
    check_seed(seed)
    _check_size(params)
    block = run_block([params], [seed])
    return Trace(block.rows[0], {name: column[0] for name, column in block.rounds.items()},
                 block.class_sizes[0])


def run_block(params: Sequence[SimParams], seeds: Sequence[int] | np.ndarray) -> Trace:
    """Replications in lockstep, row r with ``params[r]`` and a stream seeded
    ``seeds[r]``; the block's ``Trace``, with a leading row axis.

    The params must share a ``block_key``. Every run is set up the same way:
    its stream from ``RngStream.block`` (one hash of all the block's seeds),
    its roster drawn from that stream first by ``sample_rosters``, and its
    state from ``init_registry``, with that stream. So each replication's
    stream, roster and record are those of a one-row block, which is
    ``run_simulation``.
    """
    rngs = RngStream.block(seeds)
    return _advance(init_registry(params, sample_rosters(params, rngs), rngs))


def _advance(state: TcrState) -> Trace:
    """Run every round of a block; returns its ``Trace``: the (R, rounds,
    metrics) rows, the (R, rounds) columns of each of ``ROUND_COLUMNS``, views
    of its history, and the (R, 4) class sizes.

    The state is built with its streams, ring and draw source; its last
    round checks and closes (``protocol.run_round``), so the history here
    records the whole, checked run. The rows are computed once, at the end.
    """
    rounds = state.num_items
    with np.errstate(over="ignore", invalid="ignore"):  # check_rounds checks every row
        for _ in range(rounds):
            run_round(state)
    h = state.history
    columns = {"v_correct": np.cumsum(h.decision_add == h.item_good, axis=0).T,
               **{name: getattr(h, name).T for name in ROUND_COLUMNS[1:]}}
    rows = metric_rows(state.clamp_value[:, None], state.class_sizes[:, None],
                       columns["v_correct"], np.arange(1, rounds + 1), columns["total"],
                       h.tokens.swapaxes(0, 1))
    return Trace(rows, columns, state.class_sizes)


_MASK64 = (1 << 64) - 1
_MIX_ADD, _MIX_MUL_1, _MIX_MUL_2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser of each entry of a uint64 array, whose arithmetic wraps mod 2^64."""
    x = x + np.uint64(_MIX_ADD)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX_MUL_1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX_MUL_2)
    x ^= x >> np.uint64(31)
    return x


def derive_seed(base_seed: int, cell_index: int, rep_index: int) -> int:
    """Fixed 64-bit mixing of (base seed, grid cell, replication): the one
    entry of ``derive_seeds`` over replication ``rep_index`` of the cell."""
    rep = rep_index & _MASK64
    return int(derive_seeds(base_seed, [(cell_index, rep, rep + 1)])[0])


def derive_seeds(base_seed: int, ranges: Sequence[tuple[int, int, int]]) -> np.ndarray:
    """The seeds of replications start..stop-1 of each (cell_index, start,
    stop), in order, as one uint64 array: mix(mix(base_seed ^ mix(cell_index))
    ^ mix(rep)), with mix ``_mix64_array`` and every value taken mod 2^64.
    Each cell is hashed once and every replication mixed in one array pass."""
    cells = np.array([cell_index & _MASK64 for cell_index, _, _ in ranges], dtype=np.uint64)
    cells = _mix64_array(np.uint64(base_seed & _MASK64) ^ _mix64_array(cells))
    reps = np.concatenate([np.arange(start, stop, dtype=np.uint64) for _, start, stop in ranges])
    return _mix64_array(np.repeat(cells, [stop - start for _, start, stop in ranges])
                        ^ _mix64_array(reps))


# Voter slots (replications x voters) per lockstep block: 256 KB of float64
# balances. Larger groups of replications are cut into more blocks, which
# keeps a block's working set in cache: at 100 voters a block holds at most
# 327 replications, which read at least 3 rounds ahead. 2^14 slots cut a
# 500-replication cell on two workers into blocks of 163, 163, 163 and 11
# rows, and ran slower there than 2^15.
BLOCK_SLOTS = 2**15
# Voters of one replication. A block never splits a replication, so a
# replication wider than BLOCK_SLOTS runs as a block of its own.
MAX_VOTERS = 2**18
# Rounds of one run: every round keeps a metrics row per replication.
MAX_ROUNDS = 2**20
# Replications x rounds of one cell, and of one block: each keeps a metrics
# row, so a cell's samples stay under about 0.4 GB.
MAX_ROW_ROUNDS = 2**22


def _check_size(params: SimParams, replications: int = 1) -> None:
    """Reject a roster, a run or a cell too large, before anything is allocated."""
    if params.num_voters > MAX_VOTERS:
        raise ConfigurationError(
            f"num_voters must be <= {MAX_VOTERS}, got {params.num_voters}"
        )
    if params.num_items > MAX_ROUNDS:
        raise ConfigurationError(
            f"num_items must be <= {MAX_ROUNDS}, got {params.num_items}"
        )
    if replications * params.num_items > MAX_ROW_ROUNDS:
        raise ConfigurationError(
            f"replications x num_items must be <= {MAX_ROW_ROUNDS}, "
            f"got {replications} x {params.num_items}"
        )


# A block task: the base seed, the block's segments in row order, and the
# cell size it reduces at. A segment (position, cell_index, params, start,
# stop) holds replications start..stop-1 of the cell at ``position`` in the
# list of cells.
Segment = tuple[int, int, SimParams, int, int]


def _block_task(task: tuple[int, tuple[Segment, ...], int | None]) -> list:
    """Run one lockstep block; one part per segment, in segment order.

    A segment of ``cell_size`` rows holds a whole cell, which is reduced and
    rendered here by ``_reduce_cell`` on the block's contiguous slice of its
    rows, so its part is the cell's ``(stats, counts, csv_rows,
    json_rounds)``. Every other segment's part is its (rows, rounds,
    metrics) rows; with ``cell_size`` None every part is. The block's round
    columns and class sizes are dropped here. Its seeds are derived in one
    pass (``derive_seeds``). An ``InvariantViolation`` is
    raised again with its cell and replication.
    """
    base_seed, segments, cell_size = task
    params = [p for _, _, p, start, stop in segments for _ in range(start, stop)]
    ranges = [(cell_index, start, stop) for _, cell_index, _, start, stop in segments]
    try:
        block = run_block(params, derive_seeds(base_seed, ranges)).rows
    except InvariantViolation as exc:
        rows = [(cell_index, rep) for cell_index, start, stop in ranges
                for rep in range(start, stop)]
        cell_index, rep = rows[exc.row]
        raise InvariantViolation(f"cell {cell_index}, replication {rep}: {exc}") from exc
    parts, offset = [], 0
    for *_, start, stop in segments:
        part = block[offset:offset + stop - start]
        parts.append(_reduce_cell(part) if stop - start == cell_size else part)
        offset += stop - start
    return parts


def _start_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool of ``workers`` processes.

    The pool machinery (``concurrent.futures.process``, which loads
    ``multiprocessing``, ``socket``, ``subprocess`` and ``logging``) is
    imported here, on the first parallel call, so serial runs never load it.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


class _SharedPool:
    """The process pool that parallel calls share.

    The first parallel call loads the pool machinery and starts the pool
    (``_start_pool``); serial calls never touch it. Later calls with the same
    worker count reuse the pool, so repeated sweeps pay pool start-up once.
    A call that needs another worker count first shuts the old pool down and
    waits for it, so at most one pool is alive and no process forks while an
    old pool's threads still run. Workers start with the pool, so they do
    not see later changes to this process's module state. The first pool
    started registers an ``atexit`` hook that shuts the pool down and drops
    it: ``atexit`` runs after the pool's own thread exit hook and before
    module teardown, where an executor still alive would be collected with
    the modules its exit callback needs already cleared.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._workers = 0
        self._exit_hook = False

    def map(self, workers: int, tasks: list) -> Iterator[list]:
        """``_block_task`` of each task, in order, on ``workers`` processes.

        As ``Executor.map``: each result is released once read, and blocks
        not yet started are cancelled when the iterator is closed or dropped.
        """
        with self._lock:
            if self._executor is None or self._workers != workers:
                self._shutdown()
                if not self._exit_hook:
                    atexit.register(self.close)
                    self._exit_hook = True
                self._executor = _start_pool(workers)
                self._workers = workers
            return self._executor.map(_block_task, tasks)

    def close(self) -> None:
        """Shut the pool down once its submitted work is done; the next call starts another."""
        with self._lock:
            self._shutdown()

    def _shutdown(self) -> None:
        if self._executor is not None:
            executor, self._executor = self._executor, None
            executor.shutdown(wait=True)


_POOL = _SharedPool()


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one
    (a ``taskset`` or cgroup cpuset can make it smaller than ``os.cpu_count()``)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _replicate_cells(
    cells: list[tuple[int, SimParams]], replications: int, base_seed: int, jobs: int,
    reduce: bool = False,
) -> Iterator:
    """Each cell's (replications, rounds, metrics) samples, in the order
    given; with ``reduce``, each cell's ``_reduce_cell`` instead.

    Cells with the same ``block_key`` (num_voters, num_items and the stake
    policy kind) form a group, wherever they sit in the list. A group's
    replications are laid end to end in (cell, replication) order and cut
    into contiguous lockstep blocks, one per worker, or more when a block
    would exceed BLOCK_SLOTS or MAX_ROW_ROUNDS; a block can span cells. The
    slot bound keeps tall blocks cache-sized, so they read ahead (see
    ``protocol.TcrState``); a group cut by it runs as the same blocks at any job
    count, and its blocks outnumber the workers, which take them in turn. With
    ``reduce``, a block reduces each cell it holds whole in the process that
    ran it, and returns rows only for the cells it shares with another
    block, which ``_by_cell`` joins and reduces. With more than one worker
    (at most one per CPU this process may use, and one per replication) the
    blocks run on the process pool that every parallel call shares; the
    first such call loads the pool machinery and starts the pool, which is
    kept, and a serial call loads neither. Blocks not yet started are
    cancelled when the caller stops reading, and a pool found broken is
    dropped, so the next call starts a fresh one; its ``BrokenProcessPool``
    reaches the caller. Results are placed by (cell, replication), so the
    output is identical for any job count.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    workers = max(1, min(jobs, _usable_cpus(), replications * len(cells)))
    groups: dict[tuple, list] = {}
    for position, (cell_index, params) in enumerate(cells):
        _check_size(params, replications)
        groups.setdefault(block_key(params), []).append((position, cell_index, params))
    cell_size = replications if reduce else None
    tasks = []
    for (num_voters, num_items, _), members in groups.items():
        total = replications * len(members)
        per_block = max(1, min(-(-total // workers), BLOCK_SLOTS // num_voters,
                               MAX_ROW_ROUNDS // max(num_items, 1)))
        for start in range(0, total, per_block):
            stop = min(start + per_block, total)
            segments = []
            for m in range(start // replications, -(-stop // replications)):
                position, cell_index, params = members[m]
                first = m * replications  # the member's first row in the group
                segments.append((position, cell_index, params,
                                 max(start - first, 0), min(stop - first, replications)))
            tasks.append((base_seed, tuple(segments), cell_size))
    if workers == 1:
        yield from _by_cell(len(cells), replications, tasks, map(_block_task, tasks))
        return
    from concurrent.futures.process import BrokenProcessPool

    try:
        yield from _by_cell(len(cells), replications, tasks, _POOL.map(workers, tasks))
    except BrokenProcessPool:
        _POOL.close()
        raise


def _by_cell(num_cells, replications, tasks, blocks) -> Iterator:
    """Each cell's samples, or its ``_reduce_cell`` where the tasks have a
    cell size, in cell order, as soon as its last block is done.

    A cell that a block reduced whole comes as the block gave it; the rows
    of a cell are joined, and reduced and rendered here, by the same
    ``_reduce_cell``, where the tasks have a cell size.
    """
    parts = [[] for _ in range(num_cells)]
    filled = [0] * num_cells
    ready = 0
    for (_, segments, cell_size), block in zip(tasks, blocks):
        for (position, _, _, start, stop), part in zip(segments, block):
            parts[position].append(part)
            filled[position] += stop - start
        while ready < num_cells and filled[ready] == replications:
            if isinstance(parts[ready][0], tuple):  # reduced whole by its block
                yield parts[ready][0]
            elif cell_size is None:
                yield np.concatenate(parts[ready])
            else:
                yield _reduce_cell(np.concatenate(parts[ready]))
            parts[ready] = None
            ready += 1


def replicate(
    params: SimParams,
    replications: int,
    base_seed: int,
    cell_index: int = 0,
    jobs: int = 1,
) -> np.ndarray:
    """Run independent replications; (replications, rounds, metrics) array.

    Replication r is seeded with ``derive_seed(base_seed, cell_index, r)``;
    both must be integers in [0, 2**64) (``check_seed``). With ``jobs`` > 1
    the replications run on the shared process pool (see
    ``_replicate_cells``), and every block returns its rows. Identical output
    for any job count.
    """
    check_seed(base_seed)
    check_seed(cell_index)
    if replications < 1:
        raise ConfigurationError(f"replications must be >= 1, got {replications}")
    [samples] = _replicate_cells([(cell_index, params)], replications, base_seed, jobs)
    return samples


@dataclass(frozen=True)
class SweepSpec:
    """Cross-product parameter grid with replications per cell."""

    grid: tuple[tuple[str, tuple], ...]
    replications: int
    base_seed: int = 0
    base_params: SimParams = SimParams()

    def __post_init__(self) -> None:
        check_fields(self)
        check_seed(self.base_seed)
        if not self.grid:
            raise ConfigurationError("sweep grid must name at least one parameter")
        valid = {f.name for f in fields(SimParams)}
        for name, values in self.grid:
            if name not in valid:
                raise ConfigurationError(f"unknown sweep parameter {name!r}")
            if not values:
                raise ConfigurationError(f"no values given for sweep parameter {name!r}")
        if self.replications < 1:
            raise ConfigurationError(
                f"replications must be >= 1, got {self.replications}"
            )

    def cells(self) -> list[dict]:
        names = [name for name, _ in self.grid]
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(values for _, values in self.grid))
        ]


@dataclass(frozen=True)
class CellAggregate:
    """Cross-replication stats for one grid cell.

    `stats` maps stat name -> (rounds, metrics) array; `counts` holds the
    number of non-absent samples per (round, metric). `csv_rows` and
    `json_rounds` are the cell's aggregate text without its params, as
    ``serialize.aggregate_csv_rows`` and ``serialize.aggregate_json_rounds``
    render it; ``run_sweep`` renders it in the process that reduced the cell,
    and the writers only add the params.
    """

    params: dict
    stats: dict[str, np.ndarray]
    counts: np.ndarray
    csv_rows: str = field(repr=False)
    json_rounds: str = field(repr=False)


@dataclass(frozen=True)
class AggregateStats:
    replications: int
    cells: tuple[CellAggregate, ...]


STAT_NAMES = ("mean", "std", "min", "max", "p5", "p95")


def aggregate_metrics(samples: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per-(round, metric) stats over the replication axis, skipping NaNs.

    ``mean``, ``std`` (ddof 0), ``min`` and ``max`` are ``np.nanmean``,
    ``np.nanstd``, ``np.nanmin`` and ``np.nanmax`` along axis 0. The first two
    run the nan-functions' own arithmetic once over every column, without
    their per-call overhead: NaNs set to 0, sum / count, the deviations with
    NaNs set to 0 again, sum of squares / count, its square root, and NaN
    where the count is 0. ``min`` and ``max`` keep the nan-functions, because
    ``np.minimum`` and ``np.fmin`` can pick different zeros of -0.0 and 0.0.
    p5 and p95 come from ``_nan_percentiles``. ``TestAggregateMetrics`` in
    ``tests/test_harness.py`` pins the bytes of every stat.
    """
    # A sum or a square past the float range is inf, which run_sweep rejects.
    with np.errstate(invalid="ignore", over="ignore"):
        absent = np.isnan(samples)
        counts = np.sum(~absent, axis=0)
        present = np.where(absent, 0.0, samples)
        mean = np.sum(present, axis=0) / counts
        present -= mean
        present[absent] = 0.0
        present *= present
        std = np.sqrt(np.sum(present, axis=0) / counts)
        std[counts == 0] = np.nan
        stats = {"mean": mean, "std": std}
        with warnings.catch_warnings():
            # all-NaN slices (an empty class in every replication) stay NaN
            warnings.simplefilter("ignore", category=RuntimeWarning)
            stats["min"] = np.nanmin(samples, axis=0)
            stats["max"] = np.nanmax(samples, axis=0)
        # inf - inf in a column's interpolation is NaN, as in np.nanpercentile
        stats["p5"], stats["p95"] = _nan_percentiles(samples, counts)
    return stats, counts


def _reduce_cell(samples: np.ndarray) -> tuple:
    """A cell's ``aggregate_metrics`` and its aggregate text: ``(stats,
    counts, csv_rows, json_rounds)``, as ``CellAggregate`` holds them.

    ``serialize`` imports this module, so its renderers are imported here.
    """
    from .serialize import aggregate_csv_rows, aggregate_json_rounds

    stats, counts = aggregate_metrics(samples)
    return stats, counts, aggregate_csv_rows(stats, counts), aggregate_json_rounds(stats, counts)


def _nan_percentiles(samples: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.nanpercentile(samples, q, axis=0)`` at q = (5, 95), bit for bit up
    to the sign of a zero.

    A column's percentile depends only on its sorted non-NaN values. Sorting
    puts NaNs last, so a column with c values has them in its first c rows,
    and numpy's ``method="linear"`` arithmetic runs once over all columns,
    each with its own c: the virtual index ``(c - 1) * q / 100``; its floor
    and the floor + 1 as the neighbours' rows, both -1 (the last value) where
    the virtual index reaches c - 1; ``gamma`` = virtual index - floor; one
    gather of each column's two neighbours; and ``_lerp``'s two-sided form,
    ``a + (b - a) * gamma``, or ``b - (b - a) * (1 - gamma)`` where
    ``gamma >= 0.5``. A column with no value has row -1 as both neighbours,
    the last row, which is NaN.

    That last form keeps the sign of a zero ``b``. Between tied -0.0 and 0.0,
    which one lands at b's index depends on how a sort or a partition orders
    equal keys, so those columns go through ``np.percentile``'s partition of
    the sorted values, as they always have; ``np.nanpercentile`` partitions
    the unsorted values and can pick the other zero.
    ``test_percentiles_equal_nanpercentile`` and
    ``test_tied_signed_zeros_keep_their_sign`` in ``tests/test_harness.py``
    pin these bytes.
    """
    q = (5, 95)  # STAT_NAMES' "p5" and "p95"
    columns = samples.reshape(len(samples), -1)
    ordered = np.sort(columns, axis=0)
    c = counts.reshape(-1)
    virtual = (c - 1) * np.true_divide(q, 100)[:, None]
    last = virtual >= c - 1
    previous = np.where(last, -1, np.floor(virtual))
    gamma = virtual - previous
    # Flat indices of each column's two neighbours, both in row c - 1 where
    # the virtual index reaches it.
    width = columns.shape[1]
    at = np.where(last, c - 1, previous).astype(np.intp) * width + np.arange(width)
    a = ordered.reshape(-1).take(at)
    b = ordered.reshape(-1).take(at + width * ~last)
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    if (np.signbit(ordered) & (ordered == 0)).any():
        for col in np.flatnonzero(((a == 0) & (b == 0) & (gamma >= 0.5)).any(axis=0)):
            out[:, col] = np.percentile(ordered[:c[col], col], q)
    return out.reshape(len(q), *samples.shape[1:])


def run_sweep(spec: SweepSpec, jobs: int = 1) -> AggregateStats:
    """Run every grid cell x replication and aggregate across seeds.

    Each cell is reduced by ``aggregate_metrics``, and its aggregate CSV rows
    and JSON rounds are rendered, by ``_reduce_cell`` in the block that ran
    all its replications, or here when its replications span blocks (see
    ``_replicate_cells``); either way from the same contiguous rows, so the
    stats and text are identical, and the writers only add each cell's params.
    When ``jobs`` > 1, the process pool that every parallel call shares runs
    the blocks; it is started by the first such call and kept for the next.
    """
    cells = [(c, replace(spec.base_params, **o)) for c, o in enumerate(spec.cells())]
    aggregates = []
    # Closing the runs cancels their queued blocks if a cell below raises.
    with closing(_replicate_cells(cells, spec.replications, spec.base_seed, jobs,
                                  reduce=True)) as runs:
        for (stats, counts, csv_rows, json_rounds), (_, cell) in zip(runs, cells):
            # The cell's grid values as its SimParams holds them (``check_fields``).
            params = {name: getattr(cell, name) for name, _ in spec.grid}
            # Finite samples can still overflow a mean's sum or a std's squares.
            if any(np.isinf(stat).any() for stat in stats.values()):
                raise ConfigurationError(
                    f"sweep cell {params}: statistics across replications overflow "
                    "the float range"
                )
            aggregates.append(CellAggregate(params, stats, counts, csv_rows, json_rounds))
    return AggregateStats(replications=spec.replications, cells=tuple(aggregates))


@dataclass(frozen=True)
class ValidationReport:
    """Max relative error of the simulator against each closed-form series."""

    k_max: int
    tolerance: float
    max_rel_error: dict[str, float]
    passed: bool


# Largest relative error of any closed-form series for which validation passes.
TOLERANCE = 1e-9


def validate_against_analysis(a: AnalysisParams, k_max: int) -> ValidationReport:
    """Run the idealized simulator configuration and diff the closed forms.

    Per-class mean balances, the total, and value-per-token are compared at
    every round k = 1..k_max.
    """
    if not 0 <= k_max <= MAX_ROUNDS:
        raise ConfigurationError(f"k_max must be in [0, {MAX_ROUNDS}], got {k_max}")
    # The idealized setting: engaged voters always vote and disengaged ones
    # never; informed voters are always correct and uninformed ones never.
    params = SimParams(
        num_voters=a.n_ie + a.n_ue + a.n_id + a.n_ud,
        num_items=k_max,
        initial_tokens=a.t0,
        initial_stake=min(a.sigma * a.t0, a.t0),
        inflation_rate=a.delta,
        p_vote_engaged=1.0,
        p_vote_disengaged=0.0,
        p_correct_informed=1.0,
        p_correct_uninformed=0.0,
        stake_policy=AnalysisSigmaStake(a.sigma),
    )
    _check_size(params)
    # (1 + delta)^k grows with k, so k_max is the worst case. A power too
    # large raises OverflowError; a finite power times t0 gives inf instead.
    try:
        (1.0 + a.delta) ** k_max
    except OverflowError:
        overflow = f"(1 + delta)^k with delta {a.delta}"
    else:
        overflow = (None if np.isfinite(total_tokens(a, k_max))
                    else f"t0 x (1 + delta)^k with t0 {a.t0}, delta {a.delta}")
    if overflow:
        raise ConfigurationError(
            f"the closed form overflows the float range by round {k_max}: {overflow}"
        )
    # (is_engaged, is_informed), grouped by class: IE, UE, ID, UD.
    roster = np.repeat([(True, True), (True, False), (False, True), (False, False)],
                       [a.n_ie, a.n_ue, a.n_id, a.n_ud], axis=0)
    rows = _advance(init_registry(params, roster[None], [RngStream(0)])).rows
    column = dict(zip(METRIC_NAMES, rows[0].T))
    rounds = range(1, k_max + 1)
    wrong = np.flatnonzero(column["lurp_raw"] != rounds)
    if wrong.size:
        raise ConfigurationError(
            f"idealized run produced an incorrect decision at round {wrong[0] + 1}"
        )
    # (series, closed form, simulated tokens, class size): balances compare per voter.
    oracle = (
        ("t_ie", tokens_informed_engaged, column["tokens_IE"], a.n_ie),
        ("t_ue", tokens_uninformed_engaged, column["tokens_UE"], a.n_ue),
        ("t_id", tokens_disengaged, column["tokens_ID"], a.n_id),
        ("t_ud", tokens_disengaged, column["tokens_UD"], a.n_ud),
        ("t_total", total_tokens, column["t_total"], 1),
        ("value_per_token", value_per_token, column["lurp_raw"] / column["t_total"], 1),
    )
    errors = {}
    for name, closed_form, sim, size in oracle:
        if size == 0:  # an empty class has no balance to compare
            errors[name] = 0.0
            continue
        exp = np.array([closed_form(a, k) for k in rounds], dtype=float)
        errors[name] = float(
            (np.abs(sim / size - exp) / np.maximum(np.abs(exp), 1e-300)).max(initial=0.0)
        )
    return ValidationReport(
        k_max=k_max,
        tolerance=TOLERANCE,
        max_rel_error=errors,
        passed=all(e <= TOLERANCE for e in errors.values()),
    )
