"""Seeded end-to-end runs, replicated sweeps, and oracle validation.

A run is a pure function of (params, seed). Sweep replications derive their
seeds from (base_seed, cell index, replication index) through a fixed
64-bit mixer, so results are identical no matter how many workers execute
them or in which order.
"""

from __future__ import annotations

import itertools
import os
import threading
import warnings
from collections.abc import Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass, fields, replace

import numpy as np

from .analysis import (
    AnalysisParams,
    tokens_disengaged,
    tokens_informed_engaged,
    tokens_uninformed_engaged,
    total_tokens,
    value_per_token,
)
from .metrics import CLASS_ORDER, METRIC_NAMES, metric_rows
from .params import AnalysisSigmaStake, ConfigurationError, SimParams, check_fields, check_seed
from .protocol import (
    InvariantViolation,
    RoundRecord,
    TcrState,
    block_key,
    init_registry,
    run_round,
)
from .voters import RngStream, sample_roster


@dataclass(frozen=True)
class RunConfig:
    """One simulation run: parameters and seed."""

    sim_params: SimParams
    base_seed: int = 0

    def __post_init__(self) -> None:
        check_seed(self.base_seed)


def run_simulation(
    config: RunConfig, roster: Sequence[tuple[bool, bool]] | np.ndarray | None = None
) -> list[tuple[RoundRecord, np.ndarray]]:
    """Execute all rounds; returns the full (audit, metrics row) trace.

    This is the lockstep kernel with one replication. Each metrics row is a
    float array in METRIC_NAMES order. A fixed roster, N (is_engaged,
    is_informed) pairs, may be supplied (no roster draws are consumed then);
    otherwise the roster is sampled from the stream first.
    """
    params = config.sim_params
    _check_size(params)
    rng = RngStream(config.base_seed)
    if roster is None:
        roster = sample_roster(params, rng)
    state = init_registry(params, [roster])
    records = []
    rows = _advance(state, [rng], lambda rnd: records.append(rnd.record()))
    return list(zip(records, rows[0]))


def run_block(params: Sequence[SimParams], seeds: list[int]) -> np.ndarray:
    """Replications in lockstep, row r with ``params[r]`` and a stream seeded
    ``seeds[r]``; (len(seeds), rounds, metrics) array.

    The params must share a ``block_key``. Each replication's rows are those
    ``run_simulation`` gives for its params and seed.
    """
    rngs = [RngStream(seed) for seed in seeds]
    state = init_registry(params, [sample_roster(p, rng) for p, rng in zip(params, rngs)])
    return _advance(state, rngs)


def _advance(state: TcrState, rngs: list[RngStream], on_round=None) -> np.ndarray:
    """Run every round of a block; returns its (R, rounds, metrics) rows.

    ``on_round``, if given, is called with each round's ``Round``. What the
    metrics need is observed after each round; the rows are computed once,
    at the end.
    """
    rows, rounds = len(rngs), state.num_items
    v_correct = np.empty((rows, rounds), dtype=np.int64)
    t_total = np.empty((rows, rounds))
    tokens = np.empty((rows, rounds, len(CLASS_ORDER)))
    with np.errstate(over="ignore", invalid="ignore"):  # run_round checks every row
        for k in range(rounds):
            rnd = run_round(state, rngs)
            if on_round is not None:
                on_round(rnd)
            v_correct[:, k] = state.v_correct
            t_total[:, k] = rnd.total
            tokens[:, k] = state.class_tokens()
    return metric_rows(state.clamp_value[:, None], state.class_sizes[:, None], v_correct,
                       np.arange(1, rounds + 1), t_total, tokens)


_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(base_seed: int, cell_index: int, rep_index: int) -> int:
    """Fixed 64-bit mixing of (base seed, grid cell, replication)."""
    h = base_seed & _MASK64
    h = _mix64(h ^ _mix64(cell_index & _MASK64))
    return _mix64(h ^ _mix64(rep_index & _MASK64))


# Voter slots (replications x voters) per lockstep block; larger groups of
# replications are split into more blocks, which bounds a block's memory.
BLOCK_SLOTS = 2**18
# Voters of one replication. A block never splits a replication, so this
# bound keeps every block within BLOCK_SLOTS.
MAX_VOTERS = BLOCK_SLOTS
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


# A block task: the base seed, and the block's segments in row order. A
# segment (position, cell_index, params, start, stop) holds replications
# start..stop-1 of the cell at ``position`` in the list of cells.
Segment = tuple[int, int, SimParams, int, int]


def _block_task(task: tuple[int, tuple[Segment, ...]]) -> np.ndarray:
    base_seed, segments = task
    rows = [(cell_index, params, rep)
            for _, cell_index, params, start, stop in segments for rep in range(start, stop)]
    try:
        return run_block([params for _, params, _ in rows],
                         [derive_seed(base_seed, cell_index, rep) for cell_index, _, rep in rows])
    except InvariantViolation as exc:
        cell_index, _, rep = ("?", None, "?") if exc.row is None else rows[exc.row]
        raise InvariantViolation(f"cell {cell_index}, replication {rep}: {exc}") from exc


class _SharedPool:
    """The process pool that parallel calls share.

    The first parallel call starts it and later calls with the same worker
    count reuse it, so repeated sweeps pay pool start-up once. A call that
    needs another worker count first shuts the old pool down and waits for
    it, so at most one pool is alive and no process forks while an old
    pool's threads still run. Workers start with the pool, so they do not
    see later changes to this process's module state. The pool shuts down
    at interpreter exit.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._workers = 0

    def map(self, workers: int, tasks: list) -> Iterator[np.ndarray]:
        """``_block_task`` of each task, in order, on ``workers`` processes.

        As ``Executor.map``: each result is released once read, and blocks
        not yet started are cancelled when the iterator is closed or dropped.
        """
        with self._lock:
            if self._executor is None or self._workers != workers:
                self._shutdown()
                self._executor = ProcessPoolExecutor(max_workers=workers)
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


def _replicate_cells(
    cells: list[tuple[int, SimParams]], replications: int, base_seed: int, jobs: int
) -> Iterator[np.ndarray]:
    """Each cell's (replications, rounds, metrics) samples, in the order given.

    Cells with the same ``block_key`` (num_voters, num_items and the stake
    policy kind) form a group, wherever they sit in the list. A group's
    replications are laid end to end in (cell, replication) order and cut
    into contiguous lockstep blocks, one per worker, or more when a block
    would exceed BLOCK_SLOTS or MAX_ROW_ROUNDS; a block can span cells. With
    more than one worker (at most one per CPU and per replication) the
    blocks run on the process pool that every parallel call shares; it is
    started on the first such call and kept. Blocks not yet started are
    cancelled when the caller stops reading, and a pool found broken is
    dropped, so the next call starts a fresh one. Results are placed by
    (cell, replication), so the output is identical for any job count.
    """
    workers = max(1, min(jobs, os.cpu_count() or 1, replications * len(cells)))
    groups: dict[tuple, list] = {}
    for position, (cell_index, params) in enumerate(cells):
        _check_size(params, replications)
        groups.setdefault(block_key(params), []).append((position, cell_index, params))
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
            tasks.append((base_seed, tuple(segments)))
    if workers == 1:
        yield from _by_cell(len(cells), replications, tasks, map(_block_task, tasks))
        return
    try:
        yield from _by_cell(len(cells), replications, tasks, _POOL.map(workers, tasks))
    except BrokenProcessPool:
        _POOL.close()
        raise


def _by_cell(num_cells, replications, tasks, blocks) -> Iterator[np.ndarray]:
    """Each cell's samples, in cell order, as soon as its last block is done."""
    parts = [[] for _ in range(num_cells)]
    filled = [0] * num_cells
    ready = 0
    for (_, segments), block in zip(tasks, blocks):
        offset = 0
        for position, _, _, start, stop in segments:
            parts[position].append(block[offset:offset + stop - start])
            filled[position] += stop - start
            offset += stop - start
        while ready < num_cells and filled[ready] == replications:
            yield np.concatenate(parts[ready])
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

    Replication r is seeded with ``derive_seed(base_seed, cell_index, r)``.
    With ``jobs`` > 1 the replications run on the shared process pool (see
    ``_replicate_cells``). Identical output for any job count.
    """
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
    number of non-absent samples per (round, metric).
    """

    params: dict
    stats: dict[str, np.ndarray]
    counts: np.ndarray


@dataclass(frozen=True)
class AggregateStats:
    replications: int
    cells: tuple[CellAggregate, ...]


STAT_NAMES = ("mean", "std", "min", "max", "p5", "p95")


def aggregate_metrics(samples: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per-(round, metric) stats over the replication axis, skipping NaNs."""
    with np.errstate(invalid="ignore"):
        counts = np.sum(~np.isnan(samples), axis=0)
        with warnings.catch_warnings():
            # all-NaN slices (an empty class in every replication) stay NaN
            warnings.simplefilter("ignore", category=RuntimeWarning)
            stats = {
                "mean": np.nanmean(samples, axis=0),
                "std": np.nanstd(samples, axis=0),
                "min": np.nanmin(samples, axis=0),
                "max": np.nanmax(samples, axis=0),
            }
    stats["p5"], stats["p95"] = _nan_percentiles(samples, counts, (5, 95))
    return stats, counts


def _nan_percentiles(samples: np.ndarray, counts: np.ndarray, q) -> np.ndarray:
    """``np.nanpercentile(samples, q, axis=0)``, bit for bit.

    A column's percentile depends only on its sorted non-NaN values. Sorting
    puts NaNs last, so a column with c values has them in its first c rows,
    and one ``np.percentile`` call serves every column with c values.
    """
    columns = samples.reshape(len(samples), -1)
    ordered = np.sort(columns, axis=0)
    flat_counts = counts.reshape(-1)
    out = np.full((len(q), columns.shape[1]), np.nan)
    for c in np.unique(flat_counts[flat_counts > 0]):
        cols = np.flatnonzero(flat_counts == c)
        out[:, cols] = np.percentile(ordered[:c, cols], q, axis=0)
    return out.reshape(len(q), *samples.shape[1:])


def run_sweep(spec: SweepSpec, jobs: int = 1) -> AggregateStats:
    """Run every grid cell x replication and aggregate across seeds.

    When ``jobs`` > 1, the process pool that every parallel call shares runs
    the replications of every cell; it is started by the first such call and
    kept for the next (see ``_replicate_cells``).
    """
    overrides = spec.cells()
    cells = [(c, replace(spec.base_params, **o)) for c, o in enumerate(overrides)]
    aggregates = []
    # Closing the runs cancels their queued blocks if a cell below raises.
    with closing(_replicate_cells(cells, spec.replications, spec.base_seed, jobs)) as runs:
        for samples, params in zip(runs, overrides):
            stats, counts = aggregate_metrics(samples)
            # Finite samples can still overflow a mean's sum or a std's squares.
            if any(np.isinf(stat).any() for stat in stats.values()):
                raise ConfigurationError(
                    f"sweep cell {params}: statistics across replications overflow "
                    "the float range"
                )
            aggregates.append(CellAggregate(params=params, stats=stats, counts=counts))
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
    try:
        total_tokens(a, k_max)  # (1 + delta)^k grows with k, so k_max is the worst case
    except OverflowError as exc:
        raise ConfigurationError(
            f"the closed form overflows the float range by round {k_max}: "
            f"(1 + delta)^k with delta {a.delta}"
        ) from exc
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
    # (is_engaged, is_informed), grouped by class: IE, UE, ID, UD.
    roster = (
        [(True, True)] * a.n_ie
        + [(True, False)] * a.n_ue
        + [(False, True)] * a.n_id
        + [(False, False)] * a.n_ud
    )
    rows = _advance(init_registry(params, [roster]), [RngStream(0)])[0]
    column = dict(zip(METRIC_NAMES, rows.T))
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
