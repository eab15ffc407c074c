"""The trace and aggregate writers against stdlib references kept here.

``write_aggregate_json`` fills a string template, and ``write_aggregate_csv``
and ``write_trace_csv`` fill row templates from stacked float tables. Their
bytes must equal those of ``json.dump(doc, indent=2, sort_keys=True)`` and of
``csv.writer`` with 12-significant-digit numbers, which is how these files
were first written.
"""

import csv
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcrlab.harness import (
    STAT_NAMES,
    AggregateStats,
    CellAggregate,
    SweepSpec,
    Trace,
    run_simulation,
    run_sweep,
)
from tcrlab.metrics import METRIC_NAMES
from tcrlab.params import AnalysisSigmaStake, ProtocolStake, SimParams
from tcrlab.serialize import (
    TRACE_COLUMNS,
    aggregate_csv_rows,
    aggregate_json_rounds,
    fmt,
    stake_policy_to_dict,
    write_aggregate_csv,
    write_aggregate_json,
    write_summary_json,
    write_trace_csv,
)

POLICIES = (ProtocolStake, AnalysisSigmaStake)


def reference_json(path, agg):
    cells = []
    for cell in agg.cells:
        stats = {s: cell.stats[s].tolist() for s in STAT_NAMES}
        rounds = [
            {
                metric: {
                    **{s: None if math.isnan(stats[s][r][m]) else stats[s][r][m]
                       for s in STAT_NAMES},
                    "count": counts[m],
                }
                for m, metric in enumerate(METRIC_NAMES)
            }
            for r, counts in enumerate(cell.counts.tolist())
        ]
        params = {key: stake_policy_to_dict(value) if isinstance(value, POLICIES) else value
                  for key, value in cell.params.items()}
        cells.append({"params": params, "rounds": rounds})
    doc = {"metric_names": list(METRIC_NAMES), "replications": agg.replications, "cells": cells}
    with open(path, "w", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def g12(value):
    return "" if math.isnan(value) else format(value, ".12g")


def param_text(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return g12(value)
    if isinstance(value, POLICIES):
        return json.dumps(stake_policy_to_dict(value), sort_keys=True, separators=(",", ":"))
    return str(value)


def reference_csv(path, agg):
    names = sorted({name for cell in agg.cells for name in cell.params})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*names, "round", "metric", *STAT_NAMES, "count"])
        for cell in agg.cells:
            cols = [param_text(cell.params.get(name)) for name in names]
            for r, counts in enumerate(cell.counts.tolist()):
                for m, metric in enumerate(METRIC_NAMES):
                    writer.writerow(cols + [str(r), metric]
                                    + [g12(cell.stats[s][r, m]) for s in STAT_NAMES]
                                    + [str(counts[m])])


# Values where a float's text changes form: NaN, the infinities, signed
# zero, subnormals, and 1e16, where repr switches to an exponent.
EDGES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e16, 9999999999999998.0,
         1e15, 123456789012.5, 0.1, -1e-5]
stat_values = st.one_of(st.sampled_from(EDGES), st.floats())
param_values = st.one_of(
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(),
    st.text(alphabet=' a,"%\n\ré', max_size=5),
    st.just(ProtocolStake()),
    st.floats(0.01, 0.99).map(AnalysisSigmaStake),
)


@st.composite
def aggregates(draw):
    # Each cell's numbers come from a few drawn values, placed at random.
    rounds = draw(st.integers(0, 3))
    shape = (rounds, len(METRIC_NAMES))
    cells = []
    for _ in range(draw(st.integers(0, 3))):
        pool = draw(st.lists(stat_values, min_size=1, max_size=6))
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        params = draw(st.dictionaries(
            st.sampled_from(["clamp_value", "num_voters", "p_informed", "label", "stake_policy"]),
            param_values, max_size=3))
        stats = {s: rng.choice(np.array(pool), shape) for s in STAT_NAMES}
        cells.append(rendered_cell(params, stats, rng.integers(0, 10**6, shape)))
    return AggregateStats(replications=draw(st.integers(1, 10**6)), cells=tuple(cells))


def rendered_cell(params, stats, counts):
    """A cell with its aggregate text, as ``run_sweep`` renders it."""
    return CellAggregate(params, stats, counts, aggregate_csv_rows(stats, counts),
                         aggregate_json_rounds(stats, counts))


def one_cell(stat, params=None):
    """An aggregate of one cell whose every stat column is ``stat``."""
    counts = np.arange(stat.size).reshape(stat.shape)
    return AggregateStats(3, (rendered_cell(params or {"p_informed": 0.5},
                                            dict.fromkeys(STAT_NAMES, stat), counts),))


def reference_trace(path, trace):
    c = {name: column.tolist() for name, column in trace.rounds.items()}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for k, row in enumerate(trace.rows.tolist()):
            good, add, eligible = c["item_good"][k], c["decision_add"][k], c["n_eligible"][k]
            writer.writerow([k, param_text(good), "add" if add else "reject",
                             param_text(add == good), fmt(c["stake"][k]), eligible,
                             c["n_intends"][k] - eligible, c["n_add"][k], eligible - c["n_add"][k],
                             *map(fmt, row)])


def trace_of(rows, stake):
    """A trace with these metric rows and stakes, and every item/decision pair."""
    rounds = len(rows)
    intends = np.arange(rounds) * 7 + 3
    columns = {"stake": np.asarray(stake, float), "item_good": np.arange(rounds) % 2 == 1,
               "decision_add": np.arange(rounds) % 4 >= 2, "n_intends": intends,
               "n_eligible": intends - np.arange(rounds) % 3, "n_add": intends // 2}
    return Trace(np.asarray(rows, float).reshape(rounds, len(METRIC_NAMES)), columns,
                 np.zeros(4, np.int64))


@st.composite
def traces(draw):
    rounds = draw(st.integers(0, 5))
    pool = np.array(draw(st.lists(stat_values, min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    trace = trace_of(rng.choice(pool, (rounds, len(METRIC_NAMES))), rng.choice(pool, rounds))
    for name in ("item_good", "decision_add"):
        trace.rounds[name][:] = rng.random(rounds) < 0.5
    return trace


# Edge columns: all NaN; NaN only at the very end, where the last row's
# newline follows it; every edge value; no rows.
ALL_NAN = np.full((2, len(METRIC_NAMES)), np.nan)
LAST_NAN = np.linspace(-1.5, 1e17, ALL_NAN.size).reshape(ALL_NAN.shape)
LAST_NAN[-1, -1] = np.nan
EDGE_ROWS = np.resize(EDGES, (len(EDGES), len(METRIC_NAMES)))
COLUMNS = {"all-nan": ALL_NAN, "last-nan": LAST_NAN, "edges": EDGE_ROWS,
           "empty": np.empty((0, len(METRIC_NAMES)))}
# A 4-voter roster at p_informed 0 has no informed voters: its two informed
# wealth columns are NaN in every round.
EMPTY_CLASS = run_simulation(SimParams(num_items=6, num_voters=4, p_informed=0.0), 1)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("writers")


def same_bytes(out, writer, reference, data):
    writer(out / "got", data)
    reference(out / "want", data)
    assert (out / "got").read_bytes() == (out / "want").read_bytes(), writer.__name__


@settings(max_examples=100, deadline=None)
@given(agg=aggregates())
@example(agg=one_cell(ALL_NAN))
@example(agg=one_cell(LAST_NAN))
@example(agg=one_cell(ALL_NAN, {"label": "nan", "p": "nanx"}))  # NaN text outside the stats
def test_writers_match_the_stdlib_references(out, agg):
    same_bytes(out, write_aggregate_json, reference_json, agg)
    same_bytes(out, write_aggregate_csv, reference_csv, agg)


@settings(max_examples=30, deadline=None)
@given(trace=traces())
@example(trace=EMPTY_CLASS)
@example(trace=run_simulation(SimParams(num_items=0), 1))
def test_trace_writer_matches_the_stdlib_reference(out, trace):
    same_bytes(out, write_trace_csv, reference_trace, trace)


@pytest.mark.parametrize("column", COLUMNS.values(), ids=COLUMNS.keys())
def test_edge_columns_match_the_references(out, column):
    same_bytes(out, write_aggregate_json, reference_json, one_cell(column))
    same_bytes(out, write_aggregate_csv, reference_csv, one_cell(column))
    same_bytes(out, write_trace_csv, reference_trace, trace_of(column, column[:, 0]))


def test_a_float32_grid_writes_the_bytes_of_its_float_twin(out):
    """numpy params are stored as Python numbers, so a run computes in float64:
    1 + a float32 rate is no longer a float32, which overflowed in a cast and
    broke the inflation check against the float64 rate column."""
    rates = (np.float32(0.0), np.float32(0.05))
    for name, values in (("f32", rates), ("f64", tuple(map(float, rates)))):
        spec = SweepSpec(grid=(("inflation_rate", values),), replications=2,
                         base_params=SimParams(num_voters=20, num_items=10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            agg = run_sweep(spec)
        write_aggregate_csv(out / f"{name}.csv", agg)
        write_aggregate_json(out / f"{name}.json", agg)
    for ext in ("csv", "json"):
        assert (out / f"f32.{ext}").read_bytes() == (out / f"f64.{ext}").read_bytes(), ext


def test_an_int64_run_writes_the_summary_of_its_int_twin(out):
    for name, n in (("i64", np.int64(10)), ("int", 10)):
        params = SimParams(num_voters=n, num_items=n)
        write_summary_json(out / f"{name}.json", params, 3, run_simulation(params, 3))
    assert (out / "i64.json").read_bytes() == (out / "int.json").read_bytes()
