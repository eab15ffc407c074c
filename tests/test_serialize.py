"""The aggregate writers against stdlib references kept here.

``write_aggregate_json`` and ``write_aggregate_csv`` fill string templates.
Their bytes must equal those of ``json.dump(doc, indent=2, sort_keys=True)``
and of ``csv.writer`` with 12-significant-digit numbers, which is how the
aggregate files were first written.
"""

import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tcrlab.harness import STAT_NAMES, AggregateStats, CellAggregate
from tcrlab.metrics import METRIC_NAMES
from tcrlab.params import AnalysisSigmaStake, ProtocolStake
from tcrlab.serialize import (
    _g12,
    stake_policy_to_dict,
    write_aggregate_csv,
    write_aggregate_json,
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
        cells.append(CellAggregate(params, stats, rng.integers(0, 10**6, shape)))
    return AggregateStats(replications=draw(st.integers(1, 10**6)), cells=tuple(cells))


def one_cell(stat):
    """An aggregate of one cell whose every stat column is ``stat``."""
    counts = np.arange(stat.size).reshape(stat.shape)
    return AggregateStats(3, (CellAggregate({"p_informed": 0.5}, dict.fromkeys(STAT_NAMES, stat),
                                            counts),))


# the column formatter blanks NaNs after dropping the empty string that
# follows the last value's newline
ALL_NAN = np.full((2, len(METRIC_NAMES)), np.nan)
LAST_NAN = np.linspace(-1.5, 1e17, ALL_NAN.size).reshape(ALL_NAN.shape)
LAST_NAN[-1, -1] = np.nan


@settings(max_examples=100, deadline=None)
@given(agg=aggregates())
@example(agg=one_cell(ALL_NAN))
@example(agg=one_cell(LAST_NAN))
def test_writers_match_the_stdlib_references(agg):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for write, reference in ((write_aggregate_json, reference_json),
                                 (write_aggregate_csv, reference_csv)):
            write(out / "got", agg)
            reference(out / "want", agg)
            assert (out / "got").read_bytes() == (out / "want").read_bytes(), write.__name__


@pytest.mark.parametrize("column", [ALL_NAN, LAST_NAN, np.array(EDGES), np.empty((0, 11))],
                         ids=["all-nan", "last-nan", "edges", "empty"])
def test_column_formatter_gives_one_string_a_value(column):
    assert _g12(column) == [g12(x) for x in column.ravel().tolist()]
