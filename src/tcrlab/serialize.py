"""Config parsing and file output: JSON configs, CSV traces, aggregates.

All numeric CSV fields use 12 significant digits and LF newlines so reruns
diff clean byte-for-byte; fields are quoted as ``csv.writer`` quotes them.

``aggregate.json`` is the text of ``json.dump(doc, indent=2, sort_keys=True)``
plus a final newline: a 2-space indent, sorted keys, floats as
``float.__repr__`` and NaN as ``null``. No writer calls the encoder or
``csv.writer`` per value: ``write_trace_csv`` and ``aggregate_csv_rows`` fill a
``%d``/``%.12g`` row template with one ``%`` over a trace's, or an aggregate
cell's, stacked float table and blank its ``nan`` fields;
``aggregate_json_rounds`` fills a cell's rounds template with ``repr``s. A
sweep renders each cell's text with these two in the process that reduced the
cell (``harness.run_sweep``), so the aggregate writers only add each cell's
params and write.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .harness import AggregateStats, STAT_NAMES, SweepSpec, Trace, ValidationReport
from .metrics import METRIC_NAMES
from .params import AnalysisSigmaStake, ConfigurationError, ProtocolStake, SimParams
from .voters import CLASSES

TRACE_COLUMNS = (
    "round",
    "item_good",
    "decision",
    "decision_correct",
    "stake",
    "participants",
    "forced_abstentions",
    "add_votes",
    "reject_votes",
    *METRIC_NAMES,
)

# aggregate.json lists a round's metrics, and the keys of each (round, metric)
# block, in sorted order; _ROUND_JSON is one round, 8 spaces deep.
_JSON_KEYS = sorted(("count", *STAT_NAMES))
_BY_NAME = sorted(range(len(METRIC_NAMES)), key=METRIC_NAMES.__getitem__)
_ROUND_JSON = " " * 8 + json.dumps(
    {metric: dict.fromkeys(_JSON_KEYS, "%s") for metric in METRIC_NAMES}, indent=2, sort_keys=True
).replace("\n", "\n" + " " * 8).replace('"%s"', "%s")
_JSON_CONSTANTS = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}
# A trace row for each (item_good, decision_add), at 2 * item_good + decision_add,
# and an aggregate cell's rows for one round, each led by its newline.
_TRACE_ROWS = tuple(
    f"%d,{('false', 'true')[good]},{('reject', 'add')[add]},{('false', 'true')[good == add]},"
    + "%.12g,%d,%d,%d,%d" + ",%.12g" * len(METRIC_NAMES) + "\n"
    for good in (0, 1) for add in (0, 1)
)
_AGGREGATE_ROWS = "".join(f"\n%d,{metric},{'%.12g,' * len(STAT_NAMES)}%d"
                          for metric in METRIC_NAMES)
# writerow returns what its file's write returns: here, the line it renders.
_csv_line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow


def fmt(value: float) -> str:
    """Fixed 12-significant-digit rendering; empty string for NaN."""
    if isinstance(value, float) and math.isnan(value):
        return ""
    return format(value, ".12g")


# --- params codec -----------------------------------------------------------

def stake_policy_to_dict(policy) -> dict:
    if isinstance(policy, ProtocolStake):
        return {"kind": "protocol"}
    return {"kind": "analysis_sigma", "sigma": policy.sigma}


def stake_policy_from_dict(doc: dict):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigurationError(f"stake_policy must be an object with a 'kind': {doc!r}")
    kind = doc["kind"]
    extra = set(doc) - {"kind", "sigma"}
    if extra:
        raise ConfigurationError(f"unknown stake_policy keys: {sorted(extra)}")
    if kind == "protocol":
        return ProtocolStake()
    if kind == "analysis_sigma":
        if "sigma" not in doc:
            raise ConfigurationError("analysis_sigma stake policy requires 'sigma'")
        return AnalysisSigmaStake(sigma=doc["sigma"])
    raise ConfigurationError(f"unknown stake_policy kind {kind!r}")


def params_from_dict(doc: dict) -> SimParams:
    """Build SimParams from a JSON object; unknown keys rejected, missing
    keys fall back to SimParams' defaults."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"params must be a JSON object, got {type(doc).__name__}")
    valid = {f.name for f in fields(SimParams)}
    unknown = set(doc) - valid
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(doc)
    if "stake_policy" in kwargs:
        kwargs["stake_policy"] = stake_policy_from_dict(kwargs["stake_policy"])
    try:
        return SimParams(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(str(exc)) from exc


def params_from_file(path: str | Path) -> SimParams:
    return params_from_dict(_load_json(path))


def sweep_spec_from_file(path: str | Path) -> SweepSpec:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ConfigurationError("sweep spec must be a JSON object")
    unknown = set(doc) - {"grid", "replications", "base_seed", "sim_params"}
    if unknown:
        raise ConfigurationError(f"unknown sweep spec keys: {sorted(unknown)}")
    grid_doc = doc.get("grid")
    if not isinstance(grid_doc, dict) or not grid_doc:
        raise ConfigurationError("sweep spec needs a non-empty 'grid' object")
    grid = []
    for name, values in grid_doc.items():
        values = tuple(values) if isinstance(values, list) else (values,)
        if name == "stake_policy":
            values = tuple(stake_policy_from_dict(v) for v in values)
        grid.append((name, values))
    return SweepSpec(
        grid=tuple(grid),
        replications=doc.get("replications", 500),
        base_seed=doc.get("base_seed", 0),
        base_params=params_from_dict(doc.get("sim_params", {})),
    )


def _load_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc


# --- trace output -----------------------------------------------------------

def write_trace_csv(path: Path, trace: Trace) -> None:
    c = trace.rounds
    table = np.column_stack((np.arange(len(trace.rows)), c["stake"], c["n_eligible"],
                             c["n_intends"] - c["n_eligible"], c["n_add"],
                             c["n_eligible"] - c["n_add"], trace.rows))
    rows = "".join(map(_TRACE_ROWS.__getitem__, (2 * c["item_good"] + c["decision_add"]).tolist()))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        fh.write(_blank_nans(rows % tuple(table.ravel().tolist())))


def write_summary_json(path: Path, params: SimParams, seed: int, trace: Trace) -> None:
    """``summary.json`` of the run of ``params`` seeded ``seed`` whose trace is ``trace``."""
    doc = {
        "seed": seed,
        "params": _jsonable({f.name: getattr(params, f.name) for f in fields(SimParams)}),
        "rounds": len(trace.rows),
    }
    if len(trace.rows):
        final = dict(zip(METRIC_NAMES, trace.rows[-1].tolist()))
        doc["class_counts"] = dict(zip(CLASSES, trace.class_sizes.tolist()))
        doc["final"] = {
            "lurp_raw": int(final["lurp_raw"]),
            "lurp_clamped": int(final["lurp_clamped"]),
            "t_total": final["t_total"],
            "tokens": {cls: final[f"tokens_{cls}"] for cls in CLASSES},
            "wealth": {cls: _json_num(final[f"wealth_{cls}"]) for cls in CLASSES},
        }
    _dump_json(path, doc)


# --- aggregate output -------------------------------------------------------

def write_aggregate_csv(path: Path, agg: AggregateStats) -> None:
    param_names = sorted({name for cell in agg.cells for name in cell.params})
    with open(path, "w", newline="") as fh:
        # Each row's newline leads it, so the cell's prefix follows every newline.
        fh.write(_csv_line([*param_names, "round", "metric", *STAT_NAMES, "count"])[:-1])
        for cell in agg.cells:
            # Two empty fields stop csv quoting a lone empty one; [:-2] leaves a comma.
            prefix = _csv_line([_param_str(cell.params.get(name)) for name in param_names]
                               + ["", ""])[:-2]
            fh.write(cell.csv_rows.replace("\n", "\n" + prefix))
        fh.write("\n")


def write_aggregate_json(path: Path, agg: AggregateStats) -> None:
    tail = json.dumps({"metric_names": list(METRIC_NAMES), "replications": agg.replications},
                      indent=2, sort_keys=True)
    with open(path, "w", newline="") as fh:
        fh.write('{\n  "cells": [')
        for c, cell in enumerate(agg.cells):
            params = json.dumps(_jsonable(cell.params), indent=2, sort_keys=True)
            fh.write('%s    {\n      "params": %s,\n      "rounds": %s\n    }' % (
                ",\n" if c else "\n", params.replace("\n", "\n" + " " * 6), cell.json_rounds))
        fh.write(("\n  ]," if agg.cells else "],") + tail[1:] + "\n")


def aggregate_csv_rows(stats: dict[str, np.ndarray], counts: np.ndarray) -> str:
    """A cell's ``aggregate.csv`` rows, each led by its newline and without
    the cell's params: one ``%`` over its stacked (round, stats, count) table,
    with the ``nan`` fields blanked."""
    table = np.stack([np.broadcast_to(np.arange(len(counts))[:, None], counts.shape),
                      *(stats[stat] for stat in STAT_NAMES), counts], axis=-1)
    return _blank_nans(_AGGREGATE_ROWS * len(counts) % tuple(table.ravel().tolist()))


def aggregate_json_rounds(stats: dict[str, np.ndarray], counts: np.ndarray) -> str:
    """A cell's ``rounds`` value in ``aggregate.json``, as its cell's
    ``"rounds": `` key leaves it, 6 spaces deep; ``[]`` for no rounds."""
    stats = {**stats, "count": counts}
    columns = [_json_values(stats[key][:, _BY_NAME]) for key in _JSON_KEYS]
    rounds = ",\n".join([_ROUND_JSON] * len(counts))
    rounds %= tuple(itertools.chain.from_iterable(zip(*columns)))
    return f"[\n{rounds}\n      ]" if rounds else "[]"


def write_validation_json(path: Path, report: ValidationReport) -> None:
    _dump_json(
        path,
        {
            "k_max": report.k_max,
            "tolerance": report.tolerance,
            "max_rel_error": report.max_rel_error,
            "passed": report.passed,
        },
    )


# --- helpers ----------------------------------------------------------------

def _blank_nans(text: str) -> str:
    """``fmt``'s empty field for each ``nan`` that ``%.12g`` wrote; no metric
    name, and no other field the CSV templates fill, starts with ``nan``."""
    return text.replace(",nan", ",")


def _json_values(a: np.ndarray) -> list:
    """An array's values for ``%s`` slots: ``str`` of a float is json's ``repr``."""
    values = a.ravel().tolist()
    for i in np.flatnonzero(~np.isfinite(a)):
        values[i] = _JSON_CONSTANTS[repr(values[i])]
    return values


def _param_str(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt(value)
    if isinstance(value, (ProtocolStake, AnalysisSigmaStake)):
        return json.dumps(stake_policy_to_dict(value), sort_keys=True, separators=(",", ":"))
    return str(value)


def _json_num(x: float):
    return None if math.isnan(x) else x


def _jsonable(params: dict) -> dict:
    """Params by name, with each stake policy as its JSON object."""
    return {name: stake_policy_to_dict(value)
            if isinstance(value, (ProtocolStake, AnalysisSigmaStake)) else value
            for name, value in params.items()}


def _dump_json(path: Path, doc) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
