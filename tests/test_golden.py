"""Golden output: CLI artifacts must match files committed with the tests.

Criterion 9 of the acceptance gate compares reruns of one checkout; these
fixtures pin the bytes across changes to the engine. Regenerate them only
with a change that is meant to alter output, and say so in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from tcrlab import harness
from tcrlab.cli import main

DATA = Path(__file__).parent / "data"

# (fixture, config written to the run directory or None, CLI arguments, artifact)
SWEEP_2CELL = {
    "grid": {"p_informed": [0.1, 0.9], "inflation_rate": [0.05]},
    "replications": 20,
    "base_seed": 5,
    "sim_params": {"num_items": 20, "num_voters": 30},
}
# Classes of 134-164 voters, so each class sum runs numpy's pairwise
# summation past its 128-element base case; full-precision output.
SWEEP_WIDE = {
    "grid": {"stake_policy": [{"kind": "protocol"}, {"kind": "analysis_sigma", "sigma": 0.05}]},
    "replications": 3,
    "base_seed": 11,
    "sim_params": {"num_voters": 600, "num_items": 10},
}

# An empty class in every replication of the p_informed 0 cell and in some
# of the 0.5 cell: stat fields left blank (count 0), counts of 3 and 5 of 6,
# and 48 nulls.
SWEEP_NAN = {
    "grid": {"p_informed": [0.0, 0.5]},
    "replications": 6,
    "base_seed": 2,
    "sim_params": {"num_items": 4, "num_voters": 4},
}

# 7 voters at an 8% stake: 192 rounds with forced abstentions, 26 non-empty
# ties and 6 empty rounds.
SMALL = {"num_voters": 7, "num_items": 200, "initial_stake": 40.0}

CASES = [
    ("trace_seed42.csv", None, ["simulate", "--seed", "42"], "trace.csv"),
    ("summary_seed42.json", None, ["simulate", "--seed", "42"], "summary.json"),
    ("trace_small_seed3.csv", SMALL, ["simulate", "{config}", "--seed", "3"], "trace.csv"),
    ("summary_small_seed3.json", SMALL, ["simulate", "{config}", "--seed", "3"], "summary.json"),
    # The default closed-form check: its errors go through the sigma stake's round path.
    ("validation_default.json", None, ["validate"], "validation.json"),
    ("chart_seed42_wealth.svg", None,
     ["plot", str(DATA / "trace_seed42.csv"), "--metric", "wealth"], "chart.svg"),
]
# Each sweep at one job and on a pool of two, whose workers reduce and
# render their cells: both must give the golden bytes.
SWEEPS = [
    ("aggregate_2cell.csv", SWEEP_2CELL, "aggregate.csv"),
    ("aggregate_2cell.json", SWEEP_2CELL, "aggregate.json"),
    ("aggregate_wide.json", SWEEP_WIDE, "aggregate.json"),
    ("aggregate_nan.csv", SWEEP_NAN, "aggregate.csv"),
    ("aggregate_nan.json", SWEEP_NAN, "aggregate.json"),
]
CASES += [(fixture, config, ["sweep", "{config}", "--jobs", jobs], artifact)
          for fixture, config, artifact in SWEEPS for jobs in ("1", "2")]
IDS = [fixture + ("-jobs2" if argv[-2:] == ["--jobs", "2"] else "")
       for fixture, _, argv, _ in CASES]


@pytest.mark.parametrize("fixture,config,argv,artifact", CASES, ids=IDS)
def test_output_matches_golden_file(tmp_path, monkeypatch, fixture, config, argv, artifact):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)  # a pool on one CPU too
    cfg = tmp_path / "config.json"
    if config is not None:
        cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [str(cfg) if a == "{config}" else a for a in argv]
    written = out / artifact
    # plot's --out names the chart; every other command's, a directory for its artifacts
    if argv[0] == "plot":
        out.mkdir()
    assert main([*argv, "--out", str(written if argv[0] == "plot" else out)]) == 0
    assert written.read_bytes() == (DATA / fixture).read_bytes()
