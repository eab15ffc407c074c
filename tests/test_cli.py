import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tcrlab
from tcrlab import harness
from tcrlab.cli import main
from tcrlab.harness import (
    MAX_ROUNDS,
    MAX_ROW_ROUNDS,
    MAX_VOTERS,
    aggregate_metrics,
    replicate,
)
from tcrlab.metrics import METRIC_NAMES
from tcrlab.params import AnalysisSigmaStake, ProtocolStake, SimParams
from tcrlab.serialize import TRACE_COLUMNS


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_default_run_writes_schema(self, tmp_path):
        assert main(["simulate", "--seed", "42", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "trace.csv", newline="") as fh:
            header = fh.readline().rstrip("\n")
        assert header == ",".join(TRACE_COLUMNS)
        rows = read_rows(tmp_path / "trace.csv")
        assert len(rows) == 50
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["seed"] == 42
        assert summary["rounds"] == 50
        assert sum(summary["class_counts"].values()) == 100

    def test_no_inflation_total_constant(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"inflation_rate": 0.0})
        assert main(["simulate", cfg, "--seed", "1", "--out", str(tmp_path)]) == 0
        totals = {row["t_total"] for row in read_rows(tmp_path / "trace.csv")}
        assert len(totals) == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--seed", "9", "--out", str(out1)])
        main(["simulate", "--seed", "9", "--out", str(out2)])
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_summary_params_round_trip(self, tmp_path):
        idealized = {"p_vote_engaged": 1.0, "p_vote_disengaged": 0.0,
                     "p_correct_informed": 1.0, "p_correct_uninformed": 0.0}
        for i, doc in enumerate([{"p_informed": 0.9, "num_items": 20}, idealized]):
            cfg = write_json(tmp_path / f"cfg{i}.json", doc)
            out1 = tmp_path / f"a{i}"
            main(["simulate", cfg, "--seed", "5", "--out", str(out1)])
            summary = json.loads((out1 / "summary.json").read_text())
            cfg2 = write_json(tmp_path / f"echo{i}.json", summary["params"])
            out2 = tmp_path / f"b{i}"
            main(["simulate", cfg2, "--seed", "5", "--out", str(out2)])
            assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"informedness": 0.9})
        assert main(["simulate", cfg, "--out", str(tmp_path)]) == 2

    def test_invalid_value_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {"initial_tokens": 0})
        assert main(["simulate", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_config_exits_3(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 3

    def test_tie_rule_is_not_a_config_key(self, tmp_path, capsys):
        check_not_a_config_key(tmp_path, capsys, "tie_rule", "reject_and_refund")

    def test_behavior_mode_is_not_a_config_key(self, tmp_path, capsys):
        check_not_a_config_key(tmp_path, capsys, "behavior_mode", "degenerate_ideal")


def check_not_a_config_key(tmp_path, capsys, key, value):
    """Outputs do not carry the key, and a config that sets it exits 2 naming it."""
    assert main(["simulate", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert key not in summary and key not in summary["params"]
    cfg = write_json(tmp_path / "cfg.json", {key: value})
    assert main(["simulate", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: unknown config keys: ['{key}']\n"


@pytest.mark.parametrize(
    "config,argv",
    [
        ('{"inflation_rate": NaN}', ["simulate", "{config}"]),
        ('{"initial_tokens": Infinity}', ["simulate", "{config}"]),
        (None, ["validate", "--delta", "nan"]),
        (None, ["validate", "--sigma", "inf"]),
        ('{"grid": {"inflation_rate": [NaN]}, "replications": 1}', ["sweep", "{config}"]),
    ],
)
@pytest.mark.filterwarnings("error")
def test_non_finite_input_exits_2_with_one_line(tmp_path, capsys, config, argv):
    run_bad_input(tmp_path, capsys, config, argv, "must be finite")


@pytest.mark.parametrize(
    "config,argv,message",
    [
        ('{"num_voters": 10.5}', ["simulate", "{config}"], "num_voters must be an integer"),
        ('{"p_engaged": true}', ["simulate", "{config}"], "p_engaged must be a number"),
        ('{"clamp_value": 1}', ["simulate", "{config}"], "clamp_value must be true or false"),
        (None, ["simulate", "--seed", "-1"], "seed must be an integer in [0, 2**64)"),
        (None, ["simulate", "--seed", str(2**64)], "seed must be an integer in [0, 2**64)"),
        ('{"grid": {"p_informed": [0.5]}, "replications": "3"}', ["sweep", "{config}"],
         "replications must be an integer"),
        ('{"grid": {"p_informed": [0.5]}, "replications": 1, "base_seed": -1}',
         ["sweep", "{config}"], "seed must be an integer in [0, 2**64)"),
        (None, ["validate", "--t0", "1e-5", "--k", "1760", "--delta", "0.5"],
         "the closed form overflows the float range by round 1760: "
         "(1 + delta)^k with delta 0.5\n"),
        (None, ["validate", "--t0", "1e300", "--delta", "0.9", "--k", "1000"],
         "the closed form overflows the float range by round 1000: "
         "t0 x (1 + delta)^k with t0 1e+300, delta 0.9\n"),
        ('{"initial_tokens": 1e307, "initial_stake": 1}', ["simulate", "{config}"],
         "the initial supply"),
        ('{"grid": {"initial_tokens": [1e307]}, "replications": 1,'
         ' "sim_params": {"initial_stake": 1}}', ["sweep", "{config}"], "the initial supply"),
        ('{"grid": {"initial_tokens": [1e307]}, "replications": 2, "base_seed": 1,'
         ' "sim_params": {"num_voters": 1, "num_items": 1}}', ["sweep", "{config}"],
         "statistics across replications overflow the float range"),
        (None, ["validate", "--t0", "1e308", "--k", "5", "--delta", "0.5"], "the initial supply"),
        ('{"initial_tokens": 5e-324, "initial_stake": 0, "p_informed": 0.9}',
         ["simulate", "{config}"], "the initial supply"),
        (None, ["validate", "--t0", "5e-324"], "the initial supply"),
        ('{"num_voters": 1%s}' % ("0" * 400), ["simulate", "{config}"], "the initial supply"),
        (b"round\xff\n", ["plot", "{config}", "--metric", "tokens"], "codec can't decode"),
        (",".join(TRACE_COLUMNS) + "\nx" + ",1" * (len(TRACE_COLUMNS) - 1) + "\n",
         ["plot", "{config}", "--metric", "value"], "could not convert string to float: 'x'"),
        (",".join(TRACE_COLUMNS) + "\n0" + ",1" * (len(TRACE_COLUMNS) - 2) + ",inf\n",
         ["plot", "{config}", "--metric", "wealth"], "'inf' is not a finite number"),
        (",".join(TRACE_COLUMNS) + "\n0" + ",1" * 8 + ",1e308" + ",1" * 10
         + "\n1" + ",1" * 8 + ",-1e308" + ",1" * 10 + "\n",
         ["plot", "{config}", "--metric", "value"], "span more than the float range"),
        # Python 3.10's csv rejects the NUL; later versions read it as a bad number.
        (",".join(TRACE_COLUMNS) + "\n\0" + ",1" * (len(TRACE_COLUMNS) - 1) + "\n",
         ["plot", "{config}", "--metric", "value"], "cfg.json: "),
        ('{"grid": {"p_informed": [0.5]}, "replications": 1}', ["sweep", "{config}", "--jobs", "0"],
         "jobs must be >= 1, got 0\n"),
        ('{"grid": {"p_informed": [0.5]}, "replications": 1}',
         ["sweep", "{config}", "--jobs", "-3"], "jobs must be >= 1, got -3\n"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, config, argv, message):
    run_bad_input(tmp_path, capsys, config, argv, message)


@pytest.mark.parametrize(
    "config,argv",
    [
        ({"num_voters": 10**20}, ["simulate", "{config}"]),
        ({"num_voters": MAX_VOTERS + 1}, ["simulate", "{config}"]),
        ({"grid": {"num_voters": [10**20]}, "replications": 2}, ["sweep", "{config}"]),
        ({"grid": {"p_informed": [0.5]}, "replications": 2,
          "sim_params": {"num_voters": MAX_VOTERS + 1}}, ["sweep", "{config}", "--jobs", "2"]),
        (None, ["validate", "--classes", f"{10**20},1,1,1"]),
        (None, ["validate", "--classes", f"{MAX_VOTERS - 2},1,1,1"]),
    ],
)
def test_too_many_voters_exits_2_before_allocating(tmp_path, capsys, config, argv):
    """Only sizes rejected before any array is allocated are tried here."""
    cfg = write_json(tmp_path / "cfg.json", config)
    argv = [cfg if a == "{config}" else a for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: num_voters must be <= {MAX_VOTERS}, got ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config,argv,message",
    [
        ({"num_items": 10**20}, ["simulate", "{config}"], "num_items must be <= "),
        ({"num_items": MAX_ROUNDS + 1}, ["simulate", "{config}"], "num_items must be <= "),
        ({"grid": {"num_items": [10**20]}, "replications": 2}, ["sweep", "{config}"],
         "num_items must be <= "),
        ({"grid": {"p_informed": [0.5]}, "replications": 2,
          "sim_params": {"num_items": MAX_ROUNDS + 1}}, ["sweep", "{config}", "--jobs", "2"],
         "num_items must be <= "),
        (None, ["validate", "--delta", "0", "--k", str(10**20)], "k_max must be in [0, "),
        (None, ["validate", "--k", str(MAX_ROUNDS + 1)], "k_max must be in [0, "),
    ],
)
def test_too_many_rounds_exits_2_before_allocating(tmp_path, capsys, config, argv, message):
    """Only round counts rejected before any array is allocated are tried here."""
    cfg = write_json(tmp_path / "cfg.json", config)
    argv = [cfg if a == "{config}" else a for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and str(MAX_ROUNDS) in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config,argv",
    [
        ({"grid": {"p_informed": [0.5]}, "replications": 100000,
          "sim_params": {"num_voters": 1, "num_items": 1000000}}, ["sweep", "{config}"]),
        ({"grid": {"p_informed": [0.1, 0.9]}, "replications": MAX_ROW_ROUNDS // 64 + 1,
          "sim_params": {"num_voters": 1, "num_items": 64}}, ["sweep", "{config}", "--jobs", "2"]),
    ],
)
def test_too_many_samples_exits_2_before_allocating(tmp_path, capsys, config, argv):
    """A cell's replications x rounds is bounded even when each axis is within its own."""
    cfg = write_json(tmp_path / "cfg.json", config)
    argv = [cfg if a == "{config}" else a for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: replications x num_items must be <= ")
    assert str(MAX_ROW_ROUNDS) in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,message", [
    (["validate", "--k", "x"], "argument --k: invalid int value: 'x'"),
    ([], "the following arguments are required: command"),
    (["plot", "a.csv", "--metric", "volume", "--out", "b.svg"], "argument --metric: invalid"),
    (["validate", "a\nb"], "unrecognized arguments: a b"),
])
def test_usage_error_prints_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}"), err


def write_config(tmp_path, config, argv):
    """Write ``config`` (text or bytes) to cfg.json; argv with "{config}" replaced."""
    cfg = tmp_path / "cfg.json"
    if isinstance(config, bytes):
        cfg.write_bytes(config)
    elif config is not None:
        cfg.write_text(config)
    return [str(cfg) if a == "{config}" else a for a in argv]


def run_bad_input(tmp_path, capsys, config, argv, message):
    """Run the CLI in-process: exit 2, one stderr line naming the fault, no output."""
    argv = write_config(tmp_path, config, argv)
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_module_entry_point_exits_2_with_one_line(tmp_path):
    """``python -m tcrlab.cli`` passes main's exit code and its one stderr line on."""
    argv = write_config(tmp_path, '{"num_voters": 10.5}', ["simulate", "{config}"])
    env = {**os.environ, "PYTHONPATH": str(Path(tcrlab.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "tcrlab.cli", *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert done.stderr == "error: num_voters must be an integer, got 10.5\n"
    assert not (tmp_path / "out").exists()


class TestSweep:
    def spec_doc(self, reps=4):
        return {
            "grid": {"p_informed": [0.1, 0.9], "inflation_rate": [0.0, 0.02]},
            "replications": reps,
            "base_seed": 3,
            "sim_params": {"num_items": 10, "num_voters": 20},
        }

    def test_writes_aggregate_files(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", self.spec_doc())
        assert main(["sweep", spec, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "aggregate.csv")
        # 4 cells x 10 rounds x 11 metrics
        assert len(rows) == 4 * 10 * 11
        assert {"mean", "std", "min", "max", "p5", "p95", "count"} <= set(rows[0])
        agg = json.loads((tmp_path / "aggregate.json").read_text())
        assert len(agg["cells"]) == 4
        assert agg["replications"] == 4

    def test_jobs_do_not_change_output(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", self.spec_doc())
        out1, out8 = tmp_path / "j1", tmp_path / "j8"
        assert main(["sweep", spec, "--jobs", "1", "--out", str(out1)]) == 0
        assert main(["sweep", spec, "--jobs", "8", "--out", str(out8)]) == 0
        assert (out1 / "aggregate.csv").read_bytes() == (out8 / "aggregate.csv").read_bytes()
        assert (out1 / "aggregate.json").read_bytes() == (out8 / "aggregate.json").read_bytes()

    # Cell-spanning sweeps that each job count cuts differently. mixed: both stake
    # policies, clamping and inflation in one grid. tall: one 24-row block
    # reads its streams ahead at --jobs 1, two 12-row blocks call them round
    # by round at --jobs 2. span3: at --jobs 2 cells 0 and 2 are reduced whole
    # in their blocks and cell 1 spans both; cell 2's informed classes are
    # empty. ring: 4-round history rings at --jobs 1, 8-round ones at --jobs 2.
    CROSS_JOB = {
        "mixed": {"grid": {"stake_policy": [{"kind": "protocol"},
                                            {"kind": "analysis_sigma", "sigma": 0.1}],
                           "clamp_value": [True, False], "inflation_rate": [0.0, 0.05]},
                  "replications": 9, "base_seed": 3, "sim_params": {"num_items": 20}},
        "tall": {"grid": {"p_informed": [0.5]}, "replications": 24, "base_seed": 5,
                 "sim_params": {"num_items": 20}},
        "span3": {"grid": {"p_informed": [0.5, 0.9, 0.0]}, "replications": 6, "base_seed": 4,
                  "sim_params": {"num_items": 20}},
        "ring": {"grid": {"p_informed": [0.5]}, "replications": 300, "base_seed": 6,
                 "sim_params": {"num_items": 22, "num_voters": 50}},
    }

    @pytest.mark.parametrize("name", CROSS_JOB)
    def test_cross_job_sweeps_write_the_same_bytes(self, tmp_path, monkeypatch, name):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        spec = write_json(tmp_path / "spec.json", self.CROSS_JOB[name])
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        assert main(["sweep", spec, "--jobs", "1", "--out", str(out1)]) == 0
        assert main(["sweep", spec, "--jobs", "2", "--out", str(out2)]) == 0
        for file in ("aggregate.csv", "aggregate.json"):
            assert (out1 / file).read_bytes() == (out2 / file).read_bytes(), file

    def test_empty_grid_exits_2(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", {"grid": {}, "replications": 1})
        assert main(["sweep", spec, "--out", str(tmp_path)]) == 2

    def test_stake_policy_grid_matches_replicate(self, tmp_path):
        doc = self.spec_doc(reps=6)
        doc["grid"] = {"stake_policy": [{"kind": "protocol"},
                                        {"kind": "analysis_sigma", "sigma": 0.1}]}
        doc["sim_params"]["initial_stake"] = 40.0
        spec = write_json(tmp_path / "spec.json", doc)
        assert main(["sweep", spec, "--out", str(tmp_path)]) == 0
        agg = json.loads((tmp_path / "aggregate.json").read_text())
        policies = [ProtocolStake(), AnalysisSigmaStake(0.1)]
        base = SimParams(num_items=10, num_voters=20, initial_stake=40.0)
        means = []
        for c, (policy, cell) in enumerate(zip(policies, agg["cells"])):
            assert cell["params"] == {"stake_policy": doc["grid"]["stake_policy"][c]}
            samples = replicate(replace(base, stake_policy=policy), 6, 3, c)
            stats, counts = aggregate_metrics(samples)
            for name, want in [*stats.items(), ("count", counts)]:
                got = [[np.nan if rnd[m][name] is None else rnd[m][name] for m in METRIC_NAMES]
                       for rnd in cell["rounds"]]
                assert np.array_equal(np.array(got), want, equal_nan=True), name
            means.append(stats["mean"])
        assert not np.array_equal(*means, equal_nan=True)  # the policy matters here
        rows = read_rows(tmp_path / "aggregate.csv")
        assert [json.loads(rows[0]["stake_policy"]), json.loads(rows[-1]["stake_policy"])] \
            == doc["grid"]["stake_policy"]

    def test_unknown_grid_parameter_exits_2(self, tmp_path):
        spec = write_json(
            tmp_path / "spec.json", {"grid": {"nope": [1]}, "replications": 1}
        )
        assert main(["sweep", spec, "--out", str(tmp_path)]) == 2


class TestValidate:
    def test_reference_case_exits_0(self, tmp_path):
        rc = main([
            "validate", "--sigma", "0.05", "--delta", "0.02",
            "--classes", "30,20,30,20", "--k", "50", "--out", str(tmp_path),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "validation.json").read_text())
        assert report["passed"]
        assert max(report["max_rel_error"].values()) <= 1e-9

    def test_premise_violation_exits_2(self, tmp_path):
        rc = main([
            "validate", "--classes", "20,30,30,20", "--out", str(tmp_path),
        ])
        assert rc == 2

    def test_zero_rounds_exits_0(self, tmp_path):
        rc = main(["validate", "--k", "0", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "validation.json").read_text())
        assert all(e == 0.0 for e in report["max_rel_error"].values())


class TestPlot:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        main(["simulate", "--seed", "42", "--out", str(tmp_path)])
        return tmp_path / "trace.csv"

    def test_wealth_family_has_four_polylines(self, trace_path, tmp_path):
        out = tmp_path / "wealth.svg"
        assert main(["plot", str(trace_path), "--metric", "wealth", "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 4
        assert "uninformed disengaged" in svg

    def test_value_family_has_two_polylines(self, trace_path, tmp_path):
        out = tmp_path / "value.svg"
        assert main(["plot", str(trace_path), "--metric", "value", "--out", str(out)]) == 0
        assert out.read_text().count("<polyline") == 2

    def test_tokens_family(self, trace_path, tmp_path):
        out = tmp_path / "tokens.svg"
        assert main(["plot", str(trace_path), "--metric", "tokens", "--out", str(out)]) == 0
        assert out.read_text().count("<polyline") == 4

    def test_deterministic_output(self, trace_path, tmp_path):
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["plot", str(trace_path), "--metric", "tokens", "--out", str(out1)])
        main(["plot", str(trace_path), "--metric", "tokens", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_family_exits_2(self, trace_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["plot", str(trace_path), "--metric", "volume", "--out", "x.svg"])
        assert exc.value.code == 2

    def test_schema_mismatch_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["plot", str(bad), "--metric", "wealth", "--out", str(tmp_path / "o.svg")]) == 2

    def test_single_cell_aggregate_plots(self, tmp_path):
        spec = write_json(
            tmp_path / "spec.json",
            {
                "grid": {"p_informed": [0.9]},
                "replications": 3,
                "sim_params": {"num_items": 10, "num_voters": 20},
            },
        )
        main(["sweep", spec, "--out", str(tmp_path)])
        out = tmp_path / "agg.svg"
        rc = main(["plot", str(tmp_path / "aggregate.csv"), "--metric", "wealth", "--out", str(out)])
        assert rc == 0
        assert out.read_text().count("<polyline") == 4

    def test_multi_cell_aggregate_rejected(self, tmp_path):
        spec = write_json(
            tmp_path / "spec.json",
            {
                "grid": {"p_informed": [0.1, 0.9]},
                "replications": 2,
                "sim_params": {"num_items": 5, "num_voters": 20},
            },
        )
        main(["sweep", spec, "--out", str(tmp_path)])
        rc = main(["plot", str(tmp_path / "aggregate.csv"), "--metric", "wealth",
                   "--out", str(tmp_path / "o.svg")])
        assert rc == 2
