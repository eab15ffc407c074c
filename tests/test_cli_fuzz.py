"""Fuzz test of the CLI's exit-code contract, with ``cli.main`` run in-process.

Every input ends with exit 0, 2 or 3, or with 1 from a ``validate`` that
wrote ``passed: false``; no other exception leaves ``main``. A nonzero exit,
an argparse usage error included, prints one line on stderr. Exit 0 prints
nothing on stderr and writes only finite numbers. Run sizes are bounded (at
most 30 voters, 15 items and 3 replications) only to keep the test fast, and
sweeps run with ``--jobs 1``.
"""

import contextlib
import csv
import io
import json
import math
import re
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tcrlab.cli import PLOT_FAMILIES, main
from tcrlab.harness import STAT_NAMES
from tcrlab.metrics import METRIC_NAMES
from tcrlab.params import SimParams
from tcrlab.serialize import TRACE_COLUMNS

SIZE_BOUNDS = {"num_voters": 30, "num_items": 15, "replications": 3}
PARAM_KEYS = [f.name for f in fields(SimParams)]

special = st.sampled_from([math.inf, -math.inf, math.nan, 1e307, 5e-324])
scalars = st.one_of(
    st.integers(-3, 3), st.floats(0, 1), special, st.booleans(), st.text(max_size=3), st.none()
)
junk = st.one_of(
    scalars,
    st.lists(scalars, max_size=2),
    st.dictionaries(st.text(max_size=3), scalars, max_size=2),
)
# Values that often make a valid run; any other key is a probability.
PLAUSIBLE = {
    "num_voters": st.integers(1, SIZE_BOUNDS["num_voters"]),
    "num_items": st.integers(0, SIZE_BOUNDS["num_items"]),
    "replications": st.integers(1, SIZE_BOUNDS["replications"]),
    "initial_tokens": st.one_of(st.floats(1, 1e3), st.sampled_from([1e307, 1e308, 5e-324])),
    "initial_stake": st.floats(0, 1),
    "inflation_rate": st.one_of(st.floats(0, 1), special),
    "stake_policy": st.one_of(
        st.just({"kind": "protocol"}),
        st.floats(0.01, 0.99).map(lambda sigma: {"kind": "analysis_sigma", "sigma": sigma}),
    ),
    "clamp_value": st.booleans(),
}


def mostly(good, bad):
    """``good`` about nine times in ten, else ``bad``."""
    return st.integers(0, 7).flatmap(lambda i: bad if i == 5 else good)


def values(key):
    """Values for one config key; a size key never gets a large integer."""
    if key in SIZE_BOUNDS:
        bad = st.one_of(st.integers(-1, 0), junk.filter(_not_int))
    elif key == "stake_policy":
        bad = st.one_of(junk, st.fixed_dictionaries(
            {"kind": st.sampled_from(["analysis_sigma", "other"])}, optional={"sigma": scalars}))
    else:
        bad = st.one_of(st.integers(-3, 200), junk)
    return mostly(PLAUSIBLE.get(key, st.floats(0, 1)), bad)


def _not_int(value):
    return not isinstance(value, int) or isinstance(value, bool)


@st.composite
def sim_params_docs(draw):
    # The sizes and the initial supply are always set; other keys at random.
    keys = ["num_voters", "num_items", "initial_tokens", "initial_stake"]
    keys += draw(st.lists(st.sampled_from(PARAM_KEYS), unique=True, max_size=3))
    keys += draw(mostly(st.just([]), st.sampled_from([["behavior_mode"], ["tie_rule"], ["x"]])))
    return {key: draw(values(key)) for key in keys}


@st.composite
def sweep_specs(draw):
    names = draw(st.lists(st.sampled_from(PARAM_KEYS), min_size=1, max_size=2, unique=True))
    grid = {name: draw(mostly(st.lists(values(name), min_size=1, max_size=3), values(name)))
            for name in names}
    return {
        "grid": grid,
        "replications": draw(values("replications")),
        "sim_params": draw(sim_params_docs()),
        "base_seed": draw(mostly(st.integers(0, 2**64 - 1),
                                 st.one_of(st.sampled_from([-1, 2**64]), junk))),
        **draw(mostly(st.just({}), st.just({"x": 1}))),
    }


seeds = mostly(st.integers(0, 2**64 - 1).map(str), st.sampled_from(["-1", str(2**64), "x"]))
bad_number_texts = st.sampled_from(["inf", "-inf", "nan", "1e307", "5e-324", "-1", "x"])
validate_flags = st.fixed_dictionaries({}, optional={
    "--sigma": mostly(st.floats(0.01, 0.99).map(repr), bad_number_texts),
    "--delta": mostly(st.floats(0, 1).map(repr), bad_number_texts),
    "--t0": mostly(st.one_of(st.floats(1e-3, 1e3).map(repr),
                             st.sampled_from(["1e307", "1e308", "5e-324"])), bad_number_texts),
})
AGGREGATE_COLUMNS = ("p_informed", "round", "metric", *STAT_NAMES, "count")
cell_numbers = st.one_of(
    st.integers(-3, 60).map(str), st.floats(-1e3, 1e3).map(repr), st.just("")
)
cell_junk = st.sampled_from(
    ["inf", "-inf", "nan", "1e307", "-1e307", "1e308", "-1e308", "5e-324", "x", "", "\0"]
)


@st.composite
def csv_files(draw):
    """A trace or an aggregate, most often well formed, with up to two faults."""
    if draw(st.booleans()):
        header = list(AGGREGATE_COLUMNS)
        rows = [["0.5", str(r), metric, draw(cell_numbers), "0", "0", "0", "0", "0", "1"]
                for r in range(draw(st.integers(0, 2))) for metric in METRIC_NAMES]
    else:
        header = list(TRACE_COLUMNS)
        rows = [[str(r), *(draw(cell_numbers) for _ in TRACE_COLUMNS[1:])]
                for r in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["cell", "cell", "width", "header"]))
        if fault == "header":
            del header[draw(st.integers(0, len(header) - 1))]
        elif rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            if fault == "cell":
                row[draw(st.integers(0, len(row) - 1))] = draw(cell_junk)
            else:
                row.append("1")
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([header, *rows])
    return text.getvalue().encode()


def run(argv, files):
    """Run ``main`` in a fresh directory and check the exit-code contract."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, data in files.items():
            (root / name).write_bytes(data)
        argv = [a.replace("{dir}", tmp) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                assert exc.code == 2
                code = exc.code
        lines = err.getvalue().splitlines()
        out = root / "out"
        if code == 0:
            assert lines == []
            for path in sorted(out.rglob("*")) if out.is_dir() else [out]:
                assert_finite(path.read_text())
        elif code == 1:
            assert argv[0] == "validate" and lines == []
            assert json.loads((out / "validation.json").read_text())["passed"] is False
        else:
            assert code in (2, 3)
            assert len(lines) == 1 and lines[0].startswith(("error: ", "i/o error: "))


def assert_finite(text):
    """Every token of the text that reads as a number is finite."""
    for token in re.findall(r"[-+\w.]+", text):
        try:
            number = float(token)
        except ValueError:
            continue
        assert math.isfinite(number), token


def json_bytes(doc):
    return json.dumps(doc).encode()


FUZZ = settings(max_examples=60, deadline=None)


@FUZZ
@given(config=mostly(sim_params_docs(), junk), seed=seeds)
def test_simulate(config, seed):
    run(["simulate", "{dir}/cfg.json", f"--seed={seed}", "--out={dir}/out"],
        {"cfg.json": json_bytes(config)})


@FUZZ
@given(spec=mostly(sweep_specs(), junk))
def test_sweep(spec):
    run(["sweep", "{dir}/spec.json", "--jobs=1", "--out={dir}/out"],
        {"spec.json": json_bytes(spec)})


@FUZZ
@given(
    flags=validate_flags,
    classes=mostly(st.lists(st.integers(0, 7).map(str), min_size=4, max_size=4),
                   st.lists(st.sampled_from(["-1", "1", "x", ""]), max_size=5)),
    k=mostly(st.integers(0, 15).map(str), st.sampled_from(["-1", "x", "1.5"])),
)
def test_validate(flags, classes, k):
    argv = ["validate", f"--classes={','.join(classes)}", f"--k={k}", "--out={dir}/out"]
    run(argv + [f"{flag}={value}" for flag, value in flags.items()], {})


@FUZZ
@given(
    data=mostly(csv_files(), st.binary(max_size=40)),
    metric=mostly(st.sampled_from(sorted(PLOT_FAMILIES)), st.just("volume")),
)
def test_plot(data, metric):
    run(["plot", "{dir}/in.csv", f"--metric={metric}", "--out={dir}/out"], {"in.csv": data})
