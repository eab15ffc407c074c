"""The benchmark's three workloads: inputs made from a seed, one operation, and its check.

Each workload builds a small cycle of distinct inputs from the workload seed.
The first output of each input is checked against ``reference``; every
later output of the same input must be byte-identical to it. An operation
fails when it raises, when its check fails, or when its bytes differ.

Workloads call tcrlab only through module attributes (``harness.run_sweep``,
``cli.main``, ...), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import reference as ref
from tcrlab import cli, harness, serialize
from tcrlab.params import SimParams

AGG_REL_TOL = 1e-12   # stats against the reference (ROADMAP item 4's tolerance)
CSV_REL_TOL = 1e-11   # trace.csv numbers carry 12 significant digits
VALIDATE_TOL = 1e-9


def child_seed(seed: int, *key: int, bits: int = 63) -> int:
    state = np.random.SeedSequence([seed & (2**64 - 1), *key]).generate_state(1, np.uint64)
    return int(state[0]) >> (64 - bits)


def workers() -> int:
    """min(2, nproc): never more workers than the CPUs this process may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


class Workload:
    name = ""
    pass_ops = 1   # operations in one pass of the traced run
    cpus = 1       # processes that run an operation at once

    def __init__(self, seed: int, workdir: Path | None):
        self.seed = seed
        self.workdir = workdir
        self.inputs = self.make_inputs(seed)
        self.verified: dict[int, tuple[str, bool]] = {}

    def make_inputs(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, inp, jobs: int) -> None:
        raise NotImplementedError

    def digest(self) -> str:
        raise NotImplementedError

    def check(self, inp) -> list[str]:
        raise NotImplementedError

    def voter_rounds(self, inp) -> int:
        raise NotImplementedError

    def op(self, i: int, jobs: int | None = None) -> tuple[float, int, bool]:
        """Run operation ``i``: (seconds, voter-rounds, output correct)."""
        k = i % len(self.inputs)
        inp = self.inputs[k]
        # One output directory per input, as users give each run its own: a
        # file rewritten right after its last write can wait for writeback.
        self.out = self.workdir / f"input{k}"
        self.out.mkdir(parents=True, exist_ok=True)
        start = perf_counter()
        try:
            self.run(inp, workers() if jobs is None else jobs)
        except Exception:
            elapsed = perf_counter() - start
            print(f"{self.name}: input {k} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return elapsed, 0, False
        elapsed = perf_counter() - start
        digest = self.digest()
        if k not in self.verified:
            problems = self.check(inp)
            for problem in problems:
                print(f"{self.name}: input {k}: {problem}", file=sys.stderr)
            self.verified[k] = (digest, not problems)
        expected, ok = self.verified[k]
        if digest != expected:
            print(f"{self.name}: input {k}: output bytes differ from the first run",
                  file=sys.stderr)
        return elapsed, self.voter_rounds(inp), ok and digest == expected

    def _hash_files(self, names) -> str:
        h = hashlib.sha256()
        for name in names:
            h.update((self.out / name).read_bytes())
        return h.hexdigest()


# --- sweep-grid -------------------------------------------------------------

# The acceptance grid's seven (p_informed, inflation_rate) cells. They are not
# a cross product, so they run as two cross-product sweeps.
GRID_SWEEPS = (
    (("p_informed", (0.1, 0.5)), ("inflation_rate", (0.0, 0.02))),
    (("p_informed", (0.9,)), ("inflation_rate", (0.0, 0.02, 0.05))),
)


class SweepGrid(Workload):
    name = "sweep-grid"
    # 32 replications give each of two workers one chunk of 16.
    replications = 32
    cpus = workers()

    def make_inputs(self, seed):
        return [
            [harness.SweepSpec(grid=grid, replications=self.replications,
                               base_seed=child_seed(seed, k, s))
             for s, grid in enumerate(GRID_SWEEPS)]
            for k in range(3)
        ]

    def run(self, specs, jobs):
        for s, spec in enumerate(specs):
            agg = harness.run_sweep(spec, jobs=jobs)
            serialize.write_aggregate_csv(self.out / f"aggregate{s}.csv", agg)
            serialize.write_aggregate_json(self.out / f"aggregate{s}.json", agg)

    def digest(self):
        return self._hash_files(
            f"aggregate{s}.{ext}" for s in range(len(GRID_SWEEPS)) for ext in ("csv", "json")
        )

    def voter_rounds(self, specs):
        p = SimParams()
        return sum(len(spec.cells()) for spec in specs) * self.replications \
            * p.num_voters * p.num_items

    def check(self, specs):
        problems = []
        for s, spec in enumerate(specs):
            doc = json.loads((self.out / f"aggregate{s}.json").read_text())
            with open(self.out / f"aggregate{s}.csv", newline="") as fh:
                csv_rows = list(csv.DictReader(fh))
            if doc["metric_names"] != list(ref.METRICS) or doc["replications"] != spec.replications:
                problems.append(f"aggregate{s}.json: wrong metric names or replication count")
                continue
            cells = spec.cells()
            if len(doc["cells"]) != len(cells):
                problems.append(f"aggregate{s}.json: {len(doc['cells'])} cells, expected {len(cells)}")
                continue
            row = 0
            for c, (overrides, cell) in enumerate(zip(cells, doc["cells"])):
                where = f"aggregate{s} cell {overrides}"
                params = replace(SimParams(), **overrides)
                samples = ref.replicate(params, spec.replications, spec.base_seed, c)
                stats, counts = ref.aggregate(samples)
                if cell["params"] != overrides or len(cell["rounds"]) != params.num_items:
                    problems.append(f"{where}: wrong params or round count")
                    continue
                got = {st: np.full(counts.shape, np.nan) for st in ref.STATS}
                got_counts = np.zeros(counts.shape, dtype=int)
                for r, per_metric in enumerate(cell["rounds"]):
                    for m, metric in enumerate(ref.METRICS):
                        entry = per_metric[metric]
                        got_counts[r, m] = entry["count"]
                        for st in ref.STATS:
                            if entry[st] is not None:
                                got[st][r, m] = entry[st]
                            if csv_rows[row][st] != _fmt12(entry[st]):
                                problems.append(f"{where}: CSV {st} differs from JSON at row {row}")
                        if csv_rows[row]["count"] != str(entry["count"]):
                            problems.append(f"{where}: CSV count differs from JSON at row {row}")
                        row += 1
                if not np.array_equal(got_counts, counts):
                    problems.append(f"{where}: counts differ from the reference")
                scale = np.fmax(np.abs(stats["min"]), np.abs(stats["max"]))
                for st in ref.STATS:
                    if not ref.close(got[st], stats[st], scale, AGG_REL_TOL):
                        problems.append(f"{where}: {st} differs from the reference")
            if row != len(csv_rows):
                problems.append(f"aggregate{s}.csv: {len(csv_rows)} rows, expected {row}")
        return problems[:20]


def _fmt12(value) -> str:
    return "" if value is None else format(value, ".12g")


# --- wide-roster ------------------------------------------------------------

class WideRoster(Workload):
    name = "wide-roster"
    replications = 4
    pass_ops = 2

    def make_inputs(self, seed):
        params = SimParams(num_voters=1000)
        return [(params, child_seed(seed, k)) for k in range(4)]

    def run(self, inp, jobs):
        params, base_seed = inp
        self.samples = harness.replicate(params, self.replications, base_seed)

    def digest(self):
        return hashlib.sha256(
            repr(self.samples.shape).encode() + np.ascontiguousarray(self.samples).tobytes()
        ).hexdigest()

    def voter_rounds(self, inp):
        params, _ = inp
        return self.replications * params.num_voters * params.num_items

    def check(self, inp):
        params, base_seed = inp
        expected = ref.replicate(params, self.replications, base_seed)
        if self.samples.shape != expected.shape:
            return [f"shape {self.samples.shape}, expected {expected.shape}"]
        scale = np.nanmax(np.abs(expected), axis=0, initial=0.0)
        if not ref.close(self.samples, expected, np.broadcast_to(scale, expected.shape),
                         AGG_REL_TOL):
            return ["replicate output differs from the reference"]
        return []


# --- single-runs ------------------------------------------------------------

PLOT_METRICS = ("wealth", "tokens", "value")
SINGLE_FILES = ("trace.csv", "summary.json", "chart.svg", "validation.json")


class SingleRuns(Workload):
    name = "single-runs"
    pass_ops = 12

    def make_inputs(self, seed):
        inputs = []
        for k in range(24):
            g = np.random.Generator(np.random.PCG64(child_seed(seed, k)))
            # 100 voters in every validate run, so each operation does the same work.
            n_ie = int(g.integers(30, 46))
            n_ue = int(g.integers(10, n_ie))
            n_id = int(g.integers(5, 100 - n_ie - n_ue - 4))
            classes = (n_ie, n_ue, n_id, 100 - n_ie - n_ue - n_id)
            inputs.append({
                "seed": child_seed(seed, k, 1, bits=31),
                "metric": PLOT_METRICS[k % len(PLOT_METRICS)],
                "sigma": float(g.uniform(0.02, 0.1)),
                "delta": float(g.uniform(0.0, 0.05)),
                "classes": classes,
            })
        return inputs

    def run(self, inp, jobs):
        d = str(self.out)
        self.codes = (
            cli.main(["simulate", "--seed", str(inp["seed"]), "--out", d]),
            cli.main(["plot", os.path.join(d, "trace.csv"), "--metric", inp["metric"],
                      "--out", os.path.join(d, "chart.svg")]),
            cli.main(["validate", "--sigma", repr(inp["sigma"]), "--delta", repr(inp["delta"]),
                      "--classes", ",".join(map(str, inp["classes"])), "--out", d]),
        )

    def digest(self):
        return repr(self.codes) + self._hash_files(SINGLE_FILES)

    def voter_rounds(self, inp):
        p = SimParams()
        return (p.num_voters + sum(inp["classes"])) * p.num_items

    def check(self, inp):
        if self.codes != (0, 0, 0):
            return [f"exit codes {self.codes}, expected (0, 0, 0)"]
        problems = []
        params = SimParams()
        metrics, audit = ref.simulate(params, inp["seed"])
        with open(self.out / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != params.num_items:
            return [f"trace.csv has {len(rows)} rounds, expected {params.num_items}"]
        got_audit = np.array([
            [row["item_good"] == "true", row["decision"] == "add",
             row["decision_correct"] == "true", int(row["participants"]),
             int(row["forced_abstentions"]), int(row["add_votes"]),
             int(row["reject_votes"]), float(row["stake"])]
            for row in rows
        ])
        if not np.array_equal(got_audit[:, :-1], audit[:, :-1]):
            problems.append("trace.csv: decisions or vote counts differ from the reference")
        if not ref.close(got_audit[:, -1], audit[:, -1], audit[:, -1], CSV_REL_TOL):
            problems.append("trace.csv: stakes differ from the reference")
        got = np.array([[math.nan if row[m] == "" else float(row[m]) for m in ref.METRICS]
                        for row in rows])
        if not ref.close(got, metrics, metrics, CSV_REL_TOL):
            problems.append("trace.csv: metrics differ from the reference")

        summary = json.loads((self.out / "summary.json").read_text())
        final = summary.get("final", {})
        last = dict(zip(ref.METRICS, metrics[-1]))
        got_final = [final.get("lurp_raw"), final.get("lurp_clamped"), final.get("t_total")]
        got_final += [final.get("tokens", {}).get(c) for c in ("IE", "ID", "UE", "UD")]
        got_final += [final.get("wealth", {}).get(c) for c in ("IE", "ID", "UE", "UD")]
        got_final = np.array([math.nan if v is None else v for v in got_final], dtype=float)
        expected = np.array(list(last.values()))
        if (summary.get("seed") != inp["seed"] or summary.get("rounds") != params.num_items
                or sum(summary.get("class_counts", {}).values()) != params.num_voters
                or not ref.close(got_final, expected, expected, AGG_REL_TOL)):
            problems.append("summary.json differs from the reference")

        svg = (self.out / "chart.svg").read_text()
        if not (svg.startswith("<svg") and svg.endswith("</svg>\n") and "<polyline" in svg):
            problems.append("chart.svg is not a complete chart")

        report = json.loads((self.out / "validation.json").read_text())
        errors = report.get("max_rel_error", {})
        if not (report.get("passed") is True and errors
                and all(e <= VALIDATE_TOL for e in errors.values())):
            problems.append(f"validate does not pass at {VALIDATE_TOL}: {errors}")
        return problems


WORKLOADS = {w.name: w for w in (SweepGrid, WideRoster, SingleRuns)}
