"""tcrlab benchmark: one workload, timed untraced (--trace 0) or per layer (--trace 1).

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). Lines before it repeat
the metrics for people, with the machine they were measured on. Traced runs
also leave their spans in ``.perfbench_out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from probe import REFERENCE_PROBE_S, probe_cpus, rescale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Set-up samples per run. Process start-up on shared hosts swings by a third
# at sub-second scale, so the samples are spread over the whole run.
SETUP_SAMPLES = 11

# Fresh interpreter: import the CLI, build the workload's inputs, then probe
# the speed of the CPU it ran on (the first probe warms up).
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}]
import tcrlab.cli
t1 = time.perf_counter()
sys.path[:0] = [{bench!r}]
import workloads
workloads.WORKLOADS[{name!r}]({seed!r}, None)
from probe import probe
print(t1 - t0, probe(), probe(), probe())
"""


class Timer:
    """Times steps, each rescaled by the probes taken just before and after it."""

    def __init__(self, cpus: int):
        self.cpus = cpus
        self.raw: list[float] = []
        self.scaled: list[float] = []
        probe_cpus(cpus)   # warm-up
        self.probes = [probe_cpus(cpus)]

    def reprobe(self) -> None:
        self.probes[-1] = probe_cpus(self.cpus)

    def add(self, elapsed: float) -> None:
        self.probes.append(probe_cpus(self.cpus))
        self.raw.append(elapsed)
        self.scaled.append(rescale(elapsed, self.probes[-2], self.probes[-1]))


class Setup:
    """Set-up times of fresh interpreters, raw and rescaled, and their import times."""

    def __init__(self, name: str, seed: int):
        self.code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed)
        self.raw, self.scaled, self.import_s = [], [], []
        self.sample()   # the first one may compile bytecode
        self.raw, self.scaled, self.import_s = [], [], []

    def sample(self) -> None:
        start = perf_counter()
        done = subprocess.run([sys.executable, "-c", self.code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        wall = perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")
        import_s, warm_up, *probes = map(float, done.stdout.split()[-4:])
        self.raw.append(wall - warm_up - sum(probes))
        self.scaled.append(rescale(self.raw[-1], *probes))
        self.import_s.append(import_s)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus the largest of its children (Linux kB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def run_untraced(w, seconds: float, setup: Setup) -> tuple[Tally, dict]:
    tally = Tally()
    tally.add(w.op(0)[2])   # warm-up: first pool, lazy imports, first check
    timer, rounds = Timer(w.cpus), 0
    start = perf_counter()
    i = 1
    while perf_counter() - start < seconds or len(timer.scaled) < 2:
        if len(setup.raw) * seconds < (perf_counter() - start) * SETUP_SAMPLES:
            setup.sample()
            timer.reprobe()
        elapsed, voter_rounds, ok = w.op(i)
        timer.add(elapsed)
        tally.add(ok)
        rounds += voter_rounds
        i += 1
    while len(setup.raw) < SETUP_SAMPLES:
        setup.sample()
    if w.name == "sweep-grid":
        # 1-worker output must match the multi-worker output byte for byte.
        tally.add(w.op(0, jobs=1)[2])
    times = timer.scaled
    busy = sum(times)
    deciles = statistics.quantiles([t * 1e3 for t in times], n=10)
    print(f"unscaled: setup_s {statistics.median(setup.raw):.6g}, "
          f"op_ms.p50 {statistics.median(timer.raw) * 1e3:.6g}, "
          f"probe median {statistics.median(timer.probes) * 1e3:.4g} ms "
          f"(reference {REFERENCE_PROBE_S * 1e3:g} ms)")
    metrics = {
        "setup_s": (statistics.median(setup.scaled), "s"),
        "voter_rounds_per_s": (rounds / busy, "1/s"),
        "ops_per_s": (len(times) / busy, "1/s"),
        "op_ms.p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms.p90": (deciles[8], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "success_rate": (1.0 - tally.failed / tally.attempted, "ratio"),
    }
    return tally, metrics


def run_traced(w, seconds: float, setup: Setup) -> tuple[Tally, dict]:
    import layers

    tally = Tally()
    for i in range(w.pass_ops):   # warm-up pass, which also checks each input
        tally.add(w.op(i)[2])
    passes, tracer = [], None
    start = perf_counter()
    while perf_counter() - start < seconds or not passes:
        values, tracer, oks = layers.trace_pass(w)
        for ok in oks:
            tally.add(ok)
        passes.append(values)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{w.name}-seed{w.seed}.csv"
    tracer.write_spans(spans)
    print(f"spans of the last traced pass: {spans}", file=sys.stderr)
    while len(setup.import_s) < SETUP_SAMPLES:
        setup.sample()
    metrics = {"cli.import_s": (statistics.median(setup.import_s), "s")}
    for name, unit in layers.METRICS.items():
        series = [p.get(name, 0.0) for p in passes]
        if name in layers.EXACT:
            if len(set(series)) != 1:
                print(f"{name} differs between passes over the same inputs: {series}",
                      file=sys.stderr)
                tally.add(False)
            metrics[name] = (series[0], unit)
        else:
            metrics[name] = (statistics.median(series), unit)
    return tally, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tcrlab" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'tcrlab'} not found; run from a tcrlab checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import numpy
    import tcrlab
    import workloads

    if Path(tcrlab.__file__).resolve().parent != SRC / "tcrlab":
        print(f"perfbench: imported tcrlab from {tcrlab.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    setup = Setup(args.workload, args.seed)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    w = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        if args.trace:
            tally, metrics = run_traced(w, args.seconds, setup)
        else:
            tally, metrics = run_untraced(w, args.seconds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"machine: {os.cpu_count()} CPUs ({workloads.workers()} workers used), "
          f"Python {platform.python_version()}, numpy {numpy.__version__}")
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {tally.attempted} operations, "
          f"{tally.failed} failed (error_rate {tally.failed / tally.attempted:g})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
