"""Command-line entry point: simulate, sweep, validate, plot.

Exit codes: 0 success, 2 configuration/validation error, 3 I/O or
worker-process failure (a pool worker of ``sweep --jobs N`` died).
`validate` additionally exits 1 when the simulator-vs-closed-form errors
exceed the tolerance, printing the worst series, its error and the tolerance.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from pathlib import Path

from .analysis import AnalysisParams
from .harness import run_sweep, run_simulation, validate_against_analysis
from .params import ConfigurationError, SimParams
from .serialize import (
    TRACE_COLUMNS,
    open_output,
    params_from_file,
    sweep_spec_from_file,
    write_aggregate_csv,
    write_aggregate_json,
    write_summary_json,
    write_trace_csv,
    write_validation_json,
)
from .svg import render_line_chart

PLOT_FAMILIES = {
    "tokens": ("tokens_IE", "tokens_ID", "tokens_UE", "tokens_UD"),
    "wealth": ("wealth_IE", "wealth_ID", "wealth_UE", "wealth_UD"),
    "value": ("lurp_raw", "lurp_clamped"),
}

CLASS_LABELS = {
    "IE": "informed engaged",
    "ID": "informed disengaged",
    "UE": "uninformed engaged",
    "UD": "uninformed disengaged",
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors print one ``error: ...`` line.

    ``add_subparsers`` builds the subcommands' parsers with this class too.
    """

    def error(self, message: str):
        self.exit(2, f"error: {' '.join(message.splitlines())}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tcrlab",
        description="Token-curated registry simulator with participation inflation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one seeded simulation")
    p_sim.add_argument("config", nargs="?", help="JSON config (defaults if omitted)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.set_defaults(run=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a replicated parameter sweep")
    p_sweep.add_argument("spec", help="JSON sweep spec")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", default=".")
    p_sweep.set_defaults(run=_cmd_sweep)

    p_val = sub.add_parser("validate", help="check the engine against the closed forms")
    p_val.add_argument("--sigma", type=float, default=0.05)
    p_val.add_argument("--delta", type=float, default=0.02)
    p_val.add_argument(
        "--classes",
        default="30,20,30,20",
        help="n_IE,n_UE,n_ID,n_UD class counts",
    )
    p_val.add_argument("--k", type=int, default=50)
    p_val.add_argument("--t0", type=float, default=100.0)
    p_val.add_argument("--out", default=".")
    p_val.set_defaults(run=_cmd_validate)

    p_plot = sub.add_parser("plot", help="render an SVG chart from a trace or aggregate")
    p_plot.add_argument("input", help="trace.csv or aggregate.csv")
    p_plot.add_argument("--metric", required=True, choices=sorted(PLOT_FAMILIES))
    p_plot.add_argument("--out", required=True, help="output SVG path")
    p_plot.set_defaults(run=_cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except _worker_failures() as exc:
        print(f"error: worker process failed: {' '.join(str(exc).splitlines())}",
              file=sys.stderr)
        return 3


def _worker_failures() -> tuple[type[Exception], ...]:
    """``BrokenProcessPool`` once a parallel run has loaded the pool machinery.

    Before that no run can have raised it, so nothing is caught and nothing is
    imported: serial commands never load the pool machinery. An ``except``
    clause evaluates this only when an exception reaches it.
    """
    process = sys.modules.get("concurrent.futures.process")
    return () if process is None else (process.BrokenProcessPool,)


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = SimParams() if args.config is None else params_from_file(args.config)
    trace = run_simulation(params, args.seed)
    out = _out_dir(args.out)
    write_trace_csv(out / "trace.csv", trace)
    write_summary_json(out / "summary.json", params, args.seed, trace)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = sweep_spec_from_file(args.spec)
    agg = run_sweep(spec, jobs=args.jobs)
    out = _out_dir(args.out)
    write_aggregate_csv(out / "aggregate.csv", agg)
    write_aggregate_json(out / "aggregate.json", agg)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        counts = [int(part) for part in args.classes.split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"bad --classes value {args.classes!r}") from exc
    if len(counts) != 4:
        raise ConfigurationError("--classes needs exactly four counts: n_IE,n_UE,n_ID,n_UD")
    n_ie, n_ue, n_id, n_ud = counts
    params = AnalysisParams(
        t0=args.t0, sigma=args.sigma, delta=args.delta,
        n_ie=n_ie, n_ue=n_ue, n_id=n_id, n_ud=n_ud,
    )
    report = validate_against_analysis(params, args.k)
    out = _out_dir(args.out)
    write_validation_json(out / "validation.json", report)
    if report.passed:
        return 0
    worst = max(report.max_rel_error, key=report.max_rel_error.get)
    print(f"validation failed: {worst} max relative error "
          f"{report.max_rel_error[worst]!r} exceeds tolerance {report.tolerance!r}",
          file=sys.stderr)
    return 1


def _cmd_plot(args: argparse.Namespace) -> int:
    metrics = PLOT_FAMILIES[args.metric]
    titles = {"tokens": "Tokens per class", "wealth": "Wealth per class",
              "value": "Registry value"}
    y_labels = {"tokens": "tokens", "wealth": "wealth per voter", "value": "value"}
    try:
        rows = _read_csv(args.input)
        if not rows:
            raise ValueError("empty input")
        series = (_aggregate_series if "metric" in rows[0] else _trace_series)(rows, metrics)
        svg = render_line_chart(series, title=titles[args.metric], y_label=y_labels[args.metric])
    except (ValueError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
        raise ConfigurationError(f"{args.input}: {exc}") from exc
    with open_output(args.out) as fh:
        fh.write(svg)
    return 0


def _trace_series(rows, metrics):
    missing = [c for c in TRACE_COLUMNS if c not in rows[0]]
    if missing:
        raise ValueError(f"missing trace columns {missing}")
    series = []
    for metric in metrics:
        pts = [(_finite(row["round"]), _parse_num(row[metric])) for row in rows]
        series.append((_series_label(metric), pts))
    return series


def _aggregate_series(rows, metrics):
    required = {"round", "metric", "mean"}
    if not required <= set(rows[0]):
        raise ValueError("missing aggregate columns")
    param_cols = [
        c for c in rows[0]
        if c not in {"round", "metric", "mean", "std", "min", "max", "p5", "p95", "count"}
    ]
    cells = {tuple(row[c] for c in param_cols) for row in rows}
    if len(cells) != 1:
        raise ValueError(f"aggregate has {len(cells)} grid cells; plot expects exactly one")
    series = []
    for metric in metrics:
        pts = [
            (_finite(row["round"]), _parse_num(row["mean"]))
            for row in rows
            if row["metric"] == metric
        ]
        if not pts:
            raise ValueError(f"metric {metric!r} not present")
        pts.sort(key=lambda p: p[0])
        series.append((_series_label(metric), pts))
    return series


def _series_label(metric: str) -> str:
    prefix, _, suffix = metric.partition("_")
    if suffix in CLASS_LABELS:
        return CLASS_LABELS[suffix]
    return metric


def _parse_num(text: str) -> float:
    """An empty cell is NaN (an empty class); any other must be a finite number."""
    return math.nan if text == "" else _finite(text)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if any(None in row or None in row.values() for row in rows):
        raise ValueError("a row and the header have different lengths")
    return rows


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


if __name__ == "__main__":
    sys.exit(main())
