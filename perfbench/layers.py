"""One pass of the traced run, and the per-layer metrics it yields.

A pass runs the same operations twice, untraced and then traced; the
difference is the tracing overhead. Every pass repeats the same inputs, so
counts must repeat exactly. Spans recorded in forked pool workers are lost,
so sweep-grid traces a serial run and measures the pool from two lightly
traced runs, serial and parallel, that wrap ``harness.replicate`` alone.
"""

from __future__ import annotations

from tracer import Tracer
from workloads import workers

METRICS = {
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "harness.run_simulation.self_s": "s",
    "protocol.run_round.self_s": "s",
    "protocol.ns_per_voter_round": "ns",
    "protocol.settle.s": "s",
    "protocol.apply_inflation.s": "s",
    "protocol.required_stake.s": "s",
    "protocol.eligible_ratio": "ratio",
    "metrics.snapshot.s": "s",
    "metrics.snapshot.calls": "count",
    "harness.metrics_array.s": "s",
    "harness.aggregate_metrics.s": "s",
    "harness.pool.overhead_s": "s",
    "harness.pool.busy_ratio": "ratio",
    "harness.replicate.serial_ms_per_run": "ms",
    "harness.replicate.parallel_ms_per_run": "ms",
    "voters.uniform.calls": "count",
    "voters.uniforms_drawn": "count",
    "voters.sample_roster.s": "s",
    "serialize.write_trace_csv.s": "s",
    "serialize.write_summary_json.s": "s",
    "serialize.write_aggregate_csv.s": "s",
    "serialize.write_aggregate_json.s": "s",
    "serialize.bytes_written": "bytes",
    "svg.render_line_chart.s": "s",
    "harness.validate_against_analysis.self_s": "s",
    "analysis.closed_form.s": "s",
    "analysis.closed_form.calls": "count",
}
EXACT = {
    "protocol.eligible_ratio", "metrics.snapshot.calls",
    "voters.uniform.calls", "voters.uniforms_drawn", "serialize.bytes_written",
    "analysis.closed_form.calls",
}


def layer_values(tr: Tracer, voter_rounds: int) -> dict[str, float]:
    self_s, total_s, calls, counts = tr.self_s, tr.total_s, tr.calls, tr.counts
    protocol_self = sum(v for k, v in self_s.items() if k.startswith("protocol."))
    intending = counts["protocol.intending"]
    values = {
        "protocol.ns_per_voter_round": protocol_self / voter_rounds * 1e9 if voter_rounds else 0.0,
        "protocol.eligible_ratio": counts["protocol.eligible"] / intending if intending else 0.0,
        "analysis.closed_form.s": sum(v for k, v in self_s.items() if k.startswith("analysis.")),
        "analysis.closed_form.calls": sum(v for k, v in calls.items() if k.startswith("analysis.")),
        "voters.uniforms_drawn": counts["voters.uniforms_drawn"],
        "serialize.bytes_written": counts["serialize.bytes_written"],
    }
    for name in METRICS:
        layer, _, kind = name.rpartition(".")
        if name in values or kind not in ("s", "self_s", "calls"):
            continue
        source = {"s": total_s, "self_s": self_s, "calls": calls}[kind]
        values[name] = source.get(layer, 0)
    return values


def trace_pass(w) -> tuple[dict[str, float], Tracer, list[bool]]:
    if w.name == "sweep-grid":
        return _sweep_pass(w)
    oks, untraced = [], 0.0
    for i in range(w.pass_ops):
        elapsed, _, ok = w.op(i)
        untraced += elapsed
        oks.append(ok)
    traced, rounds = 0.0, 0
    with Tracer() as tr:
        for i in range(w.pass_ops):
            elapsed, voter_rounds, ok = w.op(i)
            traced += elapsed
            rounds += voter_rounds
            oks.append(ok)
    values = layer_values(tr, rounds)
    values["trace.pass_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    return values, tr, oks


def _sweep_pass(w) -> tuple[dict[str, float], Tracer, list[bool]]:
    jobs = workers()
    with Tracer(only={"harness.replicate"}) as serial:
        untraced, _, ok_serial = w.op(0, jobs=1)
    with Tracer(only={"harness.replicate"}) as parallel:
        _, _, ok_parallel = w.op(0, jobs=jobs)
    with Tracer() as tr:
        traced, rounds, ok_traced = w.op(0, jobs=1)
    values = layer_values(tr, rounds)
    values["trace.pass_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    t_serial = serial.total_s.get("harness.replicate", 0.0)
    t_parallel = parallel.total_s.get("harness.replicate", 0.0)
    runs = w.replications * sum(len(spec.cells()) for spec in w.inputs[0])
    values["harness.replicate.serial_ms_per_run"] = t_serial / runs * 1e3
    values["harness.replicate.parallel_ms_per_run"] = t_parallel / runs * 1e3
    if jobs > 1 and t_parallel > 0:
        values["harness.pool.overhead_s"] = t_parallel - t_serial / jobs
        values["harness.pool.busy_ratio"] = t_serial / (jobs * t_parallel)
    return values, tr, [ok_serial, ok_parallel, ok_traced]
