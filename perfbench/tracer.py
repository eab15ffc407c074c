"""In-memory span tracer that wraps tcrlab's public functions where callers look them up.

``from .protocol import run_round`` copies the function into the importing
module, so wrapping ``tcrlab.protocol.run_round`` alone misses the calls made
from ``tcrlab.harness``. ``Tracer.install`` therefore replaces every binding
of a wrapped function in every tcrlab module, and in module-level dicts such
as the oracle table in ``harness``; ``uninstall`` puts the originals back.

A span is (name, start, end, parent index). Self time is a span's duration
minus the durations of its direct children, accumulated as spans close.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections import defaultdict
from time import perf_counter

MODULES = ("voters", "protocol", "metrics", "harness", "analysis", "serialize", "svg", "cli")
# Leaf helpers called once per number or per class; wrapping them costs more
# than they do, and their time shows as their caller's self time.
UNWRAPPED = {"serialize.fmt", "metrics.lurp", "metrics.class_wealth"}


def _count_uniform(counts, args, kwargs, result) -> None:
    n = args[1] if len(args) > 1 else kwargs.get("n")
    counts["voters.uniforms_drawn"] += 1 if n is None else int(n)


def _count_round(counts, args, kwargs, record) -> None:
    counts["protocol.intending"] += len(getattr(record, "intended_participants", ()))
    counts["protocol.eligible"] += len(getattr(record, "inflation_applied_to", ()))


def _count_bytes(counts, args, kwargs, result) -> None:
    path = args[0] if args else kwargs.get("path")
    counts["serialize.bytes_written"] += os.path.getsize(path)


COUNTERS = {
    "voters.uniform": _count_uniform,
    "protocol.run_round": _count_round,
    "serialize.write_trace_csv": _count_bytes,
    "serialize.write_summary_json": _count_bytes,
    "serialize.write_aggregate_csv": _count_bytes,
    "serialize.write_aggregate_json": _count_bytes,
    "serialize.write_validation_json": _count_bytes,
}


def public_functions() -> dict[str, object]:
    """'module.name' -> function for every public function tcrlab defines."""
    found = {}
    for short in MODULES:
        mod = importlib.import_module(f"tcrlab.{short}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                found[f"{short}.{name}"] = obj
    rng = getattr(importlib.import_module("tcrlab.voters"), "RngStream", None)
    if rng is not None and inspect.isfunction(vars(rng).get("uniform")):
        found["voters.uniform"] = vars(rng)["uniform"]
    return {k: v for k, v in found.items() if k not in UNWRAPPED}


class Tracer:
    """Records spans of the wrapped functions until ``uninstall``."""

    def __init__(self, only: set[str] | None = None):
        self.only = only
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        self_s, total_s, calls, counts = self.self_s, self.total_s, self.calls, self.counts
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                spans[frame[0]] = (name, start, end, stack[-1][0] if stack else -1)
                self_s[name] += duration - frame[1]
                total_s[name] += duration
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        targets = {name: fn for name, fn in public_functions().items()
                   if self.only is None or name in self.only}
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets.items()}
        holders = [importlib.import_module("tcrlab")]
        holders += [importlib.import_module(f"tcrlab.{m}") for m in MODULES]
        for mod in holders:
            for key, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, key, value, wrappers[id(value)])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            self._patch(value, k, v, wrappers[id(v)])
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    for k, v in list(vars(value).items()):
                        if id(v) in wrappers:
                            self._patch(value, k, v, wrappers[id(v)])
        return self

    def _patch(self, holder, key, original, wrapper) -> None:
        if isinstance(holder, dict):
            holder[key] = wrapper
        else:
            setattr(holder, key, wrapper)
        self._patches.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write_spans(self, path) -> None:
        """Spans as CSV: name, start and end in µs from the first span, parent row."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name,start_us,end_us,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{(start - origin) * 1e6:.3f},"
                         f"{(end - origin) * 1e6:.3f},{parent}\n")
