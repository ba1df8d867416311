"""Spans, self time and percentiles for the benchmark.

A span is a dict with a name (`module.function`), start and end times from
time.perf_counter (CLOCK_MONOTONIC, so spans from different processes on
one machine share a time base), the index of its parent span, a request id
and free-form attributes such as counts. Spans stay in memory; the
benchmark writes them out when the run ends.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

TAIL_MIN_BEYOND = 10
_PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Tracer:
    """Records nested spans; the innermost open span is the parent."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: str | None = None, **attrs):
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = self.spans[parent]["request"]
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "request": request,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, mode_arg: int | None = None):
        """fn with a span around each call; mode_arg names a positional
        argument (or the `mode` keyword) to record as the span's mode."""

        def traced(*args, **kwargs):
            attrs = {}
            if mode_arg is not None:
                attrs["mode"] = args[mode_arg] if len(args) > mode_arg else kwargs.get("mode", "")
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return traced


class NullTracer(Tracer):
    """Same calls as Tracer, records nothing: the untraced baseline."""

    @contextmanager
    def span(self, name: str, request: str | None = None, **attrs):
        yield attrs

    def wrap(self, name: str, fn, mode_arg: int | None = None):
        return fn


def merge_spans(into: list[dict], spans: list[dict]) -> None:
    """Append spans recorded in another process, renumbering parents."""
    offset = len(into)
    for s in spans:
        s = dict(s)
        if s["parent"] is not None:
            s["parent"] += offset
        into.append(s)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the part its children cover.

    Children may overlap one another (parallel work) or stick out of their
    parent; only the union of their intervals, clipped to the parent,
    is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        clipped = [
            (max(lo, s["start"]), min(hi, s["end"]))
            for lo, hi in children.get(i, [])
            if hi > s["start"] and lo < s["end"]
        ]
        out.append(s["end"] - s["start"] - _covered(clipped))
    return out


def summarize(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    table: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += own
    return table


def calibration_loop(iterations: int) -> float:
    """Seconds per iteration of a fixed piece of pure-Python work."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(iterations):
        item = (i, i + 1, i & 7)
        acc += sum(x * 3 for x in item) % 7
        table[i & 1023] = item
    return (time.perf_counter() - start) / iterations


def tail_percentile(samples: int, min_beyond: int = TAIL_MIN_BEYOND) -> float | None:
    """Highest ladder percentile with at least min_beyond samples above it.

    None when there are too few samples for any rung.
    """
    for p in _PERCENTILE_LADDER:
        if samples - math.ceil(samples * p / 100) >= min_beyond:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100))
    return ordered[rank - 1]
