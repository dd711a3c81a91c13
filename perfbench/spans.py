"""In-memory spans for the traced pass.

A span records a name, its start and end (perf_counter seconds), the index
of the span that was open when it started (its parent), an operation id
shared by the spans of one grid cell or oracle probe, and whether it is a
probe: a duplicate measurement call that is off the blocking path. Probes
are always opened at the top level, so the spans nested under one are off
the blocking path too.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    probe: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; nothing is written until the caller asks."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int | None = None, probe: bool = False):
        parent = self._open[-1] if self._open else None
        if probe and parent is not None:
            raise ValueError(f"probe span {name!r} must be opened at the top level")
        record = Span(name, time.perf_counter(), 0.0, parent, op, probe)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    length = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        length += end - max(start, reach)
        reach = end
    return length


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(s, span.start), min(e, span.end)) for s, e in kids]
        out.append(span.duration - _covered([(s, e) for s, e in clipped if e > s]))
    return out


def summarize(spans: list[Span], wall: float) -> dict:
    """Per-name totals plus the probe time and blocking-path coverage of a pass.

    ``self_s`` and ``total_s`` sum self time and duration per span name,
    ``count`` the spans per name. ``probe_s`` is the time of the top-level
    probe spans; ``coverage`` is the share of the remaining wall that the
    top-level blocking-path spans cover.
    """
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    for span, own in zip(spans, selfs):
        entry = by_name.setdefault(span.name, {"self_s": 0.0, "total_s": 0.0, "count": 0})
        entry["self_s"] += own
        entry["total_s"] += span.duration
        entry["count"] += 1
    roots = [span for span in spans if span.parent is None]
    probe_s = sum(span.duration for span in roots if span.probe)
    blocking_s = sum(span.duration for span in roots if not span.probe)
    blocking_wall = wall - probe_s
    return {
        "by_name": by_name,
        "probe_s": probe_s,
        "coverage": blocking_s / blocking_wall if blocking_wall > 0 else 0.0,
    }


def total(summary: dict, name: str, key: str = "total_s") -> float:
    entry = summary["by_name"].get(name)
    return entry[key] if entry else 0
