"""In-memory spans recorded by the benchmark around calls into the program.

A span has a name, a start and an end (``time.perf_counter_ns``), the span
that caused it, and the op it belongs to.  Spans stay in memory and are
summarised when the run ends.  Untraced runs use :data:`OFF`, whose spans
record nothing, so both runs go through the same code.
"""

from __future__ import annotations

import contextlib
import statistics
import time

from stats import self_times


class Tracer:
    def __init__(self):
        self.spans = []  # (span_id, parent_id, name, op, t0_ns, t1_ns)
        self.op = None
        self._stack = []
        self._next = 0

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def durations(self, name: str) -> list:
        """Durations in ns of every span called ``name``, in order."""
        return [t1 - t0 for _, _, n, _, t0, t1 in self.spans if n == name]

    def summary(self) -> dict:
        """Per span name: count, median and total duration, median self time (ms)."""
        own = self_times((sid, parent, name, t0, t1) for sid, parent, name, _, t0, t1 in self.spans)
        by_name = {}
        for sid, _, name, _, t0, t1 in self.spans:
            by_name.setdefault(name, []).append((t1 - t0, own[sid]))
        return {
            name: {
                "count": len(rows),
                "median_ms": statistics.median(d for d, _ in rows) / 1e6,
                "total_ms": sum(d for d, _ in rows) / 1e6,
                "self_median_ms": statistics.median(s for _, s in rows) / 1e6,
            }
            for name, rows in sorted(by_name.items())
        }


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "t0", "ns")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.sid = tr._next
        tr._next += 1
        self.parent = tr._stack[-1] if tr._stack else None
        tr._stack.append(self.sid)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter_ns()
        self.ns = t1 - self.t0
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append((self.sid, self.parent, self.name, tr.op, self.t0, t1))
        return False


class _Off:
    """Tracer stand-in for untraced runs: every span is a shared no-op."""

    op = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


OFF = _Off()
