"""In-memory spans and counts for the traced benchmark run.

A span records one call made by the benchmark into the package: its name,
start, end and the span that encloses it. Counts and ``tracemalloc`` peaks
are recorded at the same boundaries. Nothing is written until the run ends.
Standard library only, because the child imports it before timing
``import zen``.
"""

from __future__ import annotations

import time
import tracemalloc


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Stands in for the tracer in the timed runs, so they record nothing."""

    enabled = False

    def span(self, name, peak=False):
        return _NULL_SPAN

    def count(self, name, value):
        pass


class _Span:
    __slots__ = ("tracer", "name", "peak", "index")

    def __init__(self, tracer, name, peak):
        self.tracer, self.name, self.peak = tracer, name, peak

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.index = len(t.spans)
        t.spans.append({"name": self.name, "parent": parent, "start": 0.0, "end": 0.0})
        t._stack.append(self.index)
        if self.peak:
            tracemalloc.start()
        t.spans[self.index]["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        rec = t.spans[self.index]
        rec["end"] = end
        if self.peak:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            rec["peak_bytes"] = peak
        t._stack.pop()
        return False


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def span(self, name, peak=False):
        """Context manager timing one call; ``peak`` also records its tracemalloc peak."""
        return _Span(self, name, peak)

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration less the time its direct children cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
