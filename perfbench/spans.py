"""In-memory spans around the benchmark's calls into the library.

An *operation* span, named ``op.<name>``, covers one blocking unit of a
workload (one platform planned, one re-plan round); *layer* spans sit
under it, one per call into a layer, named ``<layer>.<call>``.  Spans are
kept in memory while the workload runs and written out as Chrome
trace-event JSON at the end.  Operations are always timed, because the
end-to-end metrics come from them; layer spans are recorded only while
``recording`` is set.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns
from typing import Dict, List, Optional


class Spans:
    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent index or None]
        self.spans: List[list] = []
        self.recording = False
        self._parent: Optional[int] = None

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, inside a span *name* when recording."""
        if not self.recording:
            return fn(*args, **kwargs)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append([name, start, perf_counter_ns(), self._parent])

    def op(self, name: str) -> "Op":
        return Op(self, name)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def durations_ms(self) -> Dict[str, List[float]]:
        """Durations of every layer span, by span name."""
        out: Dict[str, List[float]] = {}
        for name, start, end, parent in self.spans:
            if not name.startswith("op."):
                out.setdefault(name, []).append((end - start) / 1e6)
        return out

    def _covered_ns(self) -> Dict[int, int]:
        """Nanoseconds of each span covered by its child spans."""
        covered: Dict[int, int] = {}
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0) + (end - start)
        return covered

    def self_ms(self) -> Dict[str, float]:
        """Each layer's self time: its spans' durations minus the part of
        them covered by child spans, summed over the run (ms)."""
        covered = self._covered_ns()
        out: Dict[str, float] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            layer = name.split(".")[0]
            own = (end - start) - covered.get(index, 0)
            out[layer] = out.get(layer, 0.0) + own / 1e6
        return out

    def span_cost_ms(self, calls: int = 20000) -> float:
        """What recording one span adds to the call it wraps (ms)."""
        def noop():
            return None

        saved = self.spans, self._parent, self.recording
        self.spans, self._parent = [], None
        elapsed = []
        for recording in (True, False):
            self.recording = recording
            start = perf_counter_ns()
            for _ in range(calls):
                self.call("cost", noop)
            elapsed.append(perf_counter_ns() - start)
        self.spans, self._parent, self.recording = saved
        return (elapsed[0] - elapsed[1]) / calls / 1e6

    def overhead_ms(self, op_name: str) -> float:
        """Tracing overhead of a median *op_name* operation: its recorded
        spans, itself included, times :meth:`span_cost_ms`."""
        children: Dict[int, int] = {}
        for name, start, end, parent in self.spans:
            if parent is not None:
                children[parent] = children.get(parent, 0) + 1
        counts = [children.get(i, 0) + 1
                  for i, span in enumerate(self.spans) if span[0] == op_name]
        if not counts:
            return 0.0
        return statistics.median(counts) * self.span_cost_ms()

    def coverage(self, op_name: str) -> float:
        """Median share of an *op_name* span covered by its layer spans."""
        covered = self._covered_ns()
        shares = [covered.get(i, 0) / (end - start)
                  for i, (name, start, end, parent) in enumerate(self.spans)
                  if name == op_name and end > start]
        return statistics.median(shares) if shares else 0.0

    def chrome_trace(self, other: Optional[dict] = None) -> str:
        """The spans as Chrome trace-event JSON (``chrome://tracing``)."""
        origin = min((s[1] for s in self.spans), default=0)
        events = [
            {"name": name, "cat": name.split(".")[0], "ph": "X",
             "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
             "pid": 1, "tid": 1, "args": {"id": i, "parent": parent}}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms",
                           "otherData": other or {}})


class Op:
    """Times one operation; a parent span for layer calls when recording."""

    __slots__ = ("spans", "name", "index", "start", "end")

    def __init__(self, spans: Spans, name: str) -> None:
        self.spans = spans
        self.name = name
        self.index: Optional[int] = None

    def __enter__(self) -> "Op":
        spans = self.spans
        if spans.recording:
            self.index = len(spans.spans)
            spans.spans.append([self.name, 0, 0, None])
            spans._parent = self.index
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.end = perf_counter_ns()
        if self.index is not None:
            span = self.spans.spans[self.index]
            span[1], span[2] = self.start, self.end
            self.spans._parent = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6
