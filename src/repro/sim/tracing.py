"""Execution traces: the raw material for Gantt charts and phase analysis.

A :class:`Trace` records everything observable about a simulation run:

* **segments** — intervals during which a node resource was busy:
  ``compute`` (the CPU), ``send`` (the emission port, labelled with the
  child), ``recv`` (the reception port, labelled with the parent) and
  ``release`` markers for the root's task generation;
* **completions** — one ``(time, node)`` pair per task computed;
* **buffer deltas** — ±1 changes of the number of tasks held at a node
  (arrived or released, minus computed or forwarded), from which
  :mod:`repro.analysis.buffers` reconstructs occupancy over time.

Traces are append-only during simulation and analysed afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, List, Optional, Tuple

COMPUTE = "compute"
SEND = "send"
RECV = "recv"
CTRL = "ctrl"  # control-plane traffic occupying a send port


@dataclass(frozen=True, slots=True)
class Segment:
    """One busy interval of one resource of one node."""

    node: Hashable
    kind: str  # COMPUTE, SEND or RECV
    start: Fraction
    end: Fraction
    peer: Optional[Hashable] = None  # child for SEND, parent for RECV

    @property
    def duration(self) -> Fraction:
        return self.end - self.start


#: kind of a flat tick record standing for a SEND segment of the sender
#: plus the matching RECV segment of the receiver
_TRANSFER = "transfer"


class Trace:
    """Append-only record of a simulation run.

    For very long steady-state runs the segment/buffer streams dominate
    memory; construct with ``record_segments=False`` (and/or
    ``record_buffers=False``) to keep only completions — enough for
    throughput measurements — at a fraction of the footprint.

    ``record_events=False`` is the fully lean *counts-only* mode for
    multi-million-event runs: per-event lists (completions, arrivals,
    releases) stay empty and only the ``completed`` counter and
    ``end_time`` are maintained, so the trace costs O(1) memory and the
    simulator skips materialising a ``Fraction`` timestamp per event.

    **Tick-native recording.**  The ``add_*`` methods take exact
    ``Fraction`` times.  The integer-tick simulation kernels instead call
    :meth:`use_ticks` and append raw kernel ticks to flat per-field
    columns (``_*_ticks``: records laid end to end, no per-event object).
    A field's ``Segment``/``Fraction`` records are built the first time it
    is read and cached; records appended later are built on the next read,
    so a read in the middle of a run sees exactly what a ``Fraction``-time
    recording would hold.  When the kernel's timeline grows its scale,
    :meth:`rescale` builds every pending record at the old scale first.
    """

    def __init__(self, record_segments: bool = True,
                 record_buffers: bool = True,
                 record_events: bool = True) -> None:
        self.record_segments = record_segments
        self.record_buffers = record_buffers
        self.record_events = record_events
        self._completed = 0
        self._last_time = Fraction(0)
        self._segments: List[Segment] = []
        self._completions: List[Tuple[Fraction, Hashable]] = []
        self._arrivals: List[Tuple[Fraction, Hashable]] = []
        self._buffer_deltas: List[Tuple[Fraction, Hashable, int]] = []
        self._releases: List[Tuple[Fraction, Hashable]] = []
        #: ticks per time unit of the pending tick columns (None: the
        #: trace records Fractions only)
        self._scale: Optional[int] = None
        # flat tick columns: node, kind, start, end, peer | tick, node |
        # tick, node | tick, node, delta | tick, destination
        self._segment_ticks: list = []
        self._completion_ticks: list = []
        self._arrival_ticks: list = []
        self._buffer_ticks: list = []
        self._release_ticks: list = []
        # prefixes of the segment/completion columns already folded into
        # _last_time
        self._segment_seen = 0
        self._completion_seen = 0

    # ------------------------------------------------------------------
    # recording (called by the simulator)
    # ------------------------------------------------------------------
    def add_segment(self, node: Hashable, kind: str, start: Fraction,
                    end: Fraction, peer: Optional[Hashable] = None) -> None:
        if end > self._last_time:
            self._last_time = end
        if self.record_segments:
            if self._segment_ticks:
                self._build_segments()
            self._segments.append(Segment(node, kind, start, end, peer))

    def add_transfer(self, node: Hashable, child: Hashable, start: Fraction,
                     end: Fraction) -> None:
        """The SEND segment of *node* and the RECV segment of *child*."""
        self.add_segment(node, SEND, start, end, peer=child)
        self.add_segment(child, RECV, start, end, peer=node)

    def add_completion(self, time: Fraction, node: Hashable) -> None:
        if time > self._last_time:
            self._last_time = time
        self._completed += 1
        if self.record_events:
            if self._completion_ticks:
                self._build_completions()
            self._completions.append((time, node))

    def count_completion(self) -> None:
        """Counts-only twin of :meth:`add_completion`: no timestamp needed
        (the simulator folds the last segment end into ``end_time`` when
        the run finishes)."""
        self._completed += 1

    def add_arrival(self, time: Fraction, node: Hashable) -> None:
        if self.record_events:
            if self._arrival_ticks:
                self._build_pairs(self._arrival_ticks, self._arrivals)
            self._arrivals.append((time, node))

    def add_buffer_delta(self, time: Fraction, node: Hashable, delta: int) -> None:
        if self.record_buffers:
            if self._buffer_ticks:
                self._build_buffer_deltas()
            self._buffer_deltas.append((time, node, delta))

    def add_release(self, time: Fraction, destination: Hashable) -> None:
        if self.record_events:
            if self._release_ticks:
                self._build_pairs(self._release_ticks, self._releases)
            self._releases.append((time, destination))

    # ------------------------------------------------------------------
    # tick-native recording (the integer-tick simulation kernels)
    # ------------------------------------------------------------------
    def use_ticks(self, scale: int) -> None:
        """Accept raw kernel ticks, ``scale`` ticks per time unit, through
        the ``tick_*`` methods (or by extending the ``_*_ticks`` columns
        directly, record by record, as the array kernel does)."""
        self._scale = scale

    def rescale(self, factor: int) -> None:
        """The kernel's timeline grew its scale by *factor*: build every
        pending record at the old scale, so no recorded tick is ever read
        at the wrong scale."""
        self._build_all()
        self._scale *= factor

    def tick_segment(self, node: Hashable, kind: str, start: int, end: int,
                     peer: Optional[Hashable] = None) -> None:
        self._segment_ticks.extend((node, kind, start, end, peer))

    def tick_transfer(self, node: Hashable, child: Hashable, start: int,
                      end: int) -> None:
        """The SEND segment of *node* and the RECV segment of *child*."""
        self._segment_ticks.extend((node, _TRANSFER, start, end, child))

    def tick_completion(self, tick: int, node: Hashable) -> None:
        self._completion_ticks.extend((tick, node))

    def tick_arrival(self, tick: int, node: Hashable) -> None:
        self._arrival_ticks.extend((tick, node))

    def tick_buffer_delta(self, tick: int, node: Hashable, delta: int) -> None:
        self._buffer_ticks.extend((tick, node, delta))

    def tick_release(self, tick: int, destination: Hashable) -> None:
        self._release_ticks.extend((tick, destination))

    # ------------------------------------------------------------------
    # building Fraction records from the tick columns
    # ------------------------------------------------------------------
    def _fraction(self):
        """A memoised tick → Fraction view at the current scale: records
        built together share one Fraction per distinct tick."""
        scale = self._scale
        memo: Dict[int, Fraction] = {}

        def fraction(tick: int) -> Fraction:
            f = memo.get(tick)
            if f is None:
                f = memo[tick] = Fraction(tick, scale)
            return f

        return fraction

    def _build_segments(self) -> None:
        self._fold_end()
        fraction = self._fraction()
        out = self._segments
        flat = iter(self._segment_ticks)
        for node, kind, start, end, peer in zip(flat, flat, flat, flat, flat):
            start_f, end_f = fraction(start), fraction(end)
            if kind == _TRANSFER:
                out.append(Segment(node, SEND, start_f, end_f, peer))
                out.append(Segment(peer, RECV, start_f, end_f, node))
            else:
                out.append(Segment(node, kind, start_f, end_f, peer))
        self._segment_ticks.clear()
        self._segment_seen = 0

    def _build_completions(self) -> None:
        self._fold_end()
        self._completed += len(self._completion_ticks) // 2
        self._build_pairs(self._completion_ticks, self._completions)
        self._completion_seen = 0

    def _build_pairs(self, flat: list, out: list) -> None:
        fraction = self._fraction()
        pairs = iter(flat)
        out.extend((fraction(t), x) for t, x in zip(pairs, pairs))
        flat.clear()

    def _build_buffer_deltas(self) -> None:
        fraction = self._fraction()
        flat = iter(self._buffer_ticks)
        self._buffer_deltas.extend(
            (fraction(t), node, delta) for t, node, delta in zip(flat, flat, flat))
        self._buffer_ticks.clear()

    def _build_all(self) -> None:
        if self._segment_ticks:
            self._build_segments()
        if self._completion_ticks:
            self._build_completions()
        if self._arrival_ticks:
            self._build_pairs(self._arrival_ticks, self._arrivals)
        if self._buffer_ticks:
            self._build_buffer_deltas()
        if self._release_ticks:
            self._build_pairs(self._release_ticks, self._releases)

    def _fold_end(self) -> None:
        """Fold the largest pending segment-end / completion tick into the
        end time, scanning only what was appended since the last fold."""
        segments, completions = self._segment_ticks, self._completion_ticks
        top = max(segments[self._segment_seen + 3::5], default=0)
        top = max(top, max(completions[self._completion_seen::2], default=0))
        self._segment_seen = len(segments)
        self._completion_seen = len(completions)
        if top:
            end = Fraction(top, self._scale)
            if end > self._last_time:
                self._last_time = end

    # ------------------------------------------------------------------
    # the recorded fields
    # ------------------------------------------------------------------
    @property
    def segments(self) -> List[Segment]:
        """Busy intervals, in recording order."""
        if self._segment_ticks:
            self._build_segments()
        return self._segments

    @property
    def completions(self) -> List[Tuple[Fraction, Hashable]]:
        """``(time, node)`` per task computed."""
        if self._completion_ticks:
            self._build_completions()
        return self._completions

    @property
    def arrivals(self) -> List[Tuple[Fraction, Hashable]]:
        """``(time, node)`` per task received."""
        if self._arrival_ticks:
            self._build_pairs(self._arrival_ticks, self._arrivals)
        return self._arrivals

    @property
    def buffer_deltas(self) -> List[Tuple[Fraction, Hashable, int]]:
        """``(time, node, ±n)`` per change of a node's held-task count."""
        if self._buffer_ticks:
            self._build_buffer_deltas()
        return self._buffer_deltas

    @property
    def releases(self) -> List[Tuple[Fraction, Hashable]]:
        """``(time, destination)`` per task the root released."""
        if self._release_ticks:
            self._build_pairs(self._release_ticks, self._releases)
        return self._releases

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        """Total number of tasks computed."""
        return self._completed + len(self._completion_ticks) // 2

    @property
    def end_time(self) -> Fraction:
        """Timestamp of the last recorded activity (0 for an empty trace).

        Tracked incrementally (from the largest pending tick in tick-native
        mode); with segment recording disabled the simulator folds the
        final segment end in when its run completes, so a finished run
        reports the same end time either way.
        """
        if self._scale is not None:
            self._fold_end()
        return self._last_time

    def completions_by_node(self) -> Dict[Hashable, int]:
        """Tasks computed per node."""
        counts: Dict[Hashable, int] = {}
        for _, node in self.completions:
            counts[node] = counts.get(node, 0) + 1
        return counts

    def completions_in(self, start: Fraction, end: Fraction) -> int:
        """Tasks completed in the half-open window ``(start, end]``."""
        return sum(1 for t, _ in self.completions if start < t <= end)

    def segments_for(self, node: Hashable, kind: Optional[str] = None) -> List[Segment]:
        """All segments of *node*, optionally filtered by *kind*."""
        return [
            s for s in self.segments
            if s.node == node and (kind is None or s.kind == kind)
        ]

    def busy_time(self, node: Hashable, kind: str,
                  start: Fraction, end: Fraction) -> Fraction:
        """Total busy time of a resource inside ``[start, end]``."""
        total = Fraction(0)
        for s in self.segments_for(node, kind):
            lo = max(s.start, start)
            hi = min(s.end, end)
            if hi > lo:
                total += hi - lo
        return total
