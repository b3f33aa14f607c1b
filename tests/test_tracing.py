"""Unit tests for the trace record structures."""

from fractions import Fraction

from repro.sim.tracing import COMPUTE, RECV, SEND, Segment, Trace

F = Fraction


def make_trace() -> Trace:
    trace = Trace()
    trace.add_segment("a", COMPUTE, F(0), F(2))
    trace.add_segment("a", SEND, F(1), F(3), peer="b")
    trace.add_segment("b", RECV, F(1), F(3), peer="a")
    trace.add_completion(F(2), "a")
    trace.add_completion(F(5), "b")
    trace.add_arrival(F(3), "b")
    trace.add_buffer_delta(F(0), "a", +1)
    trace.add_buffer_delta(F(2), "a", -1)
    return trace


class TestSegments:
    def test_duration(self):
        seg = Segment("a", COMPUTE, F(1, 2), F(5, 2))
        assert seg.duration == 2

    def test_segments_for_filters_node(self):
        trace = make_trace()
        assert len(trace.segments_for("a")) == 2
        assert len(trace.segments_for("b")) == 1

    def test_segments_for_filters_kind(self):
        trace = make_trace()
        sends = trace.segments_for("a", SEND)
        assert len(sends) == 1
        assert sends[0].peer == "b"

    def test_busy_time_full_overlap(self):
        trace = make_trace()
        assert trace.busy_time("a", COMPUTE, F(0), F(10)) == 2

    def test_busy_time_clipped(self):
        trace = make_trace()
        assert trace.busy_time("a", COMPUTE, F(1), F(10)) == 1
        assert trace.busy_time("a", COMPUTE, F(5), F(10)) == 0


class TestCompletions:
    def test_completed(self):
        assert make_trace().completed == 2

    def test_by_node(self):
        assert make_trace().completions_by_node() == {"a": 1, "b": 1}

    def test_window_half_open(self):
        trace = make_trace()
        assert trace.completions_in(F(0), F(2)) == 1  # (0, 2] includes t=2
        assert trace.completions_in(F(2), F(5)) == 1  # excludes t=2
        assert trace.completions_in(F(5), F(9)) == 0

    def test_end_time(self):
        assert make_trace().end_time == 5

    def test_end_time_empty(self):
        assert Trace().end_time == 0


class TestTickNative:
    """Raw kernel ticks in, the same Fraction records out."""

    def test_records_built_when_read(self):
        trace = Trace()
        trace.use_ticks(4)
        trace.tick_segment("a", COMPUTE, 0, 8)
        trace.tick_transfer("a", "b", 4, 12)
        trace.tick_completion(8, "a")
        trace.tick_arrival(12, "b")
        trace.tick_buffer_delta(8, "a", -1)
        trace.tick_release(0, "a")
        assert trace.completed == 1
        assert trace.end_time == 3
        assert trace.segments == [
            Segment("a", COMPUTE, F(0), F(2)),
            Segment("a", SEND, F(1), F(3), peer="b"),
            Segment("b", RECV, F(1), F(3), peer="a"),
        ]
        assert trace.completions == [(F(2), "a")]
        assert trace.arrivals == [(F(3), "b")]
        assert trace.buffer_deltas == [(F(2), "a", -1)]
        assert trace.releases == [(F(0), "a")]
        assert trace.completed == 1

    def test_read_midway_then_append(self):
        trace = Trace()
        trace.use_ticks(2)
        trace.tick_completion(1, "a")
        completions = trace.completions
        assert completions == [(F(1, 2), "a")]
        trace.tick_completion(3, "b")
        trace.add_completion(F(2), "c")  # a Fraction record keeps its place
        assert trace.completions is completions
        assert completions == [(F(1, 2), "a"), (F(3, 2), "b"), (F(2), "c")]
        assert trace.completed == 3

    def test_rescale_keeps_recorded_ticks(self):
        trace = Trace()
        trace.use_ticks(2)
        trace.tick_segment("a", COMPUTE, 1, 3)
        trace.rescale(3)  # now 6 ticks per unit
        trace.tick_segment("a", COMPUTE, 9, 10)
        assert trace.end_time == F(5, 3)
        assert [(s.start, s.end) for s in trace.segments] == [
            (F(1, 2), F(3, 2)), (F(3, 2), F(5, 3))]
