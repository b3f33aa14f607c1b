"""Discrete-event simulation of the single-port full-overlap model.

This module executes a tree platform running the paper's event-driven
schedules (Section 6.2) — or any other routing controller — and records a
full :class:`~repro.sim.tracing.Trace`.

Model (Section 3), enforced exactly:

* a node *overlaps* receiving, computing and sending;
* the **send port** transmits to at most one child at a time,
  non-interruptibly, taking ``c`` time units per task;
* the **receive port** handles one incoming transfer at a time — automatic
  in a tree, since the unique parent sends sequentially;
* computing one task takes ``w`` time units.

Scheduling semantics:

* **non-root nodes are clock-free** (Section 6.2): the j-th task a node ever
  receives is routed by its bunch order (``order[j mod Ψ]``) the moment it
  arrives — to the local compute queue, or to the FIFO send queue drained by
  the send port;
* **the root is the only clocked node**: it owns the task supply and
  releases the designations of each bunch evenly spaced over its consumption
  period ``T^w`` (``Ψ`` releases per period).  Pacing is required — a
  work-conserving root would exceed its steady-state rates and flood its
  children — and even spacing implements the paper's "disseminate the tasks
  along the period";
* the root stops releasing when its *supply* runs out or the *horizon* is
  reached; the simulation then drains — the **wind-down** phase.

The ``compute_during_startup`` flag selects between the paper's start-up
strategy (Section 7: every node applies its event-driven schedule from the
beginning, computing immediately) and the traditional baseline (a node
computes nothing until it has buffered its steady-state task count χ_in).

Three exact time kernels drive the event loop (the ``kernel`` parameter):

* ``"array"`` (default) — the struct-of-arrays kernel of
  :mod:`repro.sim.arraystate`: every duration is normalised once to ticks
  over a global denominator ``D`` (:mod:`repro.core.timeline`), per-node
  state lives in flat parallel arrays indexed by dense node id and the
  event loop runs over a bucketed (calendar) queue that drains all
  same-tick events per heap pop.  Numpy-backed when importable
  (``pip install repro[fast]``), pure-Python otherwise;
* ``"int"`` — the same integer ticks over per-node objects and a plain
  event heap (the array kernel's predecessor);
* ``"fraction"`` — the original ``Fraction``-per-event loop.

On both tick kernels all clock arithmetic runs on plain Python ints and
the trace records raw ticks; ``Fraction`` views are built only at the API
boundaries (a trace field when first read, ``engine.now``, telemetry).  A
value with an incommensurate denominator appearing mid-run (an injected
control latency, a link-degradation factor) grows the scale in place.

All kernels produce **bit-identical** results — same trace, same event
order, same rationals — as the property suites in ``tests/test_timeline.py``
and ``tests/test_trace_parity.py`` assert; the int kernel is several times
faster than the fraction kernel and the array kernel faster still (see
``benchmarks/bench_e27_timeline.py``, ``benchmarks/bench_e31_arraykernel.py``
and ``docs/perf.md``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Deque, Dict, Hashable, Mapping, Optional

from ..core.allocation import Allocation
from ..core.rates import ZERO, is_infinite
from ..core.timeline import timeline_for
from ..exceptions import SimulationError
from ..platform.tree import Tree
from ..schedule.eventdriven import NodeSchedule, build_schedules
from ..schedule.local import interleaved_order
from ..schedule.periods import NodePeriods, tree_periods
from ..telemetry.core import Registry
from .engine import ArrayEngine, Engine, IntEngine
from .tracing import COMPUTE, CTRL, Trace

#: kernels accepted by :class:`Simulation`
KERNELS = ("int", "fraction", "array")

#: tick→Fraction memo bound: cleared (cheap, regrows warm) when exceeded
_FRAC_MEMO_CAP = 1 << 18


def _identity(value):
    return value


class _SimNode:
    """Mutable per-node simulation state."""

    __slots__ = (
        "name", "w", "w_units", "compute_queue", "send_queue", "computing",
        "sending", "receiving", "arrivals", "buffered", "overlap", "dead",
    )

    def __init__(self, name: Hashable, w, overlap: bool = True) -> None:
        self.name = name
        self.w = w
        self.w_units = w  # compute duration in kernel units (ticks or Fraction)
        self.compute_queue = 0
        self.send_queue: Deque[Hashable] = deque()
        self.computing = False
        self.sending = False
        self.receiving = False
        self.arrivals = 0  # tasks received (or released, for the root)
        self.buffered = 0  # tasks currently held at the node
        self.overlap = overlap  # can compute and communicate simultaneously
        self.dead = False  # crashed: drops everything, does nothing


class Controller:
    """Routing policy: decides each task's destination and compute gating.

    The default implementation routes by the event-driven bunch order and
    always allows computing (the paper's Section 7 strategy).
    """

    def __init__(self, schedules: Mapping[Hashable, NodeSchedule]):
        self.schedules = schedules

    def destination(self, node: Hashable, arrival_index: int) -> Hashable:
        """Destination of the ``arrival_index``-th task received by *node*."""
        schedule = self.schedules.get(node)
        if schedule is None:
            retired = getattr(self, "retired", {}).get(node)
            if retired is not None:
                return retired.destination(arrival_index)
            raise SimulationError(
                f"task delivered to {node!r}, which has no schedule"
            )
        return schedule.destination(arrival_index)

    def may_compute(self, state: _SimNode) -> bool:
        """Whether *state*'s node may start computing right now."""
        return True


class BufferedStartController(Controller):
    """The traditional start-up baseline (Section 7's strawman).

    A node performs no useful computation until it has received its full
    steady-state buffer of ``χ_in`` tasks; forwarding is unrestricted.  The
    root (which holds the supply) computes from the start.
    """

    def __init__(
        self,
        schedules: Mapping[Hashable, NodeSchedule],
        thresholds: Mapping[Hashable, int],
        root: Hashable,
    ):
        super().__init__(schedules)
        self.thresholds = thresholds
        self.root = root

    def may_compute(self, state: _SimNode) -> bool:
        if state.name == self.root:
            return True
        return state.arrivals >= self.thresholds.get(state.name, 0)


@dataclass
class SimulationResult:
    """Everything a simulation run produced."""

    trace: Trace
    tree: Tree
    schedules: Mapping[Hashable, NodeSchedule]
    periods: Mapping[Hashable, NodePeriods]
    released: int
    stop_time: Optional[Fraction]  # when the root stopped releasing
    end_time: Fraction
    tasks_lost: int = 0  # tasks destroyed by node crashes (incl. in flight)
    failed_at: Mapping[Hashable, Fraction] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.trace.completed

    @property
    def wind_down(self) -> Optional[Fraction]:
        """Time from supply cut-off to the last task completion."""
        if self.stop_time is None or not self.trace.completions:
            return None
        return max(self.end_time - self.stop_time, ZERO)


class Simulation:
    """One configured simulation run over a tree + schedules.

    All internal clock arithmetic happens in *kernel units*: plain int
    ticks for the ``"array"`` and ``"int"`` kernels,
    :class:`~fractions.Fraction` for ``kernel="fraction"``.
    ``self._units(fraction)`` converts a rational into kernel units
    (growing the int timeline's scale when needed) and ``self._frac(units)``
    materialises the exact rational view — the trace, ``failed_at``,
    telemetry values and every public attribute are always Fractions,
    whichever kernel runs.

    ``kernel="array"`` (the default) transparently constructs the
    struct-of-arrays subclass (:class:`~repro.sim.arraystate.ArraySimulation`):
    same constructor, same public surface, hot state in flat arrays.
    """

    def __new__(cls, *args, **kwargs):
        if cls is Simulation and kwargs.get("kernel", "array") == "array":
            # lazy import: arraystate imports this module at load time
            from .arraystate import ArraySimulation
            return object.__new__(ArraySimulation)
        return object.__new__(cls)

    def __init__(
        self,
        tree: Tree,
        schedules: Mapping[Hashable, NodeSchedule],
        periods: Mapping[Hashable, NodePeriods],
        controller: Optional[Controller] = None,
        horizon: Optional[Fraction] = None,
        supply: Optional[int] = None,
        overlap: Optional[Mapping[Hashable, bool]] = None,
        root_pacing: str = "even",
        record_segments: bool = True,
        record_buffers: bool = True,
        record_events: bool = True,
        max_events: int = 5_000_000,
        telemetry: Optional[Registry] = None,
        kernel: str = "array",
    ):
        if horizon is None and supply is None:
            raise SimulationError("give a horizon, a supply, or both")
        if root_pacing not in ("even", "marks", "burst"):
            raise SimulationError(f"unknown root pacing {root_pacing!r}")
        if kernel not in KERNELS:
            raise SimulationError(
                f"unknown kernel {kernel!r} (expected one of {KERNELS})")
        if not record_events and (record_segments or record_buffers):
            raise SimulationError(
                "record_events=False (counts-only tracing) requires "
                "record_segments=False and record_buffers=False")
        self.root_pacing = root_pacing
        self._record_segments = record_segments
        self._record_buffers = record_buffers
        self._record_events = record_events
        self.tree = tree
        self.schedules = schedules
        self.periods = periods
        self.controller = controller or Controller(schedules)
        self.horizon = Fraction(horizon) if horizon is not None else None
        self.supply = supply
        self.max_events = max_events
        self.kernel = kernel

        self.trace = Trace(record_segments=record_segments,
                           record_buffers=record_buffers,
                           record_events=record_events)
        overlap = overlap or {}
        self.nodes: Dict[Hashable, _SimNode] = {
            n: _SimNode(n, tree.w(n), overlap=overlap.get(n, True))
            for n in tree.nodes()
        }
        #: optional live metrics: per-node task/busy/buffer counters land in
        #: this registry as the run unfolds (None = seed behaviour, no cost)
        self.telemetry = telemetry
        self._released = 0
        self._stop_time: Optional[Fraction] = None
        self._generation = 0  # bumped by reconfigure() to retire old chains
        self._started = False  # the root's release chain is running
        self._control_jobs: Dict[Hashable, Deque] = {}
        self.tasks_lost = 0
        self.failed_at: Dict[Hashable, Fraction] = {}
        #: optional (parent, child, now) → Fraction multiplier on transfer
        #: times, used by fault injection for transient link degradation
        self._link_factor: Optional[Callable] = None
        #: cached (root schedule, T^w, release offsets) in kernel units
        self._grid_cache = None
        #: with segment recording off: max segment end in kernel units,
        #: flushed into the trace's end-time bookkeeping by :meth:`run`
        self._seg_end_max = ZERO if kernel == "fraction" else 0

        self._cost_units: Dict = {}
        self._horizon_units = None
        trace = self.trace
        if kernel != "fraction":
            # "int" and "array" share the scaled-integer time plumbing;
            # they differ in the engine's queue layout and (for "array")
            # the per-node state representation
            self._timeline = timeline_for(tree, schedules, horizon=self.horizon)
            # the trace records raw ticks; Fractions are built when read
            trace.use_ticks(self._timeline.scale)
            recorders = (trace.tick_segment, trace.tick_transfer,
                         trace.tick_completion, trace.tick_arrival,
                         trace.tick_buffer_delta, trace.tick_release)
            if kernel == "array":
                self.engine: Engine = ArrayEngine(self._timeline)
            else:
                self.engine = IntEngine(self._timeline)
            self._frac_memo: Dict[int, Fraction] = {}
            self._units = self._ensure_units
            self._frac = self._tick_fraction
            self._timeline.on_rescale(self._on_rescale)
            self._fill_duration_tables()
            if telemetry is not None:
                telemetry.gauge("timeline.scale_bits").set(
                    self._timeline.scale.bit_length())
        else:
            self._timeline = None
            self.engine = Engine()
            self._units = Fraction
            self._frac = _identity
            recorders = (trace.add_segment, trace.add_transfer,
                         trace.add_completion, trace.add_arrival,
                         trace.add_buffer_delta, trace.add_release)
            self._cost_units = {
                (tree.parent(n), n): tree.c(n)
                for n in tree.nodes() if tree.parent(n) is not None
            }
        # trace recorders taking kernel units (ticks or Fractions)
        (self._rec_segment, self._rec_transfer, self._rec_completion,
         self._rec_arrival, self._rec_delta, self._rec_release) = recorders
        self._horizon_units = (
            None if self.horizon is None else self._units(self.horizon))

    # ------------------------------------------------------------------
    # kernel plumbing
    # ------------------------------------------------------------------
    def _ensure_units(self, value) -> int:
        return self._timeline.ensure(
            value if isinstance(value, Fraction) else Fraction(value))

    def _tick_fraction(self, ticks: int) -> Fraction:
        memo = self._frac_memo
        f = memo.get(ticks)
        if f is None:
            if len(memo) >= _FRAC_MEMO_CAP:
                memo.clear()
            f = memo[ticks] = Fraction(ticks, self._timeline.scale)
        return f

    def _fill_duration_tables(self) -> None:
        """Precompute every known duration in ticks with one joint rescale."""
        tree = self.tree
        finite = [n for n in tree.nodes() if not is_infinite(tree.w(n))]
        edges = [n for n in tree.nodes() if tree.parent(n) is not None]
        ticks = self._timeline.ensure_all(
            [tree.w(n) for n in finite] + [tree.c(n) for n in edges])
        for node, w_ticks in zip(finite, ticks):
            self.nodes[node].w_units = w_ticks
        self._cost_units = {
            (tree.parent(n), n): c_ticks
            for n, c_ticks in zip(edges, ticks[len(finite):])
        }

    def _rescale_node_tables(self, factor: int) -> None:
        """Bring the per-node duration caches to the new scale.

        A hook so the array kernel can rescale its flat tables in one bulk
        multiply instead of one Python loop iteration per node."""
        for state in self.nodes.values():
            if not is_infinite(state.w_units):
                state.w_units *= factor
        self._cost_units = {k: v * factor for k, v in self._cost_units.items()}

    def _on_rescale(self, factor: int) -> None:
        """The timeline grew: bring every cached tick value to the new scale.

        (The engine rescaled its clock and heap already — it registered
        first.)  Multiplication by a positive int preserves all orderings,
        so state machines in flight are unaffected."""
        self._rescale_node_tables(factor)
        if self._horizon_units is not None:
            self._horizon_units *= factor
        if self._grid_cache is not None:
            schedule, t_w, offsets = self._grid_cache
            self._grid_cache = (schedule, t_w * factor,
                                [o * factor for o in offsets])
        self._seg_end_max *= factor
        self.trace.rescale(factor)
        for node, jobs in self._control_jobs.items():
            self._control_jobs[node] = deque(
                (duration * factor, cb) for duration, cb in jobs)
        self._frac_memo.clear()  # old entries denominate the old scale
        if self.telemetry is not None:
            self.telemetry.counter("timeline.rescales").inc()
            self.telemetry.gauge("timeline.scale_bits").set(
                self._timeline.scale.bit_length())

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _tel_buffer(self, node: Hashable, level: int) -> None:
        """Track a node's buffer occupancy (gauge: current; histogram:
        distribution of levels seen)."""
        self.telemetry.gauge("sim.buffer", node=node).set(level)
        self.telemetry.histogram("sim.buffer_levels", node=node).observe(level)

    # ------------------------------------------------------------------
    # root release driver
    # ------------------------------------------------------------------
    def _release_offsets(self, schedule: NodeSchedule) -> list:
        """Within-period release times of the root's bunch, per pacing mode.

        * ``even`` (default): the j-th designation at ``j·T^w/Ψ`` — uniform
          dissemination along the period;
        * ``marks``: at the interleave mark positions ``k/(ψ+1)`` scaled to
          ``T^w`` (Section 6.3's geometric construction taken literally);
        * ``burst``: the whole bunch at the period start (a naive clocked
          root; the steady rates still hold, buffering suffers).

        Pure rational values, independent of the running kernel; the cached
        :meth:`_root_grid` holds their kernel-unit conversions.
        """
        t_w = Fraction(schedule.periods.t_consume)
        bunch = schedule.bunch
        if self.root_pacing == "even":
            spacing = t_w / bunch
            return [j * spacing for j in range(bunch)]
        if self.root_pacing == "burst":
            return [ZERO] * bunch
        if self.root_pacing == "marks":
            marks = []
            for i, dest in enumerate(
                [d for d in schedule.quantities]
            ):
                count = schedule.quantities[dest]
                delta = Fraction(1, count + 1)
                for k in range(1, count + 1):
                    marks.append((k * delta, count, i))
            marks.sort()
            return [pos * t_w for pos, _, _ in marks]
        raise SimulationError(f"unknown root pacing {self.root_pacing!r}")

    def _root_grid(self, schedule: NodeSchedule):
        """``(T^w, release offsets)`` of *schedule* in kernel units, cached
        per schedule object (rebuilt after a reconfiguration or rescale)."""
        cached = self._grid_cache
        if cached is not None and cached[0] is schedule:
            return cached[1], cached[2]
        units = self._units
        bunch = schedule.bunch
        if self.root_pacing == "even" and bunch:
            # the even grid is an arithmetic progression: one conversion of
            # the spacing, then plain multiplications (the bunch can be in
            # the thousands on big trees — per-offset Fraction conversion
            # would dominate start-up)
            spacing = units(Fraction(schedule.periods.t_consume) / bunch)
            t_w = spacing * bunch  # exact: T^w == Ψ · (T^w/Ψ)
            offsets = [j * spacing for j in range(bunch)]
        else:
            t_w = units(Fraction(schedule.periods.t_consume))
            offsets = [units(o) for o in self._release_offsets(schedule)]
            if self._timeline is not None:
                # a conversion above may have rescaled: re-read at final scale
                t_w = units(Fraction(schedule.periods.t_consume))
                offsets = [units(o) for o in self._release_offsets(schedule)]
        self._grid_cache = (schedule, t_w, offsets)
        return t_w, offsets

    def _schedule_period(self, k: int, origin: Fraction = ZERO,
                         generation: int = 0) -> None:
        """Lazily schedule the k-th bunch of root releases.

        *origin* anchors the period grid (non-zero after a reconfiguration);
        a stale *generation* means :meth:`reconfigure` retired this chain.
        *origin* is carried as a Fraction across periods — it is converted
        to kernel units afresh each call, so a mid-run rescale between two
        periods cannot stale it.
        """
        if generation != self._generation:
            return
        schedule = self.schedules.get(self.tree.root)
        if schedule is None:
            return  # zero-throughput platform: the root releases nothing
        # absorb origin's denominator into the scale FIRST: then the final
        # conversion below cannot rescale, so the grid locals stay current
        self._units(origin)
        t_w, offsets = self._root_grid(schedule)
        start = self._units(origin) + k * t_w
        stopped = False
        for j, dest in enumerate(schedule.order):
            t = start + offsets[j]
            if self._horizon_units is not None and t >= self._horizon_units:
                stopped = True
                break
            if self.supply is not None and self._released >= self.supply:
                stopped = True
                break
            self._released += 1
            self.engine.push(
                t, lambda d=dest, g=generation, tt=t: self._release(d, tt, g)
            )
        if stopped:
            # remember when the supply was effectively cut
            if self._stop_time is None:
                self._stop_time = self._frac(t)
        else:
            self.engine.push(
                start + t_w,
                lambda g=generation: self._schedule_period(k + 1, origin, g),
            )

    def _release(self, dest: Hashable, time, generation: int = 0) -> None:
        """The root releases one task designated for *dest*."""
        if generation != self._generation:
            self._released -= 1  # the retired chain never released this task
            return
        root = self.tree.root
        state = self.nodes[root]
        state.arrivals += 1
        state.buffered += 1
        if self._record_events:
            now = self.engine._now
            self._rec_release(now, dest)
            if self._record_buffers:
                self._rec_delta(now, root, +1)
        if self.telemetry is not None:
            self.telemetry.counter("sim.tasks_released", node=root).inc()
            self._tel_buffer(root, state.buffered)
        self._route(root, dest)

    # ------------------------------------------------------------------
    # task movement
    # ------------------------------------------------------------------
    def _route(self, node: Hashable, dest: Hashable) -> None:
        state = self.nodes[node]
        if dest == node:
            if is_infinite(state.w):
                raise SimulationError(f"switch {node!r} was routed a compute task")
            state.compute_queue += 1
            self._try_start_compute(node)
        else:
            if dest not in self.tree.children(node):
                raise SimulationError(f"{node!r} cannot send to non-child {dest!r}")
            state.send_queue.append(dest)
            self._try_start_send(node)

    def _deliver(self, node: Hashable) -> None:
        """A task transfer to *node* just completed."""
        state = self.nodes[node]
        if state.dead:
            self.tasks_lost += 1  # delivered into a crashed node
            if self.telemetry is not None:
                self.telemetry.counter("sim.tasks_lost", node=node).inc()
            return
        index = state.arrivals
        state.arrivals += 1
        state.buffered += 1
        if self._record_events:
            now = self.engine._now
            self._rec_arrival(now, node)
            if self._record_buffers:
                self._rec_delta(now, node, +1)
        if self.telemetry is not None:
            self.telemetry.counter("sim.tasks_received", node=node).inc()
            self._tel_buffer(node, state.buffered)
        dest = self.controller.destination(node, index)
        self._route(node, dest)
        # a threshold controller may have just unblocked computing
        self._try_start_compute(node)

    def _try_start_compute(self, node: Hashable) -> None:
        state = self.nodes[node]
        if state.dead:
            return
        if state.computing or state.compute_queue == 0:
            return
        if not state.overlap and (state.sending or state.receiving):
            return  # a no-overlap node cannot compute while communicating
        if not self.controller.may_compute(state):
            return
        state.computing = True
        state.compute_queue -= 1
        start = self.engine._now
        end = start + state.w_units
        if self._record_segments:
            self._rec_segment(node, COMPUTE, start, end)
        elif end > self._seg_end_max:
            self._seg_end_max = end
        if self.telemetry is not None:
            self.telemetry.counter("sim.busy_time", node=node,
                                   resource="cpu").inc(state.w)
        self.engine.push(end, lambda: self._compute_done(node))

    def _compute_done(self, node: Hashable) -> None:
        state = self.nodes[node]
        if state.dead:
            return  # the task died with the node (already counted lost)
        state.computing = False
        state.buffered -= 1
        if self._record_events:
            now = self.engine._now
            self._rec_completion(now, node)
            if self._record_buffers:
                self._rec_delta(now, node, -1)
        else:
            self.trace.count_completion()
        if self.telemetry is not None:
            now = self._frac(self.engine._now)
            self.telemetry.counter("sim.tasks_computed", node=node).inc()
            self._tel_buffer(node, state.buffered)
            # live-throughput probes: the engine's event cursor and the
            # virtual clock, refreshed on every completion so a streaming
            # registry can render progress and event rate without touching
            # the hot path of untelemetered runs
            self.telemetry.gauge("sim.events_processed").set(
                self.engine.processed)
            self.telemetry.gauge("sim.clock").set(now)
        # communication gets priority at a no-overlap node: first release a
        # parent transfer held back by our computing, then our own port,
        # then (if still allowed) the next local task
        parent = self.tree.parent(node)
        if parent is not None:
            self._try_start_send(parent)
        self._try_start_send(node)
        self._try_start_compute(node)

    def _try_start_send(self, node: Hashable) -> None:
        state = self.nodes[node]
        if state.dead or state.sending:
            return
        if not state.overlap and state.computing:
            return  # a no-overlap node cannot send while computing
        # control messages (reconfiguration traffic) pre-empt task transfers
        # (outer guard: the jobs dict is empty in the vast majority of runs)
        jobs = self._control_jobs.get(node) if self._control_jobs else None
        if jobs:
            duration, callback = jobs.popleft()
            state.sending = True
            start = self.engine._now
            end = start + duration
            if self._record_segments:
                self._rec_segment(node, CTRL, start, end)
            elif end > self._seg_end_max:
                self._seg_end_max = end
            if self.telemetry is not None:
                self.telemetry.counter("sim.ctrl_jobs", node=node).inc()
                self.telemetry.counter("sim.busy_time", node=node,
                                       resource="send").inc(self._frac(duration))

            def ctrl_done() -> None:
                state.sending = False
                if callback is not None:
                    callback()
                self._try_start_send(node)
                self._try_start_compute(node)

            self.engine.push(end, ctrl_done)
            return
        if not state.send_queue:
            return
        # an in-order transfer to a no-overlap child waits for its CPU
        head = state.send_queue[0]
        head_state = self.nodes[head]
        if not head_state.overlap and head_state.computing:
            return  # the child's compute completion will wake us
        child = state.send_queue.popleft()
        state.sending = True
        self.nodes[child].receiving = True
        cost = self._cost_units[(node, child)]
        if self._link_factor is not None:
            # the factor callback sees the exact rational time; converting
            # its (possibly incommensurate) result may grow the scale, so
            # only read the tick clock afterwards
            start_frac = self._frac(self.engine._now)
            cost = self._units(
                self.tree.edge_cost(node, child)
                * Fraction(self._link_factor(node, child, start_frac))
            )
        start = self.engine._now
        end = start + cost
        if self._record_segments:
            self._rec_transfer(node, child, start, end)
        elif end > self._seg_end_max:
            self._seg_end_max = end
        if self.telemetry is not None:
            cost_frac = self._frac(cost)
            self.telemetry.counter("sim.busy_time", node=node,
                                   resource="send").inc(cost_frac)
            self.telemetry.counter("sim.busy_time", node=child,
                                   resource="recv").inc(cost_frac)
        self.engine.push(end, lambda: self._send_done(node, child))

    def _send_done(self, node: Hashable, child: Hashable) -> None:
        state = self.nodes[node]
        if state.dead:
            # the sender crashed mid-transfer: the task was counted lost at
            # crash time; just release the child's receive port
            self.nodes[child].receiving = False
            return
        state.sending = False
        state.buffered -= 1
        self.nodes[child].receiving = False
        if self._record_buffers:
            self._rec_delta(self.engine._now, node, -1)
        if self.telemetry is not None:
            self.telemetry.counter("sim.tasks_forwarded", node=node,
                                   child=child).inc()
            self._tel_buffer(node, state.buffered)
        self._deliver(child)
        self._try_start_send(node)
        # a no-overlap node's CPU may have been waiting on the port
        self._try_start_compute(node)

    # ------------------------------------------------------------------
    # fault injection (used by repro.faults)
    # ------------------------------------------------------------------
    def fail_node(self, node: Hashable) -> None:
        """Crash *node* right now (fail-stop).

        Everything the node holds is destroyed and counted in
        ``tasks_lost``: its buffered tasks (including the one being
        computed and the one its port is pushing out), its compute queue
        and its send queue.  A transfer *into* the node that is already on
        the wire completes at the parent — single-port sends are
        non-interruptible — and the task is lost on delivery.  The node's
        descendants keep running; until a recovery prunes them they starve,
        which is exactly the behaviour :func:`~repro.faults.recovery.resilient_run`
        measures.  The root cannot fail (it owns the task supply; a dead
        root is a dead application, not a recoverable fault).
        """
        if node == self.tree.root:
            raise SimulationError("the root cannot fail: it owns the supply")
        if node not in self.nodes:
            raise SimulationError(f"cannot fail unknown node {node!r}")
        if self.nodes[node].dead:
            return
        self._kill(node)

    def _kill(self, node: Hashable) -> None:
        """Shared fail-stop body: destroy *node*'s state, count the losses."""
        state = self.nodes[node]
        now = self._frac(self.engine._now)
        state.dead = True
        self.failed_at[node] = now
        if self.telemetry is not None:
            self.telemetry.counter("sim.crashes", node=node).inc()
            self.telemetry.record_span("crash", now, now, node=node,
                                       buffered=state.buffered)
        if state.buffered > 0:
            self.tasks_lost += state.buffered
            self._rec_delta(self.engine._now, node, -state.buffered)
            if self.telemetry is not None:
                self.telemetry.counter("sim.tasks_lost",
                                       node=node).inc(state.buffered)
                self._tel_buffer(node, 0)
            state.buffered = 0
        state.compute_queue = 0
        state.send_queue.clear()
        state.computing = False
        state.sending = False  # _send_done's dead-sender guard frees the child
        self._control_jobs.pop(node, None)

    def fail_root(self) -> None:
        """Crash the acting master right now (the root-failover scenario).

        Unlike :meth:`fail_node`, here the root *is* allowed to die — the
        caller promises an election follows (:meth:`failover_root` plus
        :meth:`reconfigure` at the recovery switch).  The release chain is
        retired immediately: a dead master releases nothing.
        """
        root = self.tree.root
        if self.nodes[root].dead:
            return
        self._generation += 1  # retire pending release chains
        self._kill(root)

    def revive_node(self, node: Hashable) -> None:
        """Bring a crashed *node* back, repaired and empty.

        A no-op for a live node, so rejoin events can be armed
        unconditionally.  The node returns with clean buffers and a free
        port; its crash history in ``failed_at`` is kept for reporting.
        It rejoins the *task flow* only once a reconfiguration routes work
        to it again.
        """
        if node not in self.nodes:
            raise SimulationError(f"cannot revive unknown node {node!r}")
        state = self.nodes[node]
        if not state.dead:
            return
        state.dead = False
        state.receiving = False
        state.computing = False
        state.sending = False
        if self.telemetry is not None:
            now = self._frac(self.engine._now)
            self.telemetry.counter("sim.revivals", node=node).inc()
            self.telemetry.record_span("revive", now, now, node=node)

    def failover_root(self, new_root: Hashable) -> None:
        """Promote *new_root* after the master died (the election outcome).

        Requires the current root to be dead (:meth:`fail_root` ran) and
        *new_root* to be one of its live children.  The tree is re-rooted
        in place — the old root leaves, its remaining children re-parent
        under *new_root* at their original edge costs — and the duration
        tables are refreshed.  The caller installs the new root's schedules
        via :meth:`reconfigure`, typically in the same callback, so no
        release can fall in between.
        """
        root = self.tree.root
        if not self.nodes[root].dead:
            raise SimulationError(
                "failover requires the current root to be dead"
            )
        if new_root not in self.nodes or self.nodes[new_root].dead:
            raise SimulationError(f"cannot elect {new_root!r}: unknown or dead")
        self.tree.failover_root(new_root)
        if self._timeline is not None:
            self._fill_duration_tables()
        else:
            tree = self.tree
            self._cost_units = {
                (tree.parent(n), n): tree.c(n)
                for n in tree.nodes() if tree.parent(n) is not None
            }
        self._grid_cache = None
        if self.telemetry is not None:
            self.telemetry.counter("sim.failovers").inc()

    def schedule_failure(self, node: Hashable, time) -> None:
        """Arrange for *node* to crash at virtual *time*."""
        self.engine.schedule_at(Fraction(time), lambda: self.fail_node(node))

    def set_link_time_factor(self, factor: Optional[Callable]) -> None:
        """Install a ``(parent, child, start_time) → Fraction`` multiplier
        applied to every task-transfer duration — transient link
        degradation.  ``None`` removes it.  Transfers already in progress
        keep their original duration."""
        self._link_factor = factor

    # ------------------------------------------------------------------
    # online reconfiguration (used by repro.extensions.online)
    # ------------------------------------------------------------------
    def inject_control(self, node: Hashable, duration,
                       callback=None) -> None:
        """Queue a control-plane job on *node*'s send port.

        Control jobs model negotiation messages: they pre-empt queued task
        transfers (they are tiny but must cross the same port) and are
        recorded as ``CTRL`` segments.  Jobs for a dead node are dropped —
        its port no longer exists (the callback never fires).
        """
        if self.nodes[node].dead:
            return
        # convert BEFORE touching the queue dict: a rescale triggered by the
        # conversion replaces every queued deque with a scaled copy, so a
        # reference grabbed earlier would be appended into an orphan
        duration_units = self._units(Fraction(duration))
        self._control_jobs.setdefault(node, deque()).append(
            (duration_units, callback)
        )
        self._try_start_send(node)

    def swap_platform(self, tree: Tree) -> None:
        """The physical platform drifted: costs/weights change in place.

        *tree* must have the same topology; transfers and computations
        already in progress finish at their old durations, new ones use the
        new values.
        """
        if set(tree.nodes()) != set(self.tree.nodes()):
            raise SimulationError("swap_platform requires the same topology")
        self.tree = tree
        for node in tree.nodes():
            self.nodes[node].w = tree.w(node)
        if self._timeline is not None:
            self._fill_duration_tables()
        else:
            for node in tree.nodes():
                self.nodes[node].w_units = self.nodes[node].w
            self._cost_units = {
                (tree.parent(n), n): tree.c(n)
                for n in tree.nodes() if tree.parent(n) is not None
            }

    def reconfigure(self, schedules: Mapping[Hashable, NodeSchedule],
                    periods: Mapping[Hashable, NodePeriods]) -> None:
        """Switch every node to new event-driven *schedules* right now.

        The old root release chain is retired and a new one starts
        immediately, anchored at the current time; clock-free nodes keep
        their arrival counters and simply continue into the new bunch
        orders (nodes dropped from the new schedules drain residual tasks
        by their retired orders).
        """
        # merge with schedules retired by earlier reconfigurations: a node
        # pruned two epochs ago may still be draining its residual buffer
        retired = dict(getattr(self.controller, "retired", None) or {})
        retired.update(self.schedules)
        self.schedules = dict(schedules)
        self.periods = dict(periods)
        self.controller.schedules = self.schedules
        self.controller.retired = retired
        self._generation += 1
        self._grid_cache = None
        origin_units = self.engine._now
        origin = self._frac(origin_units)
        self.engine.push(
            origin_units,
            lambda g=self._generation: self._schedule_period(0, origin, g),
        )

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def _start(self) -> None:
        """Start the root's release chain (once per run)."""
        if not self._started:
            self._started = True
            self._schedule_period(0)

    def run_until(self, time) -> None:
        """Run every event up to virtual *time*, then pause.

        The trace can be read at the pause; :meth:`run` continues the same
        run to completion.
        """
        self._start()
        self.engine.run_until(time)

    def run(self) -> SimulationResult:
        """Run to completion: release until horizon/supply, then drain."""
        if self.telemetry is not None and self.horizon is not None:
            self.telemetry.gauge("sim.horizon").set(self.horizon)
        self._start()
        self.engine.run_all(max_events=self.max_events)
        if self.telemetry is not None:
            self.telemetry.gauge("sim.events_processed").set(
                self.engine.processed)
        if not self._record_segments and self._seg_end_max:
            # segment ends were tracked in kernel units (cheap int compares
            # on the int kernel) instead of per-event trace updates; fold
            # the max into the trace so end_time matches a recording run
            end_f = self._frac(self._seg_end_max)
            if end_f > self.trace._last_time:
                self.trace._last_time = end_f
        stop = self._stop_time
        if stop is None and self.horizon is not None:
            stop = self.horizon
        return SimulationResult(
            trace=self.trace,
            tree=self.tree,
            schedules=self.schedules,
            periods=self.periods,
            released=self._released,
            stop_time=stop,
            end_time=self.trace.end_time,
            tasks_lost=self.tasks_lost,
            failed_at=dict(self.failed_at),
        )


def simulate(
    tree: Tree,
    allocation: Optional[Allocation] = None,
    policy: Callable = interleaved_order,
    horizon: Optional[Fraction] = None,
    supply: Optional[int] = None,
    compute_during_startup: bool = True,
    overlap: Optional[Mapping[Hashable, bool]] = None,
    root_pacing: str = "even",
    record_segments: bool = True,
    record_buffers: bool = True,
    record_events: bool = True,
    max_events: int = 5_000_000,
    telemetry: Optional[Registry] = None,
    kernel: str = "array",
) -> SimulationResult:
    """One-call simulation of *tree* running its optimal event-driven schedule.

    When *allocation* is omitted it is computed by BW-First.  *policy* orders
    each node's bunch (default: the paper's interleaving).  The root releases
    tasks until *horizon* time units and/or *supply* tasks, whichever comes
    first; the simulation then drains and the result's ``wind_down`` measures
    the drain time.  ``compute_during_startup=False`` selects the traditional
    buffered-start baseline instead of the paper's Section 7 strategy.

    *overlap* maps nodes to their overlap capability (Section 3's operation
    modes; default: every node is full-overlap).  A ``False`` node cannot
    compute while either of its ports is active: its CPU defers to transfers
    (an inbound transfer to it waits for its current task to finish, then
    takes priority over the next one).  Running the *full-overlap-optimal*
    schedule on such nodes measures what the overlap capability is worth —
    experiment E18 — not the optimum of the non-overlap model, which is a
    different scheduling problem.

    *telemetry* attaches a :class:`~repro.telemetry.core.Registry`: the run
    then maintains per-node counters (``sim.tasks_released`` /
    ``sim.tasks_received`` / ``sim.tasks_computed`` / ``sim.tasks_lost``,
    per-link ``sim.tasks_forwarded``), port/CPU busy-time counters
    (``sim.busy_time{node,resource}``) and buffer-occupancy gauges and
    histograms, live as the simulation unfolds.  ``None`` (the default)
    runs the exact uninstrumented code path.

    *kernel* selects the exact time kernel: ``"array"`` (default) runs the
    event loop on scaled-integer ticks over struct-of-arrays state and a
    bucketed tick queue (same results, the fastest), ``"int"`` on the same
    ticks over per-node objects and a heap, ``"fraction"`` on per-event
    rationals — see the module docstring, :mod:`repro.core.timeline` and
    :mod:`repro.sim.arraystate`.  ``record_events=False`` (requires the
    other two ``record_*`` flags off) keeps only the completion counter
    and end time — the counts-only mode for multi-million-event runs.
    """
    if allocation is None:
        from ..core.allocation import from_bw_first
        from ..core.bwfirst import bw_first

        allocation = from_bw_first(bw_first(tree))
    periods = tree_periods(allocation)
    schedules = build_schedules(allocation, policy=policy, periods=periods)
    if compute_during_startup:
        controller: Controller = Controller(schedules)
    else:
        thresholds = {node: periods[node].chi_in for node in schedules}
        controller = BufferedStartController(schedules, thresholds, tree.root)
    sim = Simulation(
        tree,
        schedules,
        periods,
        controller=controller,
        horizon=horizon,
        supply=supply,
        overlap=overlap,
        root_pacing=root_pacing,
        record_segments=record_segments,
        record_buffers=record_buffers,
        record_events=record_events,
        max_events=max_events,
        telemetry=telemetry,
        kernel=kernel,
    )
    return sim.run()
