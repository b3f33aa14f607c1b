"""Struct-of-arrays simulation state: the ``kernel="array"`` core.

The int kernel (PR 5) made event *timestamps* cheap; at 10k+ nodes the
remaining cost is per-event Python object churn — attribute loads on
per-node ``_SimNode`` objects, a Timer + closure per heap push, one heap
operation per event.  This module removes all three:

* **per-node state lives in flat parallel arrays** indexed by a dense
  node id (:func:`~repro.core.timeline.dense_index`): ``bytearray`` flags
  (dead/computing/sending/receiving/overlap), plain-int lists (compute
  queue depth, arrival/buffer counters) and :class:`DurationTable` tick
  tables for compute/transfer durations.  ``sim.nodes`` stays a mapping
  of name → node state — each value is a :class:`_NodeView` window onto
  the arrays — so heartbeat monitors, fault plans and custom controllers
  are unchanged;
* **the event loop is the bucketed** :class:`~repro.sim.engine.ArrayEngine`
  — same-tick events drain in one batch, and the simulator schedules its
  hot events via ``defer(tick, bound_method, small_arg)``: no Timer, no
  closure, no per-event allocation beyond one tuple;
* **routing is precompiled**: each node's bunch order is translated once
  into a dense-id route table, so the per-task destination lookup is two
  list indexes instead of a dict walk through schedule objects (custom
  controllers transparently fall back to the generic path).

Durations are stored int64-packed — a numpy array when numpy is
importable (the ``repro[fast]`` extra), ``array('q')`` otherwise — so a
mid-run rescale is one vectorised multiply; the *hot read path* is always
a plain Python int list, so no numpy scalar ever leaks into tick
arithmetic.  A rescale that would exceed int64 triggers a warn-once +
``sim.int64_fallbacks`` telemetry counter and a transparent fallback to
arbitrary-precision Python ints: slower, never wrong.  Set
``REPRO_NO_NUMPY=1`` to force the pure-Python backends (the no-numpy CI
leg does).

The kernel is **bit-identical** to ``kernel="fraction"`` — same trace,
same event order, same rationals, including crashes, rejoin,
reconfiguration and mid-run rescales — property-tested across 25 seeds in
``tests/test_timeline.py``.
"""

from __future__ import annotations

import os
import warnings
from array import array
from collections import deque
from fractions import Fraction
from heapq import heappush
from typing import Callable, Dict, Hashable, List, Optional

from ..core.rates import ZERO, is_infinite
from ..core.timeline import dense_index
from ..exceptions import SimulationError
from .tracing import _TRANSFER, COMPUTE, CTRL

# simulator never imports this module at load time (the kernel="array"
# dispatch imports it lazily), so this is cycle-free
from .simulator import Controller, Simulation

try:  # pragma: no cover - exercised via both CI legs
    import numpy as _np
except Exception:  # pragma: no cover
    _np = None

_I64_MAX = 2**63 - 1


def _numpy():
    """The numpy module, or ``None`` when absent or disabled via the
    ``REPRO_NO_NUMPY`` environment variable (checked per call so tests and
    the no-numpy CI leg can flip it without reimporting)."""
    if _np is None or os.environ.get("REPRO_NO_NUMPY"):
        return None
    return _np


class DurationTable:
    """Per-node integer tick durations: int64 bulk storage + exact reads.

    ``values`` is *always* a plain Python list of exact ints — the hot
    path indexes it directly, so no ``np.int64`` (whose arithmetic can
    silently wrap) ever reaches tick math.  The packed store (numpy int64
    array or ``array('q')``) is the bulk layer: :meth:`rescale` multiplies
    it in one vectorised operation and regenerates ``values`` via
    ``tolist()``.  When a value would exceed int64 — a huge denominator
    joining the timeline mid-run — the table drops to ``mode="object"``
    (plain-int bulk loop) and reports the fallback once through
    *on_fallback*; exactness is never at stake, only the bulk speed.
    """

    __slots__ = ("values", "mode", "_store", "_on_fallback")

    def __init__(self, values, on_fallback: Optional[Callable] = None):
        self.values: List[int] = [int(v) for v in values]
        self._on_fallback = on_fallback
        self._store = None
        self.mode = "object"
        self._pack()

    def _pack(self) -> None:
        np = _numpy()
        try:
            if np is not None:
                self._store = np.array(self.values, dtype=np.int64)
                self.mode = "numpy"
            else:
                self._store = array("q", self.values)
                self.mode = "array"
        except (OverflowError, ValueError):
            # values too large to pack at construction time
            self._to_object()

    def _to_object(self) -> None:
        self._store = None
        self.mode = "object"
        hook = self._on_fallback
        if hook is not None:
            self._on_fallback = None  # report each table's fallback once
            hook()

    def get(self, i: int) -> int:
        return self.values[i]

    def set(self, i: int, value: int) -> None:
        value = int(value)
        self.values[i] = value
        store = self._store
        if store is not None:
            try:
                store[i] = value
            except (OverflowError, ValueError):
                self._to_object()

    def rescale(self, factor: int) -> None:
        """Multiply every duration by a positive int *factor* (a timeline
        scale growth), falling back to object mode on int64 overflow.

        ``values`` is updated **in place** (slice assignment): the compiled
        hot handlers close over the list object, so its identity must
        survive every rescale.
        """
        mode = self.mode
        if mode == "numpy":
            store = self._store
            if len(store) == 0:
                return
            if int(store.max()) * factor > _I64_MAX:
                self._to_object()
            else:
                store *= factor
                self.values[:] = store.tolist()
                return
        elif mode == "array":
            try:
                self._store = array("q", (v * factor for v in self.values))
            except OverflowError:
                self._to_object()
            else:
                self.values[:] = self._store.tolist()
                return
        # object mode (possibly just entered): exact, unbounded
        self.values[:] = [v * factor for v in self.values]


class ArrayState:
    """Flat parallel per-node state arrays indexed by dense node id.

    Built from a fully-initialised ``name → _SimNode`` mapping; after
    construction the arrays are the single source of truth and the
    original ``_SimNode`` objects are discarded (the simulation's
    ``nodes`` mapping is replaced by :class:`_NodeView` windows).

    ``send_queue[i]`` holds **dense child ids**, not names.
    """

    __slots__ = (
        "names", "index", "parent", "dead", "computing", "sending",
        "receiving", "overlap", "w_inf", "compute_queue", "arrivals",
        "buffered", "send_queue", "w_frac", "w_units", "cost",
        "int64_fallbacks", "_fallback_hook", "backend",
    )

    def __init__(self, tree, nodes, cost_units,
                 on_fallback: Optional[Callable] = None):
        self._fallback_hook = on_fallback
        self.int64_fallbacks = 0
        self.names, self.index = dense_index(nodes)
        index = self.index
        n = len(self.names)
        self.parent = [-1] * n
        for name in tree.nodes():
            p = tree.parent(name)
            if p is not None:
                self.parent[index[name]] = index[p]
        self.dead = bytearray(n)
        self.computing = bytearray(n)
        self.sending = bytearray(n)
        self.receiving = bytearray(n)
        self.overlap = bytearray(n)
        self.w_inf = bytearray(n)
        self.compute_queue = [0] * n
        self.arrivals = [0] * n
        self.buffered = [0] * n
        self.send_queue = [deque() for _ in range(n)]
        self.w_frac: List = [None] * n
        w_units = [0] * n
        for name, state in nodes.items():
            i = index[name]
            self.dead[i] = 1 if state.dead else 0
            self.computing[i] = 1 if state.computing else 0
            self.sending[i] = 1 if state.sending else 0
            self.receiving[i] = 1 if state.receiving else 0
            self.overlap[i] = 1 if state.overlap else 0
            self.w_frac[i] = state.w
            if is_infinite(state.w_units):
                self.w_inf[i] = 1
            else:
                w_units[i] = state.w_units
            self.compute_queue[i] = state.compute_queue
            self.arrivals[i] = state.arrivals
            self.buffered[i] = state.buffered
            self.send_queue[i].extend(index[d] for d in state.send_queue)
        cost = [0] * n
        for (_, child), ticks in cost_units.items():
            cost[index[child]] = ticks
        self.w_units = DurationTable(w_units, on_fallback=self._fallback)
        self.cost = DurationTable(cost, on_fallback=self._fallback)
        self.backend = self.w_units.mode

    def _fallback(self) -> None:
        self.int64_fallbacks += 1
        self.backend = "object"
        hook = self._fallback_hook
        if hook is not None:
            hook()

    def rescale(self, factor: int) -> None:
        self.w_units.rescale(factor)
        self.cost.rescale(factor)


class _NodeView:
    """A ``_SimNode``-compatible window onto one dense id of an
    :class:`ArrayState`: external consumers (heartbeat monitors, custom
    controllers, fault plans, tests) read and write the same attributes
    they would on a ``_SimNode`` and the arrays stay the single source of
    truth."""

    __slots__ = ("_s", "_i")

    def __init__(self, state: ArrayState, i: int):
        self._s = state
        self._i = i

    @property
    def name(self):
        return self._s.names[self._i]

    @property
    def w(self):
        return self._s.w_frac[self._i]

    @w.setter
    def w(self, value):
        s, i = self._s, self._i
        s.w_frac[i] = value
        s.w_inf[i] = 1 if is_infinite(value) else 0

    @property
    def w_units(self):
        s, i = self._s, self._i
        if s.w_inf[i]:
            return s.w_frac[i]  # the infinite rational, as in _SimNode
        return s.w_units.values[i]

    @w_units.setter
    def w_units(self, value):
        s, i = self._s, self._i
        if is_infinite(value):
            s.w_inf[i] = 1
            return
        s.w_inf[i] = 0
        s.w_units.set(i, value)

    @property
    def send_queue(self):
        """The outbound FIFO (holds dense child ids on this kernel)."""
        return self._s.send_queue[self._i]

    @property
    def compute_queue(self) -> int:
        return self._s.compute_queue[self._i]

    @compute_queue.setter
    def compute_queue(self, value: int) -> None:
        self._s.compute_queue[self._i] = value

    @property
    def arrivals(self) -> int:
        return self._s.arrivals[self._i]

    @arrivals.setter
    def arrivals(self, value: int) -> None:
        self._s.arrivals[self._i] = value

    @property
    def buffered(self) -> int:
        return self._s.buffered[self._i]

    @buffered.setter
    def buffered(self, value: int) -> None:
        self._s.buffered[self._i] = value

    @property
    def computing(self) -> bool:
        return bool(self._s.computing[self._i])

    @computing.setter
    def computing(self, value: bool) -> None:
        self._s.computing[self._i] = 1 if value else 0

    @property
    def sending(self) -> bool:
        return bool(self._s.sending[self._i])

    @sending.setter
    def sending(self, value: bool) -> None:
        self._s.sending[self._i] = 1 if value else 0

    @property
    def receiving(self) -> bool:
        return bool(self._s.receiving[self._i])

    @receiving.setter
    def receiving(self, value: bool) -> None:
        self._s.receiving[self._i] = 1 if value else 0

    @property
    def overlap(self) -> bool:
        return bool(self._s.overlap[self._i])

    @overlap.setter
    def overlap(self, value: bool) -> None:
        self._s.overlap[self._i] = 1 if value else 0

    @property
    def dead(self) -> bool:
        return bool(self._s.dead[self._i])

    @dead.setter
    def dead(self, value: bool) -> None:
        self._s.dead[self._i] = 1 if value else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_NodeView {self.name!r} idx={self._i}>"


class ArraySimulation(Simulation):
    """:class:`~repro.sim.simulator.Simulation` with struct-of-arrays hot
    state.  Constructed transparently by ``Simulation(kernel="array")``;
    the public surface (``nodes``, ``engine``, fault injection, online
    reconfiguration, telemetry) is identical — see the module docstring
    for what moved into arrays."""

    def __init__(self, *args, **kwargs):
        if kwargs.get("kernel", "array") != "array":
            raise SimulationError("ArraySimulation requires kernel='array'")
        kwargs["kernel"] = "array"
        # base __init__ runs on ordinary _SimNodes (rescales during the
        # initial duration fill are handled by the base tables); the
        # arrays take over afterwards
        self._astate: Optional[ArrayState] = None
        self._int64_fallbacks = 0
        self._seg_cell = [0]  # _seg_end_max cell (see property below)
        super().__init__(*args, **kwargs)
        st = ArrayState(self.tree, self.nodes, self._cost_units,
                        on_fallback=self._note_int64_fallback)
        self._astate = st
        self._views = [_NodeView(st, i) for i in range(len(st.names))]
        self.nodes = {name: view for name, view in zip(st.names, self._views)}
        self._root_idx = st.index[self.tree.root]
        self._routes: List[Optional[list]] = [None] * len(st.names)
        self._route_flags = [True, True]  # [fast_routes, default_may]
        self._rebuild_routes()
        self._bind_hot()

    # hot-handler cells: the compiled closures (see _bind_hot) read these
    # through identity-stable lists, while base-class code keeps using the
    # original attribute names
    @property
    def _fast_routes(self) -> bool:
        return self._route_flags[0]

    @property
    def _default_may(self) -> bool:
        return self._route_flags[1]

    @property
    def _seg_end_max(self):
        return self._seg_cell[0]

    @_seg_end_max.setter
    def _seg_end_max(self, value) -> None:
        self._seg_cell[0] = value

    # ------------------------------------------------------------------
    # int64 overflow fallback reporting
    # ------------------------------------------------------------------
    def _note_int64_fallback(self) -> None:
        self._int64_fallbacks += 1
        if self._int64_fallbacks == 1:
            warnings.warn(
                "kernel='array': tick magnitudes exceeded int64; duration "
                "tables fell back to exact arbitrary-precision ints "
                "(results stay exact, bulk rescales lose vectorisation)",
                RuntimeWarning, stacklevel=3)
        if self.telemetry is not None:
            self.telemetry.counter("sim.int64_fallbacks").inc()

    # ------------------------------------------------------------------
    # precompiled routing
    # ------------------------------------------------------------------
    def _rebuild_routes(self) -> None:
        """Translate every node's bunch order into dense ids, validated
        once: an entry is an ``int`` destination id when the base kernel's
        per-event checks (self-route on a finite-w node, or a genuine
        child) are known to pass, else the raw destination name so the
        generic path reproduces the base error lazily at event time."""
        st = self._astate
        index = st.index
        tree = self.tree
        tree_nodes = set(tree.nodes())
        routes: List[Optional[list]] = [None] * len(st.names)
        for name, schedule in self.schedules.items():
            i = index.get(name)
            order = schedule.order
            if i is None or not order or name not in tree_nodes:
                continue
            children = set(tree.children(name))
            entries: list = []
            for dest in order:
                if dest == name and not st.w_inf[i]:
                    entries.append(i)
                elif dest in children:
                    entries.append(index[dest])
                else:
                    entries.append(dest)
            routes[i] = entries
        # in-place: the compiled hot handlers close over the route list
        # and the flag cell, so both identities must survive a rebuild
        self._routes[:] = routes
        controller = self.controller
        self._route_flags[0] = (
            type(controller).destination is Controller.destination)
        self._route_flags[1] = (
            type(controller).may_compute is Controller.may_compute)

    # ------------------------------------------------------------------
    # name-based API → dense-id hot paths
    # ------------------------------------------------------------------
    # The base class's task-movement methods would corrupt the dense-id
    # send queues (they append names), so every one of them delegates.
    def _release(self, dest, time=None, generation: int = 0) -> None:
        self._release_slow((dest, generation))

    def _route(self, node, dest) -> None:
        self._route_by_name(self._astate.index[node], dest)

    def _deliver(self, node) -> None:
        self._deliver_a(self._astate.index[node])

    def _try_start_compute(self, node) -> None:
        self._try_compute_a(self._astate.index[node])

    def _try_start_send(self, node) -> None:
        self._try_send_a(self._astate.index[node])

    def _compute_done(self, node) -> None:
        self._compute_done_a(self._astate.index[node])

    def _send_done(self, node, child) -> None:
        st = self._astate
        self._send_done_a((st.index[node], st.index[child]))

    # ------------------------------------------------------------------
    # root release driver (dense-id port of Simulation._schedule_period)
    # ------------------------------------------------------------------
    def _schedule_period(self, k: int, origin: Fraction = ZERO,
                         generation: int = 0) -> None:
        if generation != self._generation:
            return
        schedule = self.schedules.get(self.tree.root)
        if schedule is None:
            return  # zero-throughput platform: the root releases nothing
        # absorb origin's denominator into the scale FIRST (see base)
        self._units(origin)
        t_w, offsets = self._root_grid(schedule)
        start = self._units(origin) + k * t_w
        stopped = False
        engine = self.engine
        route = self._routes[self._root_idx]
        for j, dest in enumerate(schedule.order):
            t = start + offsets[j]
            if self._horizon_units is not None and t >= self._horizon_units:
                stopped = True
                break
            if self.supply is not None and self._released >= self.supply:
                stopped = True
                break
            self._released += 1
            d = route[j] if route is not None else dest
            if type(d) is int:
                engine.defer(t, self._release_a, (d, generation))
            else:
                engine.defer(t, self._release_slow, (d, generation))
        if stopped:
            if self._stop_time is None:
                self._stop_time = self._frac(t)
        else:
            engine.defer(start + t_w, self._period_a, (k + 1, origin,
                                                       generation))

    def _period_a(self, arg) -> None:
        k, origin, generation = arg
        self._schedule_period(k, origin, generation)

    def _release_slow(self, arg) -> None:
        """Generic release: full base-kernel destination checks."""
        dest, generation = arg
        if generation != self._generation:
            self._released -= 1
            return
        st = self._astate
        ri = self._root_idx
        st.arrivals[ri] += 1
        st.buffered[ri] += 1
        root = st.names[ri]
        if self._record_events:
            now = self.engine._now
            self._rec_release(now, dest)
            if self._record_buffers:
                self._rec_delta(now, root, +1)
        if self.telemetry is not None:
            self.telemetry.counter("sim.tasks_released", node=root).inc()
            self._tel_buffer(root, st.buffered[ri])
        self._route_by_name(ri, dest)

    # ------------------------------------------------------------------
    # task movement (dense-id ports of the base hot methods; guard order
    # and side-effect order match the base exactly — the equivalence
    # property suite pins this)
    # ------------------------------------------------------------------
    def _route_by_name(self, i: int, dest) -> None:
        st = self._astate
        name = st.names[i]
        if dest == name:
            if st.w_inf[i]:
                raise SimulationError(
                    f"switch {name!r} was routed a compute task")
            st.compute_queue[i] += 1
            self._try_compute_a(i)
        else:
            if dest not in self.tree.children(name):
                raise SimulationError(
                    f"{name!r} cannot send to non-child {dest!r}")
            st.send_queue[i].append(st.index[dest])
            self._try_send_a(i)

    def _deliver_a(self, i: int) -> None:
        st = self._astate
        if st.dead[i]:
            self.tasks_lost += 1  # delivered into a crashed node
            if self.telemetry is not None:
                self.telemetry.counter("sim.tasks_lost",
                                       node=st.names[i]).inc()
            return
        index = st.arrivals[i]
        st.arrivals[i] = index + 1
        st.buffered[i] += 1
        if self._record_events:
            name = st.names[i]
            now = self.engine._now
            self._rec_arrival(now, name)
            if self._record_buffers:
                self._rec_delta(now, name, +1)
        if self.telemetry is not None:
            name = st.names[i]
            self.telemetry.counter("sim.tasks_received", node=name).inc()
            self._tel_buffer(name, st.buffered[i])
        if self._fast_routes:
            route = self._routes[i]
            if route is not None:
                d = route[index % len(route)]
                if type(d) is int:
                    if d == i:
                        st.compute_queue[i] += 1
                        self._try_compute_a(i)
                    else:
                        st.send_queue[i].append(d)
                        self._try_send_a(i)
                else:
                    self._route_by_name(i, d)
                self._try_compute_a(i)
                return
        # generic path: custom controller, or no/retired schedule
        dest = self.controller.destination(st.names[i], index)
        self._route_by_name(i, dest)
        self._try_compute_a(i)

    # ------------------------------------------------------------------
    # compiled hot handlers
    # ------------------------------------------------------------------
    def _bind_hot(self) -> None:
        """Compile the five per-event handlers into closures.

        CPython resolves closure cells several times faster than instance
        attributes, and these handlers run once per task movement — the
        whole point of the array kernel.  Everything captured here is
        identity-stable for the simulation's lifetime: the state arrays
        and duration ``values`` lists are only ever updated in place, the
        engine swaps its bucket dict/heap in place on compaction and
        rescale, and the route table and flag/segment cells are list
        objects whose contents (not identity) change on reconfiguration.
        Scalars that genuinely move mid-run (generation, root id, link
        factor, controller) are read through ``sim`` on every call.

        Guard order and side-effect order match the base kernel exactly —
        the cross-kernel equivalence property suite pins this.
        """
        sim = self
        st = self._astate
        engine = self.engine
        buckets = engine._buckets
        tick_heap = engine._tick_heap
        names = st.names
        parent = st.parent
        dead = st.dead
        computing = st.computing
        sending = st.sending
        receiving = st.receiving
        overlap = st.overlap
        compute_queue = st.compute_queue
        arrivals = st.arrivals
        buffered = st.buffered
        send_queue = st.send_queue
        w_vals = st.w_units.values
        cost_vals = st.cost.values
        w_frac = st.w_frac
        routes = self._routes
        flags = self._route_flags
        seg = self._seg_cell
        jobs = self._control_jobs
        views = self._views
        trace = self.trace
        tel = self.telemetry
        frac = self._frac
        rec_events = self._record_events
        rec_buffers = self._record_buffers
        rec_segments = self._record_segments
        count_completion = trace.count_completion
        # the trace's flat tick columns (cleared in place when read, so
        # these bound methods stay valid)
        record_segment = trace._segment_ticks.extend
        record_completion = trace._completion_ticks.extend
        record_arrival = trace._arrival_ticks.extend
        record_delta = trace._buffer_ticks.extend
        record_release = trace._release_ticks.extend
        # lean == the transfer-start tail has no observers (no segments,
        # no telemetry): send_done may then start follow-up transfers in
        # place instead of re-entering try_send (the link factor, which
        # can be installed mid-run, is re-checked per use)
        lean = tel is None and not rec_segments

        def release(arg):
            # hot release: destination id pre-validated by the route table
            di, generation = arg
            if generation != sim._generation:
                sim._released -= 1  # the retired chain never released it
                return
            ri = sim._root_idx
            arrivals[ri] += 1
            buffered[ri] += 1
            if rec_events:
                now = engine._now
                record_release((now, names[di]))
                if rec_buffers:
                    record_delta((now, names[ri], 1))
            if tel is not None:
                root = names[ri]
                tel.counter("sim.tasks_released", node=root).inc()
                sim._tel_buffer(root, buffered[ri])
            if di == ri:
                compute_queue[ri] += 1
                if not computing[ri]:
                    try_compute(ri)
            else:
                send_queue[ri].append(di)
                if not sending[ri]:
                    try_send(ri)

        def try_compute(i):
            if dead[i] or computing[i] or not compute_queue[i]:
                return
            if not overlap[i] and (sending[i] or receiving[i]):
                return  # a no-overlap node cannot compute while communicating
            if not flags[1] and not sim.controller.may_compute(views[i]):
                return
            computing[i] = 1
            compute_queue[i] -= 1
            start = engine._now
            end = start + w_vals[i]
            if rec_segments:
                record_segment((names[i], COMPUTE, start, end, None))
            elif end > seg[0]:
                seg[0] = end
            if tel is not None:
                tel.counter("sim.busy_time", node=names[i],
                            resource="cpu").inc(w_frac[i])
            # inline ArrayEngine.defer: end >= now by construction, so the
            # past-time check is unnecessary
            b = buckets.get(end)
            if b is None:
                buckets[end] = [(compute_done, i, None)]
                heappush(tick_heap, end)
            else:
                b.append((compute_done, i, None))
            engine._size += 1

        def compute_done(i):
            if dead[i]:
                return  # the task died with the node (already counted lost)
            computing[i] = 0
            buffered[i] -= 1
            if rec_events:
                now = engine._now
                record_completion((now, names[i]))
                if rec_buffers:
                    record_delta((now, names[i], -1))
            else:
                count_completion()
            if tel is not None:
                name = names[i]
                tel.counter("sim.tasks_computed", node=name).inc()
                sim._tel_buffer(name, buffered[i])
                tel.gauge("sim.events_processed").set(engine.processed)
                tel.gauge("sim.clock").set(frac(engine._now))
            # wake order matches the base: parent's port, own port, own
            # CPU (each call guarded by the callee's cheap reject so idle
            # wakes cost no call)
            p = parent[i]
            if p >= 0 and not sending[p] and (send_queue[p] or jobs):
                try_send(p)
            if not sending[i] and (send_queue[i] or jobs):
                try_send(i)
            if compute_queue[i] and not computing[i]:
                try_compute(i)

        def try_send(i):
            if dead[i] or sending[i]:
                return
            if not overlap[i] and computing[i]:
                return  # a no-overlap node cannot send while computing
            if jobs:
                # control messages pre-empt task transfers (cold path)
                j = jobs.get(names[i])
                if j:
                    duration, callback = j.popleft()
                    sending[i] = 1
                    name = names[i]
                    start = engine._now
                    end = start + duration
                    if rec_segments:
                        record_segment((name, CTRL, start, end, None))
                    elif end > seg[0]:
                        seg[0] = end
                    if tel is not None:
                        tel.counter("sim.ctrl_jobs", node=name).inc()
                        tel.counter("sim.busy_time", node=name,
                                    resource="send").inc(frac(duration))

                    def ctrl_done(_arg, i=i, callback=callback):
                        sending[i] = 0
                        if callback is not None:
                            callback()
                        try_send(i)
                        try_compute(i)

                    engine.defer(end, ctrl_done)
                    return
            queue = send_queue[i]
            if not queue:
                return
            # an in-order transfer to a no-overlap child waits for its CPU
            ci = queue[0]
            if not overlap[ci] and computing[ci]:
                return  # the child's compute completion will wake us
            queue.popleft()
            sending[i] = 1
            receiving[ci] = 1
            cost = cost_vals[ci]
            if sim._link_factor is not None:
                # the factor callback sees the exact rational time;
                # converting its (possibly incommensurate) result may grow
                # the scale, so only read the tick clock afterwards
                name, child = names[i], names[ci]
                start_frac = frac(engine._now)
                cost = sim._units(
                    sim.tree.edge_cost(name, child)
                    * Fraction(sim._link_factor(name, child, start_frac))
                )
            start = engine._now
            end = start + cost
            if rec_segments:
                record_segment((names[i], _TRANSFER, start, end, names[ci]))
            elif end > seg[0]:
                seg[0] = end
            if tel is not None:
                name, child = names[i], names[ci]
                cost_frac = frac(cost)
                tel.counter("sim.busy_time", node=name,
                            resource="send").inc(cost_frac)
                tel.counter("sim.busy_time", node=child,
                            resource="recv").inc(cost_frac)
            # inline ArrayEngine.defer: end >= now by construction
            b = buckets.get(end)
            if b is None:
                buckets[end] = [(send_done, (i, ci), None)]
                heappush(tick_heap, end)
            else:
                b.append((send_done, (i, ci), None))
            engine._size += 1

        def send_done(arg):
            # the single hottest event: one call per task transfer.  The
            # delivery to the child is inlined (not routed through
            # _deliver_a) and the wake-up calls are guarded by their cheap
            # reject conditions, so the common case runs with no Python
            # call beyond the queue insert.  Observable order matches the
            # base: deliver child (route, child port, child CPU), own
            # port, own CPU.
            i, ci = arg
            if dead[i]:
                # the sender crashed mid-transfer: the task was counted
                # lost at crash time; just release the child's receive port
                receiving[ci] = 0
                return
            sending[i] = 0
            buffered[i] -= 1
            receiving[ci] = 0
            if rec_buffers:
                record_delta((engine._now, names[i], -1))
            if tel is not None:
                tel.counter("sim.tasks_forwarded", node=names[i],
                            child=names[ci]).inc()
                sim._tel_buffer(names[i], buffered[i])
            # --- deliver to the child (inline _deliver_a) ---
            if dead[ci]:
                sim.tasks_lost += 1  # delivered into a crashed node
                if tel is not None:
                    tel.counter("sim.tasks_lost", node=names[ci]).inc()
            else:
                index = arrivals[ci]
                arrivals[ci] = index + 1
                buffered[ci] += 1
                if rec_events:
                    now = engine._now
                    record_arrival((now, names[ci]))
                    if rec_buffers:
                        record_delta((now, names[ci], 1))
                if tel is not None:
                    tel.counter("sim.tasks_received",
                                node=names[ci]).inc()
                    sim._tel_buffer(names[ci], buffered[ci])
                route = routes[ci] if flags[0] else None
                if route is not None:
                    d = route[index % len(route)]
                    if type(d) is int:
                        if d == ci:
                            compute_queue[ci] += 1
                        else:
                            send_queue[ci].append(d)
                            if not sending[ci]:
                                # forwarders relay every task: start the
                                # child's transfer in place when nothing
                                # observes the start (try_send otherwise —
                                # the guards below mirror its rejects)
                                if (lean and not jobs
                                        and sim._link_factor is None):
                                    if overlap[ci] or not computing[ci]:
                                        cj = send_queue[ci][0]
                                        if overlap[cj] or not computing[cj]:
                                            send_queue[ci].popleft()
                                            sending[ci] = 1
                                            receiving[cj] = 1
                                            end = engine._now + cost_vals[cj]
                                            if end > seg[0]:
                                                seg[0] = end
                                            b = buckets.get(end)
                                            if b is None:
                                                buckets[end] = [
                                                    (send_done, (ci, cj),
                                                     None)]
                                                heappush(tick_heap, end)
                                            else:
                                                b.append((send_done,
                                                          (ci, cj), None))
                                            engine._size += 1
                                else:
                                    try_send(ci)
                    else:
                        sim._route_by_name(ci, d)
                else:
                    # generic path: custom controller or retired schedule
                    sim._route_by_name(
                        ci, sim.controller.destination(names[ci], index))
                if compute_queue[ci] and not computing[ci]:
                    try_compute(ci)
            # --- wake the sender's port, then (no-overlap) its CPU ---
            if not sending[i] and (send_queue[i] or jobs):
                if (lean and not jobs and sim._link_factor is None
                        and not dead[i]):
                    # start the sender's next queued transfer in place
                    if overlap[i] or not computing[i]:
                        ck = send_queue[i][0]
                        if overlap[ck] or not computing[ck]:
                            send_queue[i].popleft()
                            sending[i] = 1
                            receiving[ck] = 1
                            end = engine._now + cost_vals[ck]
                            if end > seg[0]:
                                seg[0] = end
                            b = buckets.get(end)
                            if b is None:
                                buckets[end] = [(send_done, (i, ck), None)]
                                heappush(tick_heap, end)
                            else:
                                b.append((send_done, (i, ck), None))
                            engine._size += 1
                else:
                    try_send(i)
            if compute_queue[i] and not computing[i]:
                try_compute(i)

        self._release_a = release
        self._try_compute_a = try_compute
        self._compute_done_a = compute_done
        self._try_send_a = try_send
        self._send_done_a = send_done

    # ------------------------------------------------------------------
    # structural changes: keep arrays and route tables in sync
    # ------------------------------------------------------------------
    def _rescale_node_tables(self, factor: int) -> None:
        st = self._astate
        if st is None:
            # rescale during the base __init__'s initial duration fill:
            # the arrays don't exist yet, the _SimNode path handles it
            super()._rescale_node_tables(factor)
            return
        st.rescale(factor)
        self._cost_units = {k: v * factor
                            for k, v in self._cost_units.items()}

    def _fill_duration_tables(self) -> None:
        super()._fill_duration_tables()
        st = self._astate
        if st is None:
            return  # initial fill during base __init__
        # a failover/platform swap changed topology or costs: refresh the
        # parent array, the cost table and the compiled routes (the base
        # fill already wrote w_units through the node views)
        tree = self.tree
        index = st.index
        parent = st.parent
        for i in range(len(parent)):
            parent[i] = -1
        for name in tree.nodes():
            p = tree.parent(name)
            if p is not None:
                parent[index[name]] = index[p]
        for (_, child), ticks in self._cost_units.items():
            st.cost.set(index[child], ticks)
        self._root_idx = index[tree.root]
        self._rebuild_routes()

    def reconfigure(self, schedules, periods) -> None:
        super().reconfigure(schedules, periods)
        self._rebuild_routes()
