"""Self-healing supervision: the full churn lifecycle, epoch by epoch.

:func:`resilient_run` stages fault recovery inside one discrete-event
simulation of the paper's platform.  Where earlier revisions only pruned
(crash → detect → cut → re-negotiate → switch), the supervisor now drives
every leg of the lifecycle as a sequence of **epochs** — one epoch per
platform-changing event, each ending in a re-negotiation and an in-place
schedule switch:

* **prune** — at the plan's crash times nodes fail fail-stop; the
  :class:`~repro.faults.detect.HeartbeatMonitor` declares each death
  ``interval·⌈crash/interval⌉ + timeout`` into the run; crashes declared
  at the same instant form one wave and are pruned together;
* **failover** — the master itself dies (:class:`~repro.faults.plan.RootFailover`);
  once declared, the survivors elect the highest-priority live child
  (first in bandwidth-centric order) as the new root.  With the
  incremental solver, election *replays* the old negotiation state instead
  of restarting it: every sibling subtree's fingerprint survives the
  re-rooting, so only the new root's own decision is recomputed;
* **quarantine** — a hostile link (:class:`~repro.faults.plan.Corruption`)
  garbles control payloads; the integrity check discards each corrupt
  frame before any state machine sees it, and after ``quarantine_after``
  consecutive corrupt frames the supervisor declares the child hostile and
  prunes it exactly as if it had crashed;
* **rejoin** — a repaired subtree returns (:class:`~repro.faults.plan.NodeRejoin`);
  the supervisor grafts it back where it left, re-solves incrementally
  along the root-to-graft path (reviving the pre-crash fingerprints from
  cache), splices the schedules and switches **on a period boundary** of
  the running schedule — landing exactly on the grown tree's ``bw_first``
  optimum.

Every epoch's re-negotiation crosses the plan's lossy/hostile control
plane (or the real asyncio runtime, with *runtime*), its control messages
occupy the very send ports that carry tasks, and the achieved rate after
the final switch settles to **exactly** the BW-First optimum of whatever
platform survived — Proposition 2, asserted by the protocol runner and
measured again by the report.

The run is deterministic end to end: the same plan (same seed) produces
the identical trace, detection times, epochs, message counts and recovery
timeline.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from ..analysis.throughput import measured_rate
from ..core.allocation import from_bw_first
from ..core.bwfirst import bw_first
from ..core.incremental import resolve_solver
from ..core.rates import ZERO, as_fraction
from ..exceptions import FaultError
from ..platform.tree import Tree
from ..protocol.retry import RetryPolicy
from ..protocol.runner import run_protocol
from ..schedule.eventdriven import build_schedules
from ..schedule.periods import global_period, tree_periods
from ..sim.simulator import Simulation
from ..telemetry.core import Registry
from .detect import HeartbeatMonitor, detection_time
from .inject import FaultyNetwork, apply_to_simulation
from .plan import FaultPlan

#: Epoch processing order at equal trigger times: deaths are handled before
#: the election they may starve, hostile children are cut before a repaired
#: node is welcomed back.
_RANK = {"prune": 0, "failover": 1, "quarantine": 2, "rejoin": 3}


@dataclass(frozen=True)
class EpochReport:
    """One platform-changing event and the renegotiation it triggered."""

    kind: str  # "prune" | "failover" | "quarantine" | "rejoin"
    nodes: Tuple[Hashable, ...]  # pruned / quarantined / grafted / elected
    t_trigger: Fraction  # when the supervisor learned of the event
    t_start: Fraction  # when its renegotiation began
    t_switched: Fraction  # when the new schedule took over
    optimum: Fraction  # BW-First throughput of the platform after the epoch
    messages: int  # renegotiation control messages
    bytes: int  # renegotiation control bytes (real octets over TCP)


@dataclass(frozen=True)
class RecoveryReport:
    """Everything one self-healing run produced.

    Rates are exact rationals measured on the trace; ``rate_after`` equals
    ``new_optimum`` once the final switched schedule reaches steady state.

    The run's tallies (tasks lost, heartbeat rounds, re-negotiation
    messages/bytes, retransmissions, control-plane faults) are telemetry
    counters in ``telemetry``; the historical attributes read from it.
    """

    old_optimum: Fraction  # BW-First throughput of the full tree
    new_optimum: Fraction  # BW-First throughput of the final platform
    rate_before: Optional[Fraction]  # achieved rate before the first crash
    rate_during: Fraction  # achieved rate from first crash to final switch
    rate_after: Fraction  # achieved rate of the settled final schedule
    t_first_crash: Fraction
    t_detect: Fraction  # when the last death was declared
    t_switched: Fraction  # when the final schedule took over
    detected_at: Mapping[Hashable, Fraction]  # declaration time per death
    survivors: Tree  # the final platform
    timeline: Tuple[Tuple[Fraction, Fraction], ...]  # (window start, rate)
    result: object = None  # the full SimulationResult (trace inspection)
    telemetry: Registry = field(default_factory=Registry, repr=False)
    epochs: Tuple[EpochReport, ...] = ()
    quarantined: Tuple[Hashable, ...] = ()  # children cut for hostility
    rejoined: Tuple[Hashable, ...] = ()  # subtrees grafted back
    rejoins_skipped: Tuple[Hashable, ...] = ()  # rejoins with no graft point
    new_root: Optional[Hashable] = None  # elected master, if a failover ran

    @property
    def tasks_lost(self) -> int:
        """Tasks destroyed by the crashes (incl. in flight)."""
        return self.telemetry.value("recovery.tasks_lost")

    @property
    def heartbeats(self) -> int:
        """Monitoring rounds the detector ran."""
        return self.telemetry.value("recovery.heartbeats")

    @property
    def renegotiation_messages(self) -> int:
        return self.telemetry.value("recovery.renegotiation_messages")

    @property
    def renegotiation_bytes(self) -> int:
        return self.telemetry.value("recovery.renegotiation_bytes")

    @property
    def retransmissions(self) -> int:
        """Proposals retransmitted across every negotiation."""
        return self.telemetry.value("recovery.retransmissions")

    @property
    def dropped(self) -> int:
        """Control messages the fault plan destroyed."""
        return self.telemetry.value("recovery.dropped")

    @property
    def duplicated(self) -> int:
        """Control messages the fault plan duplicated."""
        return self.telemetry.value("recovery.duplicated")

    @property
    def corrupted(self) -> int:
        """Control messages garbled on the wire (detected and discarded)."""
        return self.telemetry.value("recovery.corrupted")

    @property
    def negotiation_wallclock(self) -> Fraction:
        """Time between declaring the last death and the final switch."""
        return self.t_switched - self.t_detect

    @property
    def recovery(self) -> Fraction:
        """Recovered rate as a fraction of the final platform's optimum."""
        if self.new_optimum == 0:
            return Fraction(1)
        return self.rate_after / self.new_optimum


def resilient_run(
    tree: Tree,
    plan: FaultPlan,
    heartbeat_interval=Fraction(1),
    detection_timeout=Fraction(1, 2),
    retry: Optional[RetryPolicy] = None,
    latency_factor=Fraction(1, 100),
    settle_periods: int = 2,
    after_periods: int = 6,
    window=None,
    max_events: int = 5_000_000,
    telemetry: Optional[Registry] = None,
    runtime: Optional[str] = None,
    solver=None,
    quarantine_after: int = 3,
    kernel: str = "array",
) -> RecoveryReport:
    """Run *tree* under *plan* with automatic detection and re-negotiation.

    * *heartbeat_interval* / *detection_timeout* parameterize the
      :class:`~repro.faults.detect.HeartbeatMonitor`;
    * *retry* is the at-least-once policy for every negotiation (default:
      :class:`~repro.protocol.retry.RetryPolicy()`);
    * the run continues for *settle_periods* + *after_periods* global
      periods of the **final** schedule after the last switch;
      ``rate_after`` is measured over the last *after_periods* of them
      (the settle periods absorb the drain of stale in-flight tasks);
    * *window* sets the timeline resolution (default: the old global
      period);
    * *max_events* bounds the supervised simulation.  Exact measurement
      costs whole global periods, and global periods are LCMs — on
      adversarial rational rates they (and hence the event count) can
      explode.  Raise the bound for such platforms, or lower
      *after_periods* / *settle_periods* to shorten the horizon;
    * *quarantine_after* — consecutive corrupt frames on a link before its
      child is declared hostile and pruned;
    * *kernel* selects the supervised simulation's time kernel
      (``"array"`` default, the struct-of-arrays kernel; ``"int"`` or
      ``"fraction"`` — all three are bit-identical, see
      :mod:`repro.sim.arraystate`).

    The plan must contain something to recover from: a crash, a root
    failover, or a hostile (corrupting) link.

    *telemetry* threads one :class:`~repro.telemetry.core.Registry` through
    the whole story: every negotiation records its transaction spans into
    it (each epoch's nested under its ``renegotiate`` phase and shifted to
    its virtual start time), the supervised simulation its per-node
    counters, and the recovery itself a span tree — one ``recovery`` root
    whose children narrate each epoch (``detect``/``prune``,
    ``detect``/``elect``, ``quarantine``/``prune`` or ``rejoin``/``graft``,
    then ``renegotiate`` and ``switch``).  With telemetry enabled the run
    additionally mints one distributed-trace id
    (:func:`~repro.telemetry.live.mint_trace_id`) threaded through every
    negotiation of the story, and a deterministic per-epoch id
    (``<trace>.e<n>``) tagged onto each epoch's narration spans, so the
    live dashboard and ``repro trace --stitch`` can group the whole
    recovery under one causally-ordered trace.

    *runtime* (``"inproc"`` or ``"tcp"``) routes every **re-negotiation**
    through the real asyncio runtime of :mod:`repro.runtime` instead of
    the virtual-time simulation: the survivors negotiate as genuinely
    concurrent actors over actual queues or loopback sockets, and the
    recovered schedule is built from that live result.  The supervised
    simulation still needs a *virtual* duration for each negotiation
    window, so the switch time is derived analytically
    (:func:`~repro.runtime.runtime.sequential_completion_time` under this
    run's latency model).  Over TCP the epoch's ``renegotiation_bytes``
    are the transport's real ``octets_sent``, so the report's byte
    accounting matches what actually crossed the sockets.  The initial
    negotiation keeps crossing the plan's lossy simulated control plane
    either way.  Transaction spans of a runtime re-negotiation are not
    recorded into *telemetry* (their wall-clock timestamps would not lie
    on the virtual timeline); its tallies still are.

    *solver* picks the centralised reference solver (see
    :func:`~repro.core.incremental.resolve_solver`): the default
    ``"incremental"`` solves the full tree once, then mutates in place —
    pruning crashed subtrees, re-rooting on failover, grafting rejoined
    subtrees back — and re-solves only the dirty path from cache, so a
    rejoin *revives* the subtree's pre-crash fingerprints instead of
    recomputing them.  ``"full"`` restores from-scratch solves; an
    :class:`~repro.core.incremental.IncrementalSolver` instance (seeded
    with *tree*) carries its cache across calls.  Either way the rates are
    exactly equal — the solvers are interchangeable by construction.
    """
    plan.validate(tree)
    if not plan.crashes and plan.failover is None and not plan.hostile:
        raise FaultError("the plan crashes nothing — nothing to recover from")
    if quarantine_after < 1:
        raise FaultError("quarantine_after must be >= 1")
    policy = retry if retry is not None else RetryPolicy()
    interval = as_fraction(heartbeat_interval)
    timeout = as_fraction(detection_timeout)
    latency_factor = as_fraction(latency_factor)

    # a rejoin must not beat the declaration of its own death: the monitor
    # would revive the node before ever declaring it, and the supervisor
    # would graft a subtree it never knew was gone
    for rejoin in plan.rejoins:
        declared = detection_time(plan.crash_time(rejoin.node),
                                  interval, timeout)
        if rejoin.time < declared:
            raise FaultError(
                f"{rejoin.node!r} rejoins at {rejoin.time}, before its death "
                f"is declared at {declared}"
            )

    spans_on = telemetry is not None and telemetry.enabled
    run_trace: Optional[str] = None
    if spans_on:
        from ..telemetry.live import mint_trace_id

        run_trace = mint_trace_id()

    # ------------------------------------------------------------------
    # initial negotiation (latency-modelled, lossy/hostile control plane)
    # ------------------------------------------------------------------
    inc = resolve_solver(solver, tree, telemetry=telemetry)
    old_result = bw_first(tree) if inc is None else inc.solve()

    initial_net = FaultyNetwork(
        tree, plan, latency_factor=latency_factor,
        quarantine_after=quarantine_after,
    )
    initial = run_protocol(
        tree,
        network=initial_net,
        retry=policy,
        telemetry=telemetry,
        reference=old_result,
        trace_id=run_trace,
    )

    old_allocation = from_bw_first(old_result)
    if inc is None:
        old_periods = tree_periods(old_allocation)
        old_schedules = build_schedules(old_allocation, periods=old_periods)
    else:
        # fragment-caching reconstruction: each epoch's rebuild below then
        # recomputes only the paths the mutation dirtied
        old_periods, old_schedules = inc.schedule_builder().build(old_allocation)
    old_t = global_period(old_periods, telemetry=telemetry, tree=tree)

    # ------------------------------------------------------------------
    # the event queue: every platform-changing trigger, in supervisor order
    # ------------------------------------------------------------------
    events: List[tuple] = []
    serial = 0

    def push(trigger: Fraction, kind: str, payload) -> None:
        nonlocal serial
        heapq.heappush(events, (trigger, _RANK[kind], serial, kind, payload))
        serial += 1

    planned_detection: Dict[Hashable, Fraction] = {
        crash.node: detection_time(crash.time, interval, timeout)
        for crash in plan.crashes
    }
    waves: Dict[Fraction, List] = {}
    for crash in plan.crashes:
        waves.setdefault(planned_detection[crash.node], []).append(crash)
    for declared, wave in waves.items():
        push(declared, "prune", wave)
    if plan.failover is not None:
        declared = detection_time(plan.failover.time, interval, timeout)
        planned_detection[tree.root] = declared
        push(declared, "failover", plan.failover.time)
    for rejoin in plan.rejoins:
        push(rejoin.time, "rejoin", rejoin.node)
    quarantine_pushed: set = set()
    for child, declared in initial_net.quarantined.items():
        quarantine_pushed.add(child)
        push(declared, "quarantine", child)

    t_first_crash = min(
        [crash.time for crash in plan.crashes]
        + ([plan.failover.time] if plan.failover is not None else []),
        default=ZERO,
    )

    # ------------------------------------------------------------------
    # the epoch engine: mutate → re-solve → renegotiate → plan the switch
    # ------------------------------------------------------------------
    live = tree.copy()  # the supervisor's view of the platform
    original_root = tree.root
    stash: Dict[Hashable, tuple] = {}  # node → (parent, c, subtree snapshot)
    epochs: List[EpochReport] = []
    quarantined_children: List[Hashable] = []
    rejoined: List[Hashable] = []
    rejoins_skipped: List[Hashable] = []
    new_root_name: Optional[Hashable] = None
    failover_done = False

    #: analytic actions to arm on the simulation once it exists
    port_jobs: List[tuple] = []  # (start, [(node, latency), ...])
    switches: List[tuple] = []  # (switch, failover new_root or None,
    #                              schedules, periods)

    prev_switch: Optional[Fraction] = None
    current_t = old_t
    final_result = old_result
    final_allocation = old_allocation
    recovery_span = None
    corrupted_total = initial_net.corrupted
    reneg_messages = reneg_bytes = 0
    retransmissions = initial.retransmissions
    dropped = initial.dropped
    duplicated = initial.duplicated

    def cut(node: Hashable) -> bool:
        """Take *node*'s subtree out of the live platform (or a stash).

        Returns ``True`` when the live platform changed.  A node already
        stashed is left there; a node strictly inside someone's stashed
        subtree is carved out of that stash so a later rejoin brings back
        only what actually works.
        """
        if node in live:
            snapshot = live.subtree(node)
            parent, cost = live.parent(node), live.c(node)
            stash[node] = (parent, cost, snapshot)
            if inc is None:
                live.remove_subtree(node)
            else:
                inc.prune(node)
                live.remove_subtree(node)
            return True
        if node in stash:
            return False  # already out (e.g. quarantined before crashing)
        for holder, (_p, _c, held) in list(stash.items()):
            if node in held and node != holder:
                sub = held.subtree(node)
                stash[node] = (held.parent(node), held.c(node), sub)
                held.remove_subtree(node)
                return False
        return False  # vanished with an unrepaired ancestor

    def alive_at(node: Hashable, when: Fraction) -> bool:
        crashed_at = plan.crash_time(node)
        if crashed_at is None or crashed_at > when:
            return True
        returned = plan.rejoin_time(node)
        return returned is not None and returned <= when

    while events:
        trigger, _rank, _serial, kind, payload = heapq.heappop(events)
        start = trigger if prev_switch is None else max(trigger, prev_switch)

        changed = False
        epoch_nodes: Tuple[Hashable, ...] = ()
        if kind == "prune":
            wave = sorted(payload, key=lambda crash: str(crash.node))
            for crash in wave:
                if crash.node == live.root:
                    raise FaultError(
                        f"the acting master {crash.node!r} crashed after "
                        "failover — no further election is modelled"
                    )
            wave_first = min(crash.time for crash in wave)
            cut_nodes = [c.node for c in wave if cut(c.node)]
            changed = bool(cut_nodes)
            epoch_nodes = tuple(cut_nodes)
        elif kind == "quarantine":
            child = payload
            if child in live and child != live.root:
                cut(child)
                quarantined_children.append(child)
                changed = True
                epoch_nodes = (child,)
        elif kind == "rejoin":
            node = payload
            entry = stash.pop(node, None)
            if entry is None:
                rejoins_skipped.append(node)
            else:
                parent, cost, snapshot = entry
                if parent not in live and failover_done and (
                    parent == original_root
                ):
                    parent = live.root  # the old master is gone for good
                if parent in live:
                    if inc is None:
                        live.add_subtree(parent, cost, snapshot)
                    else:
                        inc.graft(parent, cost, snapshot.copy())
                        live.add_subtree(parent, cost, snapshot)
                    rejoined.append(node)
                    changed = True
                    epoch_nodes = (node,)
                else:
                    rejoins_skipped.append(node)
        elif kind == "failover":
            old_root = live.root
            candidates = [
                child for child in live.children_by_bandwidth(old_root)
                if alive_at(child, trigger)
            ]
            if not candidates:
                raise FaultError(
                    "root failover with no live child to elect — the "
                    "platform is gone"
                )
            new_root_name = candidates[0]
            if inc is None:
                live.failover_root(new_root_name)
            else:
                inc.failover(new_root_name)
                live.failover_root(new_root_name)
            failover_done = True
            changed = True
            epoch_nodes = (new_root_name,)

        if not changed:
            continue

        # --- re-solve the mutated platform -----------------------------
        new_result = inc.solve() if inc is not None else bw_first(live.copy())
        snapshot = live.copy()

        # --- spans: narrate the epoch ----------------------------------
        renegotiate_span = None
        eid = None
        if spans_on:
            from ..telemetry.live import epoch_id as _epoch_id

            eid = _epoch_id(run_trace, len(epochs))
            if recovery_span is None:
                recovery_span = telemetry.begin_span(
                    "recovery", start=min(t_first_crash, trigger),
                    node=original_root, crashes=len(plan.crashes),
                    trace=run_trace,
                )
            if kind == "prune":
                telemetry.record_span(
                    "detect", wave_first, trigger, node=original_root,
                    parent=recovery_span, epoch=eid,
                    crashed=" ".join(str(n) for n in epoch_nodes),
                )
                telemetry.record_span(
                    "prune", start, start, node=original_root,
                    parent=recovery_span, epoch=eid,
                    removed=sum(len(stash[n][2]) for n in epoch_nodes),
                )
            elif kind == "quarantine":
                telemetry.record_span(
                    "quarantine", trigger, trigger, node=original_root,
                    parent=recovery_span, epoch=eid, child=epoch_nodes[0],
                )
                telemetry.record_span(
                    "prune", start, start, node=original_root,
                    parent=recovery_span, epoch=eid,
                    removed=len(stash[epoch_nodes[0]][2]),
                )
            elif kind == "rejoin":
                telemetry.record_span(
                    "rejoin", trigger, trigger, node=original_root,
                    parent=recovery_span, epoch=eid, child=epoch_nodes[0],
                )
                telemetry.record_span(
                    "graft", start, start, node=original_root,
                    parent=recovery_span, epoch=eid, grafted=epoch_nodes[0],
                )
            elif kind == "failover":
                telemetry.record_span(
                    "detect", payload, trigger, node=original_root,
                    parent=recovery_span, epoch=eid, crashed=str(original_root),
                )
                telemetry.record_span(
                    "elect", start, start, node=new_root_name,
                    parent=recovery_span, epoch=eid, elected=new_root_name,
                )
            renegotiate_span = telemetry.begin_span(
                "renegotiate", start=start, node=live.root,
                parent=recovery_span, epoch=eid, kind=kind,
            )

        # --- renegotiate over the surviving platform -------------------
        epoch_net = None
        if runtime is not None:
            # the survivors re-negotiate on the real asyncio runtime; map
            # the result back onto the virtual timeline analytically
            # (loss-free sequential protocol: the sum of message latencies)
            from ..runtime import Runtime, sequential_completion_time

            renegotiation = Runtime(
                snapshot, transport=runtime, retry=policy,
                trace_id=run_trace,
            ).run()
            vtime = sequential_completion_time(
                renegotiation, latency_factor=latency_factor
            )
        else:
            epoch_net = FaultyNetwork(
                snapshot, plan, latency_factor=latency_factor,
                time_offset=start, quarantine_after=quarantine_after,
            )
            renegotiation = run_protocol(
                snapshot,
                network=epoch_net,
                retry=policy,
                telemetry=telemetry,
                span_parent=renegotiate_span,
                reference=new_result,
                trace_id=run_trace,
            )
            vtime = renegotiation.completion_time

        # --- place the switch ------------------------------------------
        ready = start + vtime
        if kind == "rejoin" and prev_switch is not None:
            # splice on the running schedule's period grid: the root's
            # release chain is anchored at the previous switch, so the
            # next boundary at or after readiness is anchor + k·T
            k = max(1, math.ceil((ready - prev_switch) / current_t))
            switch = prev_switch + k * current_t
        else:
            switch = ready

        new_allocation = from_bw_first(new_result)
        if inc is None:
            new_periods = tree_periods(new_allocation)
            new_schedules = build_schedules(new_allocation,
                                            periods=new_periods)
        else:
            new_periods, new_schedules = inc.schedule_builder().build(
                new_allocation
            )
        new_t = global_period(new_periods, telemetry=telemetry, tree=snapshot)

        if spans_on:
            telemetry.end_span(renegotiate_span, end=switch,
                               messages=renegotiation.messages)
            telemetry.record_span("switch", switch, switch,
                                  node=live.root, parent=recovery_span,
                                  epoch=eid,
                                  throughput=new_allocation.throughput)

        # --- analytic actions for the simulation -----------------------
        # every renegotiation transaction costs one control job on the
        # proposing parent's send port and one on the acknowledging child's
        jobs = []
        for node, actor in renegotiation.actors.items():
            for child, _beta, _theta in actor.transactions:
                latency = snapshot.c(child) * latency_factor
                jobs.append((node, latency))
                jobs.append((child, latency))
        port_jobs.append((start, jobs))
        switches.append((
            switch,
            new_root_name if kind == "failover" else None,
            dict(new_schedules),
            dict(new_periods),
        ))

        # --- hostile links discovered during this epoch ----------------
        if epoch_net is not None:
            corrupted_total += epoch_net.corrupted
            for child, declared in epoch_net.quarantined.items():
                if child not in quarantine_pushed:
                    quarantine_pushed.add(child)
                    push(declared, "quarantine", child)

        # --- bookkeeping ------------------------------------------------
        octets = renegotiation.telemetry.value("runtime.tcp.octets")
        epoch_bytes = octets if octets else renegotiation.bytes
        reneg_messages += renegotiation.messages
        reneg_bytes += epoch_bytes
        retransmissions += renegotiation.retransmissions
        dropped += renegotiation.dropped
        duplicated += renegotiation.duplicated
        epochs.append(EpochReport(
            kind=kind,
            nodes=epoch_nodes,
            t_trigger=trigger,
            t_start=start,
            t_switched=switch,
            optimum=new_result.throughput,
            messages=renegotiation.messages,
            bytes=epoch_bytes,
        ))
        prev_switch = switch
        current_t = new_t
        final_result = new_result
        final_allocation = new_allocation

    t_switched = prev_switch if prev_switch is not None else ZERO
    t_detect = (
        max(planned_detection.values()) if planned_detection
        else (epochs[-1].t_trigger if epochs else ZERO)
    )
    horizon = t_switched + current_t * (settle_periods + after_periods)
    if spans_on and recovery_span is not None:
        telemetry.end_span(recovery_span, end=t_switched)

    # ------------------------------------------------------------------
    # the supervised simulation
    # ------------------------------------------------------------------
    sim = Simulation(
        tree.copy(), dict(old_schedules), dict(old_periods), horizon=horizon,
        max_events=max_events, telemetry=telemetry, kernel=kernel,
    )
    apply_to_simulation(sim, plan)  # crashes, rejoins, failover, windows
    monitor = HeartbeatMonitor(
        sim, interval, timeout, until=horizon
    ).start()

    def make_injection(jobs):
        def inject() -> None:
            for node, latency in jobs:
                sim.inject_control(node, latency)
        return inject

    def make_switch(elected, schedules, periods):
        def flip() -> None:
            if elected is not None:
                sim.failover_root(elected)
            sim.reconfigure(schedules, periods)
        return flip

    for start, jobs in port_jobs:
        sim.engine.schedule_at(start, make_injection(jobs))
    for switch, elected, schedules, periods in switches:
        sim.engine.schedule_at(switch, make_switch(elected, schedules,
                                                   periods))

    result = sim.run()

    # the analytically planned detection must match the live detector —
    # a mismatch means the fault model and the monitor disagree (a bug)
    if dict(monitor.detected) != planned_detection:
        raise FaultError(
            f"detector declared {dict(monitor.detected)}, "
            f"planned {planned_detection}"
        )

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def rate(lo: Fraction, hi: Fraction) -> Optional[Fraction]:
        if hi <= lo:
            return None
        return measured_rate(result.trace, lo, hi)

    rate_before = rate(ZERO, t_first_crash)
    rate_after = measured_rate(
        result.trace, horizon - current_t * after_periods, horizon
    )
    rate_during = (
        measured_rate(result.trace, t_first_crash, t_switched)
        if t_switched > t_first_crash else rate_after
    )

    w = as_fraction(window) if window is not None else old_t
    timeline: List[Tuple[Fraction, Fraction]] = []
    start = ZERO
    stop = result.stop_time if result.stop_time is not None else result.end_time
    while start + w <= stop:  # the wind-down tail is not part of the story
        timeline.append((start, measured_rate(result.trace, start, start + w)))
        start += w

    view = Registry()  # per-report backing store for the tally attributes
    tallies = (
        ("recovery.tasks_lost", result.tasks_lost),
        ("recovery.heartbeats", monitor.heartbeats),
        ("recovery.renegotiation_messages", reneg_messages),
        ("recovery.renegotiation_bytes", reneg_bytes),
        ("recovery.retransmissions", retransmissions),
        ("recovery.dropped", dropped),
        ("recovery.duplicated", duplicated),
        ("recovery.corrupted", corrupted_total),
        ("recovery.epochs", len(epochs)),
        ("recovery.rejoins", len(rejoined)),
        ("recovery.rejoins_skipped", len(rejoins_skipped)),
        ("recovery.failovers", 1 if failover_done else 0),
        ("recovery.quarantines", len(quarantined_children)),
    )
    for registry in ((view,) if telemetry is None else (view, telemetry)):
        for name, amount in tallies:
            registry.counter(name).inc(amount)
        registry.gauge("recovery.t_first_crash").set(t_first_crash)
        registry.gauge("recovery.t_detect").set(t_detect)
        registry.gauge("recovery.t_switched").set(t_switched)

    return RecoveryReport(
        old_optimum=old_allocation.throughput,
        new_optimum=final_allocation.throughput,
        rate_before=rate_before,
        rate_during=rate_during,
        rate_after=rate_after,
        t_first_crash=t_first_crash,
        t_detect=t_detect,
        t_switched=t_switched,
        detected_at=dict(monitor.detected),
        survivors=live,
        timeline=tuple(timeline),
        result=result,
        telemetry=view,
        epochs=tuple(epochs),
        quarantined=tuple(quarantined_children),
        rejoined=tuple(rejoined),
        rejoins_skipped=tuple(rejoins_skipped),
        new_root=new_root_name,
    )
