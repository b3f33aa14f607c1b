"""The three workloads: closed loops over the library's public functions.

Each runner drives the library from one process and thread, one
operation at a time, until ``seconds`` have passed (but always at least
over the prefix its counts are taken on), and checks every output against
an exact oracle outside the timed operations.  A runner fills a
:class:`Tally`; ``run.py`` turns it into metrics.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import signal
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Dict, List

from repro.analysis.throughput import steady_state_rate
from repro.core.allocation import from_bw_first
from repro.core.bwfirst import bw_first
from repro.core.incremental import IncrementalSolver
from repro.federation.service import FederationService, matches_reference
from repro.platform.serialization import tree_from_dict
from repro.protocol.runner import run_protocol
from repro.runtime.codec import parse_rational
from repro.runtime.runtime import negotiate
from repro.schedule.eventdriven import build_schedules
from repro.schedule.periods import global_period, tree_periods
from repro.schedule.verify import verify_schedules
from repro.sim.simulator import Simulation

#: An operation still running after this many seconds counts as hung.
OP_BUDGET_S = 90

#: End-to-end timings are scaled to a host on which :func:`calibration_ms`
#: takes this long.  On a shared machine the host's speed for this code
#: can drift by 2x within minutes; each operation is scaled by the
#: calibrations taken just before and just after it.
CAL_REF_MS = 10.0


def _calibration_task_ms() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        acc = Fraction(0)
        table = {}
        for i in range(1, 3000):
            f = Fraction(i, i % 97 + 1)
            acc += f
            table[f"n{i}"] = (f, [i, i + 1], {"w": str(f)})
        return (time.perf_counter_ns() - start) / 1e6
    finally:
        if enabled:
            gc.enable()


def calibration_ms() -> float:
    """Milliseconds of a fixed stdlib-only task: the host's current speed.

    The task allocates and does rational arithmetic like the library, so
    its time tracks the host's speed for this kind of work; it runs with
    the cyclic collector off, so the library's heap cannot change it.  It
    is timed once on each CPU this process may use and averaged, because
    the work (the federation's shard processes, or this process after a
    migration) may run on any of them.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_calibration_task_ms())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


class Mismatch(Exception):
    """An output differs from its oracle."""


class BudgetExceeded(Exception):
    """An operation ran past :data:`OP_BUDGET_S`."""


@contextmanager
def budget(seconds: float = OP_BUDGET_S):
    def expire(signum, frame):
        raise BudgetExceeded(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


class Tally:
    """What one run measured."""

    def __init__(self) -> None:
        #: timing samples (ms) by name; ``ready`` holds the operations that
        #: end with a usable plan, ``ready_scaled`` the same scaled to the
        #: reference host
        self.samples: Dict[str, List[float]] = {}
        #: raw counts over the run's counting prefix
        self.counts: Dict[str, int] = {}
        self.work = 0  # simulated tasks (plan) or applied mutations
        self.work_s = 0.0  # wall time spent on that work
        self.work_scaled_s = 0.0  # the same, scaled to the reference host
        self.attempted = 0
        self.ok = 0
        self.errors: List[str] = []
        #: peak resident memory when the counting prefix ends, so that it
        #: reflects a fixed amount of work
        self.peak_rss_kb = 0

    def sample(self, name: str, ms: float) -> None:
        self.samples.setdefault(name, []).append(ms)

    def host_scale(self, before: float) -> float:
        """The factor from the running host to the reference host for an
        operation that just ended, given the calibration taken before it."""
        after = calibration_ms()
        self.sample("calibration", before)
        self.sample("calibration", after)
        return CAL_REF_MS * 2 / (before + after)

    def ready(self, ms: float, scale: float) -> None:
        """One operation that ended with a usable plan."""
        self.sample("ready", ms)
        self.sample("ready_scaled", ms * scale)

    def add_work(self, amount: int, ms: float, scale: float) -> None:
        self.work += amount
        self.work_s += ms / 1e3
        self.work_scaled_s += ms * scale / 1e3

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def error(self, message: str) -> None:
        self.errors.append(message)

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


# ----------------------------------------------------------------------
# plan: one platform from JSON text to schedules, simulation, negotiation
# ----------------------------------------------------------------------
def _parse(text: str):
    return tree_from_dict(json.loads(text))


def _plan_path(spans, text: str):
    tree = spans.call("platform.parse", _parse, text)
    result = spans.call("core.bw_first", bw_first, tree)
    alloc = spans.call("core.allocation", from_bw_first, result)
    periods = spans.call("schedule.periods", tree_periods, alloc)
    schedules = spans.call("schedule.build", build_schedules, alloc,
                           periods=periods)
    return tree, result, alloc, periods, schedules


def _plan_platform(text, simulate, size, spans, tally, counting):
    tally.attempted += 4 if simulate else 3
    before = calibration_ms()
    gc.collect()
    with budget(), spans.op("op.plan") as op:
        tree, result, alloc, periods, schedules = _plan_path(spans, text)
    tally.ready(op.ms, tally.host_scale(before))
    alloc.check()
    verify_schedules(tree, schedules, periods)
    tally.ok += 1
    if counting:
        tally.count("visited", len(result.visited))
        tally.count("nodes", len(tree))
        tally.count("marks", sum(s.bunch for s in schedules.values()))

    if simulate:
        period = global_period(periods)
        before = calibration_ms()
        gc.collect()
        with budget(), spans.op("op.sim") as op:
            sim = spans.call("sim.init", Simulation, tree, schedules, periods,
                             horizon=Fraction(period) * size.sim_periods)
            outcome = spans.call("sim.run", sim.run)
        tally.add_work(outcome.completed, op.ms, tally.host_scale(before))
        settled = steady_state_rate(outcome.trace, period,
                                    stop_time=outcome.stop_time,
                                    settle_windows=1)
        expect(settled == result.throughput,
               f"settled rate {settled} != optimum {result.throughput}")
        tally.ok += 1
        if counting:
            tally.count("sim.tasks", outcome.completed)
            tally.count("sim.released", outcome.released)
        del sim, outcome

    gc.collect()
    with budget(), spans.op("op.protocol") as op:
        proto = spans.call("protocol.run", run_protocol, tree)
    tally.sample("protocol", op.ms)
    expect(proto.throughput == result.throughput
           and proto.visited == result.visited,
           "run_protocol differs from bw_first")
    tally.ok += 1
    if counting:
        tally.count("protocol.messages", proto.messages)
        tally.count("protocol.visited", len(proto.visited))
    del proto

    gc.collect()
    with budget(), spans.op("op.negotiate") as op:
        neg = spans.call("runtime.negotiate", negotiate, tree,
                         transport="inproc")
    tally.sample("negotiate", op.ms)
    expect(neg.throughput == result.throughput
           and neg.visited == result.visited,
           "negotiate(inproc) differs from bw_first")
    tally.ok += 1
    if counting:
        tally.count("runtime.messages", neg.messages)


def run_plan(inputs, size, seconds, spans, tally, trace) -> None:
    """Pass over the platform pool, whole passes, until *seconds* are up;
    every ``sim_every``-th platform of a pass (rotating) is simulated for
    ``sim_periods`` global periods.  Counts cover the first pass."""
    pool = inputs["pool"]
    spans.recording = trace
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        start = time.perf_counter()
        for k, text in enumerate(pool):
            simulate = (k + passes) % size.sim_every == 0
            try:
                _plan_platform(text, simulate, size, spans, tally,
                               passes == 0)
            except Exception as exc:  # the run goes on; the op counts failed
                tally.error(f"platform {k}: {type(exc).__name__}: {exc}")
        passes += 1
        if passes == 1:
            tally.peak_rss_kb = _peak_rss_kb()
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
    spans.recording = False


# ----------------------------------------------------------------------
# churn and federation: rounds of leaf mutations on templated tenants
# ----------------------------------------------------------------------
def apply_to_solver(solver: IncrementalSolver, op: list) -> None:
    kind = op[0]
    if kind == "set_w":
        solver.set_w(op[1], parse_rational(op[2]))
    elif kind == "set_c":
        solver.set_c(op[1], parse_rational(op[2]))
    elif kind == "prune":
        solver.prune(op[1])
    else:
        solver.graft(op[1], parse_rational(op[2]), tree_from_dict(op[3]))


def apply_to_tree(tree, op: list) -> None:
    kind = op[0]
    if kind == "set_w":
        tree.set_w(op[1], parse_rational(op[2]))
    elif kind == "set_c":
        tree.set_c(op[1], parse_rational(op[2]))
    elif kind == "prune":
        tree.remove_subtree(op[1])
    else:
        tree.add_subtree(op[1], parse_rational(op[2]), tree_from_dict(op[3]))


def _check_tenant(latest, replay) -> None:
    """``solve()`` equals ``bw_first`` on the replayed tree, and the
    spliced schedules equal a full rebuild."""
    result, periods, schedules = latest
    ref = bw_first(replay)
    expect(result.tree == replay and result.throughput == ref.throughput
           and result.t_max == ref.t_max and result.outcomes == ref.outcomes
           and result.transactions == ref.transactions,
           "solve() differs from bw_first on the replayed tree")
    alloc = from_bw_first(ref)
    ref_periods = tree_periods(alloc)
    expect(periods == ref_periods
           and schedules == build_schedules(alloc, periods=ref_periods),
           "spliced schedules differ from a full rebuild")


STRUCTURAL = ("prune", "graft")


def _count_mix(tally, ops) -> None:
    """Count the round's mutations by kind."""
    for batch in ops.values():
        for mutation in batch:
            tally.count(f"mix.{mutation[0]}", 1)


def _sample_by_kind(tally, recorded, names, ops) -> None:
    """Mutate time per mutation kind, and solve time per batch class
    (``structural`` if the tenant's batch held a prune or graft, else
    ``weight``), from the layer spans of one traced churn round."""
    mutates = (s for s in recorded if s[0] == "core.incremental.mutate")
    solves = (s for s in recorded if s[0] == "core.incremental.solve")
    for t in names:
        for mutation in ops[t]:
            _, start, end, _ = next(mutates)
            tally.sample(f"mutate.{mutation[0]}", (end - start) / 1e6)
        _, start, end, _ = next(solves)
        structural = any(m[0] in STRUCTURAL for m in ops[t])
        tally.sample("solve.structural" if structural else "solve.weight",
                     (end - start) / 1e6)


def _rounds(size, seconds):
    """Round indices: at least the counting prefix, then until time is up."""
    deadline = time.perf_counter() + seconds
    r = 0
    while r < size.max_rounds and (r < size.count_rounds
                                   or time.perf_counter() < deadline):
        yield r
        r += 1


def run_churn(inputs, size, seconds, spans, tally, trace) -> None:
    """One ``IncrementalSolver`` per tenant; a round applies ``batch``
    mutations per tenant, then ``solve()`` and ``schedule_builder().build``
    for every tenant.  A rotating tenant is checked after each round,
    every tenant after the last."""
    names = sorted(inputs["tenants"])
    streams, batch = inputs["streams"], inputs["batch"]
    replay = {t: tree_from_dict(inputs["tenants"][t]) for t in names}
    solvers = {}
    for t in names:
        solver = IncrementalSolver(replay[t])
        solver.schedule_builder().build(from_bw_first(solver.solve()))
        solvers[t] = solver
    latest = {}
    spans.recording = trace
    for r in _rounds(size, seconds):
        ops = {t: streams[t][r * batch:(r + 1) * batch] for t in names}
        tally.attempted += len(names)
        before = calibration_ms()
        try:
            with budget(), spans.op("op.replan") as op:
                for t in names:
                    solver = solvers[t]
                    for mutation in ops[t]:
                        spans.call("core.incremental.mutate", apply_to_solver,
                                   solver, mutation)
                    result = spans.call("core.incremental.solve", solver.solve)
                    alloc = spans.call("core.allocation", from_bw_first, result)
                    latest[t] = (result,) + spans.call(
                        "schedule.incremental.build",
                        solver.schedule_builder().build, alloc)
        except Exception as exc:  # solver state is now unknown: stop
            tally.error(f"round {r}: {type(exc).__name__}: {exc}")
            break
        scale = tally.host_scale(before)
        tally.ready(op.ms, scale)
        tally.add_work(len(names) * batch, op.ms, scale)
        tally.ok += len(names)
        if trace:
            _sample_by_kind(tally, spans.spans[op.index + 1:], names, ops)
        if r < size.count_rounds:
            _count_mix(tally, ops)
            for t in names:
                builder = solvers[t].schedule_builder()
                tally.count("incr.evals", solvers[t].last_evals)
                tally.count("sched.recomputed", builder.last_recomputed)
                tally.count("sched.spliced", builder.last_spliced)
            if r == size.count_rounds - 1:
                tally.peak_rss_kb = _peak_rss_kb()
                for t in names:
                    info = solvers[t].cache_info()
                    tally.count("incr.lookups", info["lookups"])
                    tally.count("incr.hits", sum(
                        info[k] for k in ("hits_absorbed", "hits_saturated",
                                          "hits_exact", "hits_shared")))
        for t in names:
            for mutation in ops[t]:
                apply_to_tree(replay[t], mutation)
        checked = names[r % len(names)]
        try:
            _check_tenant(latest[checked], replay[checked])
        except Mismatch as exc:
            tally.ok -= 1
            tally.error(f"round {r}, tenant {checked}: {exc}")
    spans.recording = False
    for t in names:
        try:
            _check_tenant(latest[t], replay[t])
        except (Mismatch, KeyError) as exc:
            tally.ok -= 1
            tally.error(f"final, tenant {t}: {exc!r}")


def run_federation(inputs, size, seconds, spans, tally, trace) -> None:
    """The same tenants and streams through ``FederationService()`` with
    its defaults: a round calls ``mutate()`` per tenant, then one
    ``flush()``.  A rotating tenant is checked with ``matches_reference``
    after each round, every tenant after the last."""
    names = sorted(inputs["tenants"])
    streams, batch = inputs["streams"], inputs["batch"]
    replay = {t: tree_from_dict(inputs["tenants"][t]) for t in names}
    service = FederationService()
    try:
        spans.recording = trace
        for t in names:
            spans.call("federation.onboard", service.onboard, t,
                       tree_from_dict(inputs["tenants"][t]))
        for r in _rounds(size, seconds):
            ops = {t: streams[t][r * batch:(r + 1) * batch] for t in names}
            tally.attempted += len(names)
            before = calibration_ms()
            try:
                with budget(), spans.op("op.replan") as op:
                    for t in names:
                        spans.call("federation.mutate", service.mutate, t,
                                   *ops[t])
                    results = spans.call("federation.flush", service.flush)
            except Exception as exc:  # service state is now unknown: stop
                tally.error(f"round {r}: {type(exc).__name__}: {exc}")
                break
            scale = tally.host_scale(before)
            tally.ready(op.ms, scale)
            tally.add_work(len(names) * batch, op.ms, scale)
            tally.ok += len(names)
            if r < size.count_rounds:
                _count_mix(tally, ops)
                tally.count("federation.resolves", len(results))
            if r == size.count_rounds - 1:
                tally.peak_rss_kb = _peak_rss_kb()
                tally.count("federation.retries",
                            service.stats_totals["retries"])
                memo = service.stats()["memo"] or {}
                tally.count("memo.hits", memo.get("hits", 0))
                tally.count("memo.fetches", memo.get("fetches", 0))
                tally.count("memo.cross_tenant_hits",
                            memo.get("cross_tenant_hits", 0))
            for t in names:
                for mutation in ops[t]:
                    apply_to_tree(replay[t], mutation)
            answered = {item["tenant"]: item for item in results}
            checked = names[r % len(names)]
            ref = bw_first(replay[checked])
            if (sorted(answered) != names
                    or answered[checked]["throughput"] != ref.throughput
                    or not matches_reference(service.result(checked), ref)):
                tally.ok -= 1
                tally.error(f"round {r}, tenant {checked}: "
                            "flush() differs from bw_first")
        for t in names:
            if not matches_reference(service.result(t), bw_first(replay[t])):
                tally.ok -= 1
                tally.error(f"final, tenant {t}: differs from bw_first")
    finally:
        spans.recording = False
        service.stop()


RUNNERS = {"plan": run_plan, "churn": run_churn, "federation": run_federation}


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def _descendants(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids = [int(k) for k in fh.read().split()]
        except OSError:
            continue
        for kid in kids:
            found.append(kid)
            found.extend(_descendants(kid))
    return found


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _peak_rss_kb() -> int:
    """Peak resident set of this process plus that of every live
    descendant (the federation's shard and memo processes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return own + sum(_hwm_kb(pid) for pid in _descendants(os.getpid()))
