"""Command-line interface: ``repro-sched`` (or ``python -m repro``).

Sub-commands:

* ``throughput TREE.json`` — optimal steady-state throughput (BW-First),
  visited/unvisited nodes, cross-checked against the bottom-up method;
* ``schedule TREE.json`` — the full schedule reconstruction: transactions,
  per-node rates, periods and compact bunch orders (Figure 4);
* ``simulate TREE.json --horizon H`` — run the discrete-event simulation
  and print the standard metrics report (Figure 5 numbers);
* ``gantt TREE.json --horizon H`` — ASCII Gantt chart of the run;
* ``compare TREE.json`` — run every built-in strategy (bandwidth-centric,
  synchronized, demand-driven ×2, greedy) and rank them;
* ``dot TREE.json`` — Graphviz rendering with unvisited nodes greyed out;
* ``metrics TREE.json`` — negotiate (and optionally simulate) with
  telemetry enabled and print the Prometheus text exposition;
* ``trace TREE.json --format chrome|jsonl`` — export the negotiation's
  transaction-span tree as a Chrome trace-event JSON (open it in Perfetto
  or ``chrome://tracing``) or as structured JSONL; ``trace --stitch
  a.jsonl b.jsonl`` instead merges per-actor JSONL streams into one
  causally-ordered Chrome trace (``--trace-id`` filters one negotiation,
  ``--list-traces`` enumerates them);
* ``dash`` — zero-dependency live ops dashboard: serves an SSE stream and
  inline HTML panels (negotiation progress, recovery epochs, simulator
  throughput, solver cache rates, per-edge octets, BenchWatch drift) over
  a seeded chaos/recovery workload;
* ``runtime TREE.json --transport inproc|tcp`` — execute the negotiation
  on the **real** asyncio runtime (concurrent actors over in-process
  queues or loopback TCP sockets) and report the negotiated throughput,
  message tallies and wall-clock; ``--trace-out`` streams the transaction
  spans to JSONL as they close;
* ``bench-incr --nodes N --mutations M`` — churn a random tree with
  single-leaf prunes and compare the incremental solver's node
  evaluations against full ``bw_first`` re-solves (experiment E26);
* ``bench-timeline --nodes N [--json]`` — time the scaled-integer
  simulation kernel against the ``Fraction`` reference and count the
  schedule fragments the incremental builder splices from cache on
  single-leaf prune churn (experiment E27);
* ``federate serve|bench`` — the multi-tenant federation: tenant trees
  sharded over shared-nothing worker processes with re-solve batching;
  ``bench`` runs the E32 federated-vs-isolated churn comparison,
  ``serve`` keeps a federation under synthetic churn (optionally with
  the live dashboard's federation panel);
* ``example`` — the whole pipeline on the built-in reconstruction of the
  paper's Section 8 tree.

``simulate --trace-out PATH`` saves the run's full :class:`Trace` plus its
telemetry as JSONL without writing a script.

Tree files use the JSON schema of :mod:`repro.platform.serialization`;
with ``--dsl`` the TREE argument is instead parsed as the compact text
grammar of :mod:`repro.platform.dsl`, e.g. ``'P0(w=3)[P1(w=2,c=1)]'``.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import List, Optional

from .analysis import render_gantt, simulation_report
from .core import bottom_up_throughput, bw_first, from_bw_first
from .core.rates import format_fraction
from .platform import load_tree
from .platform.examples import paper_figure4_tree
from .schedule import (
    POLICIES,
    build_schedules,
    global_period,
    rate_table,
    schedule_table,
    transaction_table,
    tree_periods,
)
from .platform.serialization import tree_to_dot
from .sim import simulate


def _load_platform(args: argparse.Namespace):
    if getattr(args, "dsl", False):
        from .platform.dsl import parse_tree

        return parse_tree(args.tree)
    return load_tree(args.tree)


def _cmd_throughput(args: argparse.Namespace) -> int:
    tree = _load_platform(args)
    result = bw_first(tree)
    reference = bottom_up_throughput(tree)
    print(f"optimal throughput: {format_fraction(result.throughput)} "
          f"({float(result.throughput):.6f} tasks/time unit)")
    print(f"bottom-up agrees:   {reference.throughput == result.throughput}")
    print(f"visited nodes:      {len(result.visited)}/{len(tree)}")
    unvisited = sorted(result.unvisited, key=str)
    if unvisited:
        print(f"unvisited:          {' '.join(str(n) for n in unvisited)}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    tree = _load_platform(args)
    result = bw_first(tree)
    allocation = from_bw_first(result)
    periods = tree_periods(allocation)
    schedules = build_schedules(allocation, policy=POLICIES[args.policy],
                                periods=periods)
    print("== transactions (Figure 4b) ==")
    print(transaction_table(result))
    print()
    print("== per-node rates (Figure 4c) ==")
    print(rate_table(allocation))
    print()
    print("== local schedules (Figure 4d) ==")
    print(schedule_table(schedules, periods))
    print()
    print(f"global period T = {global_period(periods)}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .telemetry import Registry, write_run_jsonl

    tree = _load_platform(args)
    result = bw_first(tree)
    registry = Registry() if args.trace_out else None
    sim = simulate(
        tree,
        policy=POLICIES[args.policy],
        horizon=Fraction(args.horizon) if args.horizon else None,
        supply=args.supply,
        compute_during_startup=not args.buffered_start,
        telemetry=registry,
    )
    print(simulation_report(sim, result.throughput,
                            title=f"simulation of {args.tree}"))
    if args.trace_out:
        write_run_jsonl(sim.trace, args.trace_out, registry)
        print(f"wrote {args.trace_out}")
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    tree = _load_platform(args)
    sim = simulate(
        tree,
        policy=POLICIES[args.policy],
        horizon=Fraction(args.horizon),
    )
    nodes = args.nodes if args.nodes else [
        n for n in tree.nodes() if n in sim.schedules
    ]
    end = Fraction(args.until) if args.until else Fraction(args.horizon)
    print(render_gantt(sim.trace, nodes, start=0, end=end,
                       width=args.width, label_peers=True))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    tree = _load_platform(args)
    result = bw_first(tree)
    print(tree_to_dot(tree, highlight=result.unvisited))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .analysis.compare import compare_strategies, comparison_table

    tree = _load_platform(args)
    metrics = compare_strategies(
        tree,
        periods_count=args.periods,
        supply=args.supply,
    )
    print(comparison_table(metrics))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis.export import export_trace
    from .analysis.svg import buffer_svg, gantt_svg, save_svg

    tree = _load_platform(args)
    sim = simulate(
        tree,
        policy=POLICIES[args.policy],
        horizon=Fraction(args.horizon) if args.horizon else None,
        supply=args.supply,
    )
    out = Path(args.out)
    written = export_trace(sim.trace, out, prefix=args.prefix)
    nodes = [n for n in tree.nodes() if n in sim.schedules]
    end = sim.trace.end_time
    gantt_path = out / f"{args.prefix}_gantt.svg"
    save_svg(gantt_svg(sim.trace, nodes, start=0, end=end), gantt_path)
    buffers_path = out / f"{args.prefix}_buffers.svg"
    save_svg(buffer_svg(sim.trace, start=0, end=end), buffers_path)
    for path in written + [gantt_path, buffers_path]:
        print(f"wrote {path}")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from .analysis.sensitivity import sensitivity_report

    tree = _load_platform(args)
    print(sensitivity_report(tree, speedup=args.speedup, top=args.top))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .protocol import run_protocol
    from .telemetry import Registry, prometheus_text

    tree = _load_platform(args)
    registry = Registry()
    run_protocol(tree, telemetry=registry)
    if args.horizon or args.supply:
        simulate(
            tree,
            horizon=Fraction(args.horizon) if args.horizon else None,
            supply=args.supply,
            telemetry=registry,
        )
    print(prometheus_text(registry), end="")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as _json

    from .protocol import run_protocol
    from .telemetry import Registry, chrome_trace_json, jsonl_lines

    if args.stitch:
        from .telemetry import merge_jsonl, stitch_chrome_trace, trace_ids

        if args.list_traces:
            merged = merge_jsonl(args.stitch)
            for trace in sorted(trace_ids(merged)):
                print(trace)
            return 0
        doc = stitch_chrome_trace(args.stitch, trace_id=args.trace_id)
        text = _json.dumps(doc, indent=1)
        if args.out:
            from pathlib import Path

            Path(args.out).write_text(text)
            flows = sum(1 for e in doc["traceEvents"] if e.get("cat") == "flow")
            spans = sum(1 for e in doc["traceEvents"] if e["ph"] == "X")
            print(f"wrote {args.out} ({spans} spans, {flows} flow events)")
        else:
            print(text)
        return 0
    if args.tree is None:
        print("error: trace needs a TREE argument (or --stitch FILES)",
              file=sys.stderr)
        return 2
    tree = _load_platform(args)
    registry = Registry()
    run_protocol(tree, telemetry=registry)
    if args.format == "chrome":
        text = chrome_trace_json(registry)
    else:
        text = "\n".join(jsonl_lines(registry)) + "\n"
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(registry.spans)} spans)")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    import time as _time

    from .telemetry.dash import serve_dashboard

    dash = serve_dashboard(
        nodes=args.nodes,
        seed=args.seed,
        host=args.host,
        port=args.port,
        runtime=args.runtime if args.runtime != "none" else None,
        baseline_dir=args.baselines,
        interval=args.interval,
        workload=not args.no_workload,
        kernel=args.kernel,
    )
    print(f"repro dash: serving {dash.url}")
    print(f"  workload: {args.nodes}-node seeded chaos/recovery "
          f"(seed {args.seed}, runtime {args.runtime})")
    print("  endpoints: / (panels)  /events (SSE)  /api/snapshot  "
          "/metrics  /healthz")
    try:
        if args.run_for is not None:
            deadline = _time.monotonic() + args.run_for
            while _time.monotonic() < deadline:
                _time.sleep(0.2)
        else:
            while True:
                _time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        status = dash.workload.get("status")
        dash.stop()
        print(f"repro dash: stopped (workload {status})")
    return 0


def _cmd_runtime(args: argparse.Namespace) -> int:
    from .protocol.retry import RetryPolicy
    from .runtime import negotiate
    from .telemetry import Registry, stream_jsonl

    tree = _load_platform(args)
    registry = Registry()
    retry = RetryPolicy() if args.retry else None
    stream = stream_jsonl(registry, args.trace_out) if args.trace_out else None
    try:
        result = negotiate(
            tree,
            transport=args.transport,
            telemetry=registry,
            retry=retry,
            base_timeout=args.base_timeout,
            deadline=args.deadline,
        )
    finally:
        if stream is not None:
            stream.close()
    print(f"transport:            {args.transport}")
    print(f"negotiated throughput: {format_fraction(result.throughput)} "
          f"({float(result.throughput):.6f} tasks/time unit)")
    print("verified == bw_first:  True")  # negotiate() asserts it
    print(f"visited nodes:         {len(result.visited)}/{len(tree)}")
    print(f"transactions:          {result.transactions}")
    print(f"messages / bytes:      {result.messages} / {result.bytes}")
    if result.retransmissions or result.timeouts or result.dropped:
        print(f"retransmissions:       {result.retransmissions}")
        print(f"timeouts:              {result.timeouts}")
        print(f"dropped:               {result.dropped}")
    octets = registry.value("runtime.tcp.octets")
    if octets:
        print(f"tcp octets on wire:    {octets}")
    print(f"wall-clock:            {float(result.completion_time):.6f} s")
    if args.trace_out:
        print(f"wrote {args.trace_out} ({len(registry.spans)} spans)")
    return 0


@contextmanager
def _profiled(args):
    """cProfile the wrapped block when ``--profile`` was given: print the
    top-N entries by cumulative time, optionally dump raw pstats for
    snakeviz/pstats tooling.  A no-op otherwise, so timed sections keep
    their numbers when profiling is off."""
    if not getattr(args, "profile", False):
        yield
        return
    import cProfile
    import pstats

    profile = cProfile.Profile()
    profile.enable()
    try:
        yield
    finally:
        profile.disable()
        stats = pstats.Stats(profile).sort_stats("cumulative")
        print(f"\n-- cProfile: top {args.profile_top} by cumulative time "
              f"(timings include profiler overhead) --")
        stats.print_stats(args.profile_top)
        if args.profile_out:
            stats.dump_stats(args.profile_out)
            print(f"wrote {args.profile_out}")


def _add_profile_options(p) -> None:
    p.add_argument("--profile", action="store_true",
                   help="cProfile the measured section and print the "
                        "hottest functions")
    p.add_argument("--profile-top", type=int, default=25, metavar="N",
                   help="rows of profile output (default 25)")
    p.add_argument("--profile-out", metavar="PATH",
                   help="dump raw pstats data for later analysis")


def _cmd_bench_incr(args: argparse.Namespace) -> int:
    import json as _json
    import random as _random
    import time as _time

    from .core.incremental import IncrementalSolver
    from .platform.generators import random_tree
    from .util.text import render_table

    tree = random_tree(
        args.nodes, seed=args.seed, max_children=4,
        w_numerator_range=(2000, 6000), c_numerator_range=(1, 2),
    )
    solver = IncrementalSolver(tree)

    t0 = _time.perf_counter()
    full = bw_first(solver.tree)
    wall_full = _time.perf_counter() - t0
    solver.solve()  # warm the cache with the initial negotiation

    rng = _random.Random(args.seed)
    rows = []
    ratios = []
    with _profiled(args):
        for step in range(args.mutations):
            victim = rng.choice(
                [n for n in solver.tree.leaves() if n != solver.tree.root])
            solver.prune(victim)
            t0 = _time.perf_counter()
            result = solver.solve()
            wall = _time.perf_counter() - t0
            full_evals = len(bw_first(solver.tree).outcomes)
            assert result.throughput == bw_first(solver.tree).throughput
            ratio = full_evals / max(solver.last_evals, 1)
            ratios.append(ratio)
            rows.append([
                str(step), str(victim), str(full_evals),
                str(solver.last_evals),
                f"{ratio:.1f}x", f"{wall * 1000:.2f}",
            ])
    mean = sum(ratios) / len(ratios)
    info = solver.cache_info()
    if args.json:
        print(_json.dumps(dict(
            nodes=args.nodes, seed=args.seed, mutations=args.mutations,
            wall_s_full=round(wall_full, 6),
            mean_ratio=round(mean, 2),
            min_ratio=round(min(ratios), 2),
            max_ratio=round(max(ratios), 2),
            cache=info,
        ), indent=2))
        return 0
    print(render_table(
        ["step", "pruned leaf", "full evals", "incr evals", "ratio", "ms"],
        rows))
    print(f"\nfull solve of the {args.nodes}-node tree: "
          f"{len(full.outcomes)} node evals, {wall_full * 1000:.1f} ms")
    print(f"mean eval reduction over {args.mutations} single-leaf prunes: "
          f"{mean:.1f}x (min {min(ratios):.1f}x, max {max(ratios):.1f}x)")
    print(f"cache: {info['entries']} entries, "
          f"{info['saturated_memos']} saturated, "
          f"{info['exact_memos']} exact memos, "
          f"hits {info['hits_saturated']}/{info['hits_absorbed']}"
          f"/{info['hits_exact']} (sat/abs/exact), "
          f"{info['misses']} misses")
    return 0


def _cmd_bench_timeline(args: argparse.Namespace) -> int:
    import gc as _gc
    import json as _json
    import random as _random
    import time as _time

    from .core.incremental import IncrementalSolver
    from .platform.generators import smooth_tree
    from .sim.simulator import Simulation
    from .util.text import render_table

    tree = smooth_tree(args.nodes, args.seed)
    allocation = from_bw_first(bw_first(tree))
    periods = tree_periods(allocation)
    schedules = build_schedules(allocation, periods=periods)
    horizon = Fraction(global_period(periods)) * args.periods

    fast = args.kernel
    wall = {}
    tasks = {}
    with _profiled(args):
        for kernel in (fast, "fraction"):
            best = None
            for _ in range(args.repeats):
                sim = Simulation(tree, dict(schedules), dict(periods),
                                 horizon=horizon, kernel=kernel,
                                 record_segments=False, record_buffers=False)
                _gc.collect()
                _gc.disable()  # keep cycle-GC pauses off the timed run
                try:
                    t0 = _time.process_time()
                    result = sim.run()
                    dt = _time.process_time() - t0
                finally:
                    _gc.enable()
                best = dt if best is None else min(best, dt)
            wall[kernel] = best
            tasks[kernel] = result.trace.completed
    speedup = wall["fraction"] / max(wall[fast], 1e-12)

    solver = IncrementalSolver(smooth_tree(args.nodes, args.seed))
    builder = solver.schedule_builder()
    builder.build(from_bw_first(solver.solve()))
    rng = _random.Random(args.seed)
    full_frags = incr_frags = 0
    for _ in range(args.mutations):
        victim = rng.choice(
            [n for n in solver.tree.leaves() if n != solver.tree.root])
        solver.prune(victim)
        churn_allocation = from_bw_first(solver.solve())
        builder.build(churn_allocation)
        full_frags += len(list(solver.tree.nodes()))
        incr_frags += builder.last_recomputed
    frag_ratio = full_frags / max(incr_frags, 1)

    if args.json:
        print(_json.dumps(dict(
            nodes=args.nodes, seed=args.seed, periods=args.periods,
            repeats=args.repeats, mutations=args.mutations,
            kernel=fast,
            wall_s_fraction=round(wall["fraction"], 6),
            **{f"wall_s_{fast}": round(wall[fast], 6)},
            tasks=tasks[fast],
            simulator_speedup=round(speedup, 3),
            fragments_full=full_frags,
            fragments_recomputed=incr_frags,
            fragment_ratio=round(frag_ratio, 2),
            cache=solver.cache_info(),
        ), indent=2))
        return 0
    print(render_table(
        ["kernel", f"best-of-{args.repeats} run() s", "tasks"],
        [["fraction", f"{wall['fraction']:.4f}", str(tasks["fraction"])],
         [fast, f"{wall[fast]:.4f}", str(tasks[fast])]]))
    print(f"\nsimulator speedup over {args.periods} global period(s): "
          f"{speedup:.2f}x")
    print(f"schedule fragments over {args.mutations} single-leaf prunes: "
          f"{full_frags} full vs {incr_frags} recomputed "
          f"({frag_ratio:.1f}x spliced from cache)")
    return 0


def _cmd_federate(args: argparse.Namespace) -> int:
    import json as _json

    from .federation.bench import run_federation_bench

    if args.mode == "bench":
        record = run_federation_bench(
            tenants=args.tenants, shards=args.shards, nodes=args.nodes,
            templates=args.templates, mutations=args.mutations,
            batch=args.batch, seed=args.seed,
        )
        if args.json:
            print(_json.dumps(record, indent=2))
            return 0 if record["exact"] else 1
        fed = record["federated"]
        iso = record["isolated_full"]
        print(f"federated: {args.tenants} tenants ({record['params']['templates']} "
              f"templates) x {args.mutations} mutations on {args.shards} shards")
        print(f"  onboard: {fed['onboard_wall_s'] * 1000:.0f} ms, "
              f"{fed['onboard_evals']} node evals, "
              f"{fed['template_clones']} template clones")
        print(f"  churn:   {fed['wall_s'] * 1000:.0f} ms for "
              f"{fed['mutations']} mutations in {fed['resolves']} re-solves "
              f"({fed['mutations_per_s']:.0f} mutations/s)")
        print(f"  isolated full bw_first: {iso['wall_s'] * 1000:.0f} ms "
              f"({iso['mutations_per_s']:.0f} mutations/s) → "
              f"federation speedup {record['speedup_vs_full']:.2f}x")
        incr = record["isolated_incremental"]
        print(f"  isolated incremental:   {incr['wall_s'] * 1000:.0f} ms "
              f"({incr['mutations_per_s']:.0f} mutations/s)")
        batched = record["isolated_batched"]
        print(f"  isolated batched:       {batched['wall_s'] * 1000:.0f} ms "
              f"({batched['mutations_per_s']:.0f} mutations/s)")
        print(f"  node evals: {fed['node_evals']} federated "
              f"({fed['onboard_evals']} onboarding), "
              f"{batched['node_evals']} isolated batched churn")
        print(f"  exact vs per-tenant bw_first: {record['exact']}")
        return 0 if record["exact"] else 1

    # serve: a long-lived federation under continuous seeded churn
    import random as _random
    import time as _time

    from .federation import FederationService
    from .federation.bench import WEIGHT_POOL, _leaves
    from .platform.generators import smooth_tree
    from .telemetry import Registry

    dash = None
    if args.dash_port is not None:
        from .telemetry.dash import Dashboard
        dash = Dashboard(port=args.dash_port).start()
        dash.workload["status"] = "federation"
        registry = dash.registry
    else:
        registry = Registry()
    service = FederationService(shards=args.shards, telemetry=registry,
                                batch_window=args.batch_window)
    trees = {}
    for i in range(args.tenants):
        tenant = f"t{i:03d}"
        tree = smooth_tree(args.nodes, seed=args.seed + (i % args.templates))
        service.onboard(tenant, tree)
        trees[tenant] = service.tree(tenant)
    service.serve()
    print(f"federation: {args.tenants} tenants on {args.shards} shards, "
          f"batch window {args.batch_window * 1000:.0f} ms"
          + (f", dash on {dash.url}" if dash else ""))

    rng = _random.Random(args.seed)
    deadline = (_time.monotonic() + args.run_for) if args.run_for else None
    last_report = _time.monotonic()
    try:
        while deadline is None or _time.monotonic() < deadline:
            tenant = f"t{rng.randrange(args.tenants):03d}"
            leaf = rng.choice(_leaves(trees[tenant]))
            service.mutate(tenant,
                           ["set_w", leaf, str(rng.choice(WEIGHT_POOL))])
            _time.sleep(args.churn_interval)
            now = _time.monotonic()
            if now - last_report >= args.report_every:
                last_report = now
                stats = service.stats()
                svc = stats["service"]
                print(f"  resolves={svc['resolves']} "
                      f"mutations={svc['mutations']} "
                      f"flushes={svc['flushes']} "
                      f"respawns={svc['respawns']}")
    except KeyboardInterrupt:
        pass
    finally:
        final = service.stop()
        if dash is not None:
            dash.stop()
        svc = final["service"]
        print(f"served {svc['resolves']} re-solves over {svc['flushes']} "
              f"flushes ({svc['mutations']} mutations, "
              f"{svc['respawns']} respawns)")
    return 0


def _cmd_exec(args: argparse.Namespace) -> int:
    import json as _json

    from .faults.plan import FaultPlan
    from .taskplane import run_cluster, run_plane
    from .util.text import render_table

    tree = _load_platform(args) if args.tree else paper_figure4_tree()
    tasks = args.tasks
    if tasks is None and args.duration is None:
        tasks = 200
    plan = None
    if args.task_drop or args.task_corrupt:
        plan = FaultPlan(seed=args.seed,
                         task_drop=Fraction(args.task_drop or 0),
                         task_corrupt=Fraction(args.task_corrupt or 0))
    kwargs = dict(max_tasks=tasks, duration=args.duration,
                  time_scale=args.time_scale, plan=plan,
                  deadline=args.deadline)
    if args.transport == "cluster":
        report = run_cluster(tree, **kwargs)
    else:
        report = run_plane(tree, args.transport, **kwargs)
    if args.json:
        print(_json.dumps(report.to_json(), indent=2))
    else:
        convergence = report.convergence
        print(f"task plane on {args.transport}: {report.completed}/"
              f"{report.generated} tasks, {report.duplicates} duplicated, "
              f"{report.lost} lost, {report.wall_seconds:.2f}s wall")
        print(f"optimal throughput: "
              f"{format_fraction(report.optimal_throughput)} tasks/unit; "
              f"measured: "
              + ("unmeasurable (too few steady completions)"
                 if convergence is None else
                 f"{report.measured_rate:.4f} "
                 f"({convergence:.1%} of optimal, "
                 f"{report.completions_per_sec:.1f} tasks/s)"))
        if report.resends or report.injected_drops \
                or report.injected_corruptions:
            print(f"faults: {report.injected_drops} dropped, "
                  f"{report.injected_corruptions} corrupted → "
                  f"{report.resends} resends, "
                  f"{report.resend_requests} checksum naks")
        rows = [
            [node, str(peak), str(report.bounds.get(node, 1)),
             "yes" if peak <= report.bounds.get(node, 1) else "NO"]
            for node, peak in sorted(report.peak_occupancy.items())
        ]
        if rows:
            print()
            print(render_table(["node", "peak buffer", "analytic bound",
                                "within"], rows))
    ok = (report.lost == 0 and report.duplicates == 0
          and report.occupancy_ok())
    return 0 if ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json as _json

    from .faults.chaos import chaos_sweep, data_plane_sweep
    from .util.text import render_table

    if args.data_plane:
        counted = {"count": 0}

        def data_progress(outcome) -> None:
            counted["count"] += 1
            if not args.json and counted["count"] % 5 == 0:
                print(f"  {counted['count']}/{args.sequences} cases exact",
                      file=sys.stderr)

        summary = data_plane_sweep(cases=args.sequences, seed=args.seed,
                                   transport=args.transport,
                                   tasks=args.tasks,
                                   progress=data_progress)
        if args.json:
            print(_json.dumps(summary.to_json(), indent=2))
            return 0
        print(f"data-plane chaos: {summary.exact_count}/{summary.cases} "
              f"cases with exact task accounting on {args.transport} "
              f"({summary.faults_injected} payload faults injected)")
        rows = [
            [str(o.seed), str(o.nodes),
             f"{o.completed}/{o.generated}", str(o.duplicates),
             f"{o.injected_drops}+{o.injected_corruptions}",
             str(o.resends), "yes" if o.exact else "NO"]
            for o in summary.outcomes[: args.show]
        ]
        if rows:
            print()
            print(render_table(
                ["seed", "nodes", "completed", "dup", "drop+corrupt",
                 "resends", "exact"], rows))
        return 0

    shown = {"count": 0}

    def progress(outcome) -> None:
        shown["count"] += 1
        if not args.json and shown["count"] % 10 == 0:
            print(f"  {shown['count']}/{args.sequences} sequences exact",
                  file=sys.stderr)

    summary = chaos_sweep(sequences=args.sequences, seed=args.seed,
                          progress=progress)
    if args.json:
        print(_json.dumps(summary.to_json(), indent=2))
        return 0
    kinds = ", ".join(
        f"{kind}×{count}" for kind, count in sorted(summary.epoch_kinds.items())
    ) or "none"
    print(f"chaos sweep: {summary.exact_count}/{summary.sequences} sequences "
          f"converged exactly to the survivors' BW-First optimum")
    print(f"recovery epochs run: {kinds}")
    rows = [
        [str(o.seed), str(o.nodes), " ".join(o.epochs) or "-",
         str(o.rate_after), "yes" if o.exact else "NO"]
        for o in summary.outcomes[: args.show]
    ]
    if rows:
        print()
        print(render_table(["seed", "nodes", "epochs", "settled rate",
                            "exact"], rows))
        if summary.sequences > args.show:
            print(f"... and {summary.sequences - args.show} more "
                  f"(--show to widen, --json for everything)")
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    tree = paper_figure4_tree()
    result = bw_first(tree)
    allocation = from_bw_first(result)
    periods = tree_periods(allocation)
    schedules = build_schedules(allocation, periods=periods)
    print("reconstructed Section 8 example tree:")
    print(tree.describe())
    print()
    print(transaction_table(result))
    print()
    print(rate_table(allocation))
    print()
    print(schedule_table(schedules, periods))
    print()
    period = global_period(periods)
    sim = simulate(tree, horizon=10 * period)
    print(simulation_report(sim, result.throughput, title="10-period simulation"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description="Bandwidth-centric steady-state scheduling on heterogeneous trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def tree_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("tree", help="platform JSON file (or DSL text with --dsl)")
        p.add_argument("--dsl", action="store_true",
                       help="parse the TREE argument as DSL text instead of a file")

    p = sub.add_parser("throughput", help="optimal steady-state throughput")
    tree_arg(p)
    p.set_defaults(func=_cmd_throughput)

    p = sub.add_parser("schedule", help="full schedule reconstruction")
    tree_arg(p)
    p.add_argument("--policy", choices=sorted(POLICIES), default="interleaved")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("simulate", help="discrete-event simulation report")
    tree_arg(p)
    p.add_argument("--horizon", help="stop releasing tasks at this time")
    p.add_argument("--supply", type=int, help="total number of tasks")
    p.add_argument("--policy", choices=sorted(POLICIES), default="interleaved")
    p.add_argument("--buffered-start", action="store_true",
                   help="use the traditional no-compute start-up baseline")
    p.add_argument("--trace-out", metavar="PATH",
                   help="save the run's trace + telemetry as JSONL")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gantt", help="ASCII Gantt chart")
    tree_arg(p)
    p.add_argument("--horizon", required=True)
    p.add_argument("--until", help="render only up to this time")
    p.add_argument("--width", type=int, default=100)
    p.add_argument("--nodes", nargs="*", help="nodes to render (default: active)")
    p.add_argument("--policy", choices=sorted(POLICIES), default="interleaved")
    p.set_defaults(func=_cmd_gantt)

    p = sub.add_parser("compare", help="rank all built-in strategies")
    tree_arg(p)
    p.add_argument("--periods", type=int, default=10,
                   help="steady-state periods to simulate")
    p.add_argument("--supply", type=int,
                   help="finite campaign of N tasks (measures makespan)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("export",
                       help="simulate and export CSV traces + SVG charts")
    tree_arg(p)
    p.add_argument("--horizon", help="stop releasing tasks at this time")
    p.add_argument("--supply", type=int, help="total number of tasks")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--prefix", default="trace", help="output filename prefix")
    p.add_argument("--policy", choices=sorted(POLICIES), default="interleaved")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("sensitivity",
                       help="rank resources by throughput gain when sped up")
    tree_arg(p)
    p.add_argument("--speedup", default="2",
                   help="speed-up factor applied to each resource (default 2)")
    p.add_argument("--top", type=int, help="show only the best N resources")
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("dot", help="Graphviz DOT with unvisited nodes greyed")
    tree_arg(p)
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("metrics",
                       help="negotiate (and optionally simulate) with "
                            "telemetry; print Prometheus metrics")
    tree_arg(p)
    p.add_argument("--horizon", help="also simulate up to this time")
    p.add_argument("--supply", type=int, help="also simulate N tasks")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("trace",
                       help="export the negotiation's span tree "
                            "(Chrome trace-event JSON or JSONL), or stitch "
                            "per-actor JSONL streams into one trace")
    p.add_argument("tree", nargs="?",
                   help="platform JSON file (or DSL text with --dsl)")
    p.add_argument("--dsl", action="store_true",
                   help="parse the TREE argument as DSL text instead of a file")
    p.add_argument("--format", choices=("chrome", "jsonl"), default="chrome")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--stitch", nargs="+", metavar="JSONL",
                   help="merge per-actor JSONL span streams (span ids "
                        "remapped, metrics summed) and emit one Chrome "
                        "trace with cross-actor flow arrows")
    p.add_argument("--trace-id", help="with --stitch: keep only the spans "
                                      "of this negotiation trace")
    p.add_argument("--list-traces", action="store_true",
                   help="with --stitch: print the distinct trace ids "
                        "found in the merged streams and exit")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "dash",
        help="zero-dependency live ops dashboard (SSE) over a seeded "
             "chaos/recovery workload",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="listen port (0 picks a free one; default 8787)")
    p.add_argument("--nodes", type=int, default=1000,
                   help="workload platform size (default 1000)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--runtime", choices=("none", "inproc", "tcp"),
                   default="none",
                   help="drive re-negotiations through the real asyncio "
                        "runtime (tcp populates the per-edge octet panel)")
    p.add_argument("--interval", type=float, default=1.0,
                   help="SSE metrics snapshot period in seconds (default 1)")
    p.add_argument("--baselines", default=".",
                   help="directory holding BENCH_*.json for the BenchWatch "
                        "panel (default: current directory)")
    p.add_argument("--run-for", type=float, metavar="SECONDS",
                   help="serve for a bounded time then exit (default: "
                        "until Ctrl-C)")
    p.add_argument("--no-workload", action="store_true",
                   help="serve panels only; instrument your own run against "
                        "the dashboard registry instead")
    p.add_argument("--kernel", choices=("int", "fraction", "array"),
                   default="array",
                   help="time kernel for the supervised simulation "
                        "(default array, the fastest at dashboard scale)")
    p.set_defaults(func=_cmd_dash)

    p = sub.add_parser("runtime",
                       help="negotiate on the real asyncio runtime "
                            "(concurrent actors, pluggable transport)")
    tree_arg(p)
    p.add_argument("--transport", choices=("inproc", "tcp"),
                   default="inproc")
    p.add_argument("--retry", action="store_true",
                   help="arm wall-clock at-least-once retry timers")
    p.add_argument("--base-timeout", type=float, default=0.05,
                   help="per-edge patience in seconds (default 0.05)")
    p.add_argument("--deadline", type=float, default=60.0,
                   help="overall wall-clock bound in seconds (default 60)")
    p.add_argument("--trace-out", metavar="PATH",
                   help="stream transaction spans + metrics to JSONL")
    p.set_defaults(func=_cmd_runtime)

    p = sub.add_parser(
        "bench-incr",
        help="incremental vs full BW-First on single-leaf prune churn",
    )
    p.add_argument("--nodes", type=int, default=1000,
                   help="tree size (default 1000, the E26 family)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--mutations", type=int, default=20,
                   help="number of single-leaf prunes (default 20)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output (includes cache_info())")
    _add_profile_options(p)
    p.set_defaults(func=_cmd_bench_incr)

    p = sub.add_parser(
        "bench-timeline",
        help="fast (array or int) vs Fraction simulation kernels + "
             "fragment-cached schedule rebuilds (experiment E27)",
    )
    p.add_argument("--nodes", type=int, default=1000,
                   help="tree size (default 1000, the E27 family)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--periods", type=int, default=2,
                   help="simulation horizon in global periods (default 2)")
    p.add_argument("--repeats", type=int, default=3,
                   help="best-of-N timing repeats (default 3)")
    p.add_argument("--mutations", type=int, default=5,
                   help="single-leaf prunes for the rebuild churn (default 5)")
    p.add_argument("--kernel", choices=("int", "array"), default="array",
                   help="exact fast kernel to pit against the Fraction "
                        "baseline (default array)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    _add_profile_options(p)
    p.set_defaults(func=_cmd_bench_timeline)

    p = sub.add_parser(
        "federate",
        help="multi-tenant federation: sharded scheduler service that "
             "batches each tenant's mutations into one re-solve "
             "(experiment E32)",
    )
    p.add_argument("mode", choices=("serve", "bench"),
                   help="serve: long-lived service under continuous churn; "
                        "bench: the E32 federated-vs-isolated comparison")
    p.add_argument("--tenants", type=int, default=8,
                   help="concurrent tenant trees (default 8)")
    p.add_argument("--shards", type=int, default=2,
                   help="shard worker processes (default 2)")
    p.add_argument("--nodes", type=int, default=240,
                   help="nodes per tenant tree (default 240)")
    p.add_argument("--templates", type=int, default=4,
                   help="distinct tree templates across tenants (default 4; "
                        "identical templates take the template-clone path)")
    p.add_argument("--mutations", type=int, default=20,
                   help="bench: churn mutations per tenant (default 20)")
    p.add_argument("--batch", type=int, default=4,
                   help="bench: mutations coalesced per flush (default 4)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--json", action="store_true",
                   help="bench: machine-readable record")
    p.add_argument("--batch-window", type=float, default=0.05,
                   help="serve: flush window in seconds (default 0.05)")
    p.add_argument("--churn-interval", type=float, default=0.01,
                   help="serve: seconds between synthetic mutations")
    p.add_argument("--run-for", type=float,
                   help="serve: stop after this many seconds (default: "
                        "until interrupted)")
    p.add_argument("--report-every", type=float, default=1.0,
                   help="serve: seconds between stats lines (default 1)")
    p.add_argument("--dash-port", type=int,
                   help="serve: also serve the live dashboard (federation "
                        "panel) on this port")
    p.set_defaults(func=_cmd_federate)

    p = sub.add_parser(
        "chaos",
        help="seeded chaos sweep: every fault sequence must converge back "
             "to the survivors' exact optimum (experiment E28)",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; case i uses seed+i (default 0)")
    p.add_argument("--sequences", type=int, default=100,
                   help="number of fault sequences to sweep (default 100)")
    p.add_argument("--show", type=int, default=10,
                   help="rows of the outcome table to print (default 10)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output (all outcomes)")
    p.add_argument("--data-plane", action="store_true",
                   help="sweep payload faults (dropped/corrupted task "
                        "frames) over live task planes instead; gates "
                        "exact task accounting")
    p.add_argument("--transport", choices=("inproc", "tcp"),
                   default="inproc",
                   help="with --data-plane: plane substrate (default inproc)")
    p.add_argument("--tasks", type=int, default=40,
                   help="with --data-plane: tasks per case (default 40)")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "exec",
        help="execute real task payloads under the negotiated schedule "
             "(experiment E30)",
    )
    p.add_argument("tree", nargs="?",
                   help="platform JSON file (default: the built-in "
                        "Section 8 tree)")
    p.add_argument("--dsl", action="store_true",
                   help="parse TREE as DSL text instead of a JSON file")
    p.add_argument("--transport", choices=("inproc", "tcp", "cluster"),
                   default="inproc",
                   help="inproc/tcp: one process, shared loop; cluster: "
                        "one OS process per node over real sockets")
    p.add_argument("--tasks", type=int,
                   help="stop after generating N tasks (default 200 "
                        "unless --duration is given)")
    p.add_argument("--duration", type=float,
                   help="stop generating after this many wall seconds")
    p.add_argument("--time-scale", type=float, default=0.02,
                   help="wall seconds per virtual time unit (default 0.02)")
    p.add_argument("--task-drop", metavar="P",
                   help="drop task frames with probability P (e.g. 1/10)")
    p.add_argument("--task-corrupt", metavar="P",
                   help="corrupt task payloads with probability P")
    p.add_argument("--seed", type=int, default=0,
                   help="fault plan seed (default 0)")
    p.add_argument("--deadline", type=float, default=120.0,
                   help="abort if the plane has not drained by then")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.set_defaults(func=_cmd_exec)

    p = sub.add_parser("example", help="run the built-in paper example")
    p.set_defaults(func=_cmd_example)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream consumer (e.g. `| head`) closed the pipe; not an error,
        # but Python would print a traceback and then spew again on the
        # interpreter's stdout flush — hand it a dead descriptor instead.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
