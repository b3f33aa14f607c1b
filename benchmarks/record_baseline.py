"""Record perf baselines as committed ``BENCH_*.json`` files.

Run from the repo root (or via ``make bench-record``)::

    PYTHONPATH=src python benchmarks/record_baseline.py

Each file shares one schema so tooling can diff any of them::

    {
      "bench": "e26_incremental",
      "schema": 1,
      "records": [
        {"params": {...}, "wall_s": 0.0123, "node_evals": 42},
        ...
      ]
    }

``node_evals`` is the machine-independent cost metric (BW-First node
evaluations actually executed); ``wall_s`` is informational and varies by
host.  Regression gating uses ``node_evals`` only — see
``make perf-smoke`` and ``docs/perf.md``.
"""

import argparse
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from repro.core.allocation import from_bw_first
from repro.core.bwfirst import bw_first
from repro.core.incremental import IncrementalSolver
from repro.platform.examples import paper_figure4_tree
from repro.platform.generators import random_tree, smooth_tree
from repro.protocol import run_protocol
from repro.runtime import negotiate
from repro.schedule.eventdriven import build_schedules
from repro.schedule.periods import global_period, tree_periods
from repro.sim.simulator import Simulation

E26_PARAMS = dict(max_children=4, w_numerator_range=(2000, 6000),
                  c_numerator_range=(1, 2))


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def record_e26(nodes=1000, seeds=(1, 2, 3), mutations=20):
    """Single-leaf prune churn: full vs incremental node evals per step."""
    records = []
    for seed in seeds:
        tree = random_tree(nodes, seed=seed, **E26_PARAMS)
        solver = IncrementalSolver(tree)
        solver.solve()
        rng = random.Random(seed)
        full_evals = incr_evals = 0
        wall_full = wall_incr = 0.0
        for _ in range(mutations):
            victim = rng.choice(
                [n for n in solver.tree.leaves() if n != solver.tree.root])
            solver.prune(victim)
            got, dt = timed(solver.solve)
            wall_incr += dt
            incr_evals += solver.last_evals
            ref, dt = timed(lambda t=solver.tree: bw_first(t))
            wall_full += dt
            full_evals += len(ref.outcomes)
            assert got.throughput == ref.throughput
            assert got.outcomes == ref.outcomes
        params = dict(nodes=nodes, seed=seed, mutations=mutations,
                      family="e26", mutation="single_leaf_prune")
        records.append(dict(params=dict(params, solver="full"),
                            wall_s=round(wall_full, 6),
                            node_evals=full_evals))
        records.append(dict(params=dict(params, solver="incremental"),
                            wall_s=round(wall_incr, 6),
                            node_evals=incr_evals))
        ratio = full_evals / max(incr_evals, 1)
        print(f"e26 seed={seed}: {full_evals} vs {incr_evals} node evals "
              f"({ratio:.1f}x), wall {wall_full*1e3:.1f}ms vs "
              f"{wall_incr*1e3:.1f}ms")
        assert ratio >= 5, f"seed {seed} fell below the 5x bar"
    return records


def record_e8(sizes=(10, 50, 200)):
    """Protocol negotiation cost across platform sizes."""
    records = []
    for size in sizes:
        tree = random_tree(size, seed=size)
        result, wall = timed(lambda t=tree: run_protocol(t))
        records.append(dict(
            params=dict(nodes=size, seed=size, path="simulated"),
            wall_s=round(wall, 6),
            node_evals=len(result.visited),
        ))
        print(f"e8 n={size}: {result.messages} msgs, {wall*1e3:.2f}ms")
    return records


def record_e25(sizes=(14, 50)):
    """Executed-runtime negotiation across the three substrates."""
    records = []
    for label, tree in (
        ("fig4", paper_figure4_tree()),
        *((f"random{n}", random_tree(n, seed=n)) for n in sizes),
    ):
        for path, run in (
            ("simulated", lambda t=tree: run_protocol(t)),
            ("inproc", lambda t=tree: negotiate(t)),
            ("tcp", lambda t=tree: negotiate(t, transport="tcp")),
        ):
            result, wall = timed(run)
            records.append(dict(
                params=dict(platform=label, nodes=len(tree), path=path),
                wall_s=round(wall, 6),
                node_evals=len(result.visited),
            ))
            print(f"e25 {label}/{path}: {wall*1e3:.2f}ms")
    return records


def record_e27(nodes=1000, seed=1, periods=3, repeats=3, mutations=10):
    """Integer-timeline kernel: simulator run() wall-clock per kernel, and
    fragment recomputations per single-leaf mutation (full vs incremental
    schedule reconstruction)."""
    import gc

    records = []

    tree = smooth_tree(nodes, seed)
    allocation = from_bw_first(bw_first(tree))
    period_map = tree_periods(allocation)
    schedules = build_schedules(allocation, periods=period_map)
    horizon = Fraction(global_period(period_map)) * periods
    wall = {}
    for kernel in ("int", "fraction"):
        best, result = None, None
        for _ in range(repeats):
            sim = Simulation(tree, dict(schedules), dict(period_map),
                             horizon=horizon, kernel=kernel,
                             record_segments=False, record_buffers=False)
            gc.collect()
            gc.disable()  # keep cycle-GC pauses off the timed run
            try:
                t0 = time.process_time()
                result = sim.run()
                dt = time.process_time() - t0
            finally:
                gc.enable()
            best = dt if best is None else min(best, dt)
        wall[kernel] = best
        records.append(dict(
            params=dict(nodes=nodes, seed=seed, periods=periods,
                        family="e27", phase="simulate", kernel=kernel),
            wall_s=round(best, 6),
            node_evals=result.trace.completed,
        ))
    sim_ratio = wall["fraction"] / wall["int"]
    print(f"e27 simulate n={nodes}: fraction {wall['fraction']*1e3:.1f}ms "
          f"vs int {wall['int']*1e3:.1f}ms ({sim_ratio:.2f}x)")
    assert sim_ratio >= 3, f"int-kernel speedup {sim_ratio:.2f}x below 3x"

    solver = IncrementalSolver(smooth_tree(nodes, seed))
    builder = solver.schedule_builder()
    builder.build(from_bw_first(solver.solve()))
    rng = random.Random(seed)
    full_frags = incr_frags = 0
    wall_full = wall_incr = 0.0
    for _ in range(mutations):
        victim = rng.choice(
            [n for n in solver.tree.leaves() if n != solver.tree.root])
        solver.prune(victim)
        alloc = from_bw_first(solver.solve())
        (got_p, got_s), dt = timed(lambda a=alloc: builder.build(a))
        wall_incr += dt
        incr_frags += builder.last_recomputed
        ref_p, dt = timed(lambda a=alloc: tree_periods(a))
        wall_full += dt
        ref_s, dt = timed(
            lambda a=alloc, p=ref_p: build_schedules(a, periods=p))
        wall_full += dt
        full_frags += len(ref_p)
        assert got_p == ref_p and got_s == ref_s
    params = dict(nodes=nodes, seed=seed, mutations=mutations,
                  family="e27", phase="reconstruct",
                  mutation="single_leaf_prune")
    records.append(dict(params=dict(params, builder="full"),
                        wall_s=round(wall_full, 6), node_evals=full_frags))
    records.append(dict(params=dict(params, builder="incremental"),
                        wall_s=round(wall_incr, 6), node_evals=incr_frags))
    frag_ratio = full_frags / max(incr_frags, 1)
    print(f"e27 reconstruct n={nodes}: {full_frags} vs {incr_frags} "
          f"fragments ({frag_ratio:.1f}x), wall {wall_full*1e3:.1f}ms vs "
          f"{wall_incr*1e3:.1f}ms")
    assert frag_ratio >= 5, f"fragment reduction {frag_ratio:.1f}x below 5x"
    return records


def record_e31(nodes=10_000, big_nodes=100_000, seed=1, periods=3,
               big_periods=7, repeats=3):
    """Array kernel vs int kernel at 10k nodes (burst pacing, counts-only),
    plus the 100k-node scale leg.  ``node_evals`` stores the engine's
    processed-event count — deterministic per (nodes, seed, periods), so a
    change means kernel behaviour changed, not the host."""
    import gc

    def setup(n, n_periods):
        tree = smooth_tree(n, seed)
        allocation = from_bw_first(bw_first(tree))
        period_map = tree_periods(allocation)
        schedules = build_schedules(allocation, periods=period_map)
        horizon = Fraction(global_period(period_map)) * n_periods
        return tree, period_map, schedules, horizon

    def counts_sim(tree, period_map, schedules, horizon, kernel):
        return Simulation(tree, dict(schedules), dict(period_map),
                          horizon=horizon, kernel=kernel,
                          root_pacing="burst", record_segments=False,
                          record_buffers=False, record_events=False)

    records = []
    tree, period_map, schedules, horizon = setup(nodes, periods)
    wall, sims, results = {}, {}, {}
    for kernel in ("int", "array"):
        best, sim, result = None, None, None
        for _ in range(repeats):
            sim = counts_sim(tree, period_map, schedules, horizon, kernel)
            gc.collect()
            gc.disable()
            try:
                t0 = time.process_time()
                result = sim.run()
                dt = time.process_time() - t0
            finally:
                gc.enable()
            best = dt if best is None else min(best, dt)
        wall[kernel], sims[kernel], results[kernel] = best, sim, result
        records.append(dict(
            params=dict(nodes=nodes, seed=seed, periods=periods,
                        family="e31", pacing="burst", kernel=kernel),
            wall_s=round(wall[kernel], 6),
            node_evals=sims[kernel].engine.processed,
        ))
    assert (results["array"].trace.completed
            == results["int"].trace.completed)
    assert sims["array"].engine.processed == sims["int"].engine.processed
    ratio = wall["int"] / wall["array"]
    print(f"e31 n={nodes}: int {wall['int']*1e3:.1f}ms vs array "
          f"{wall['array']*1e3:.1f}ms ({ratio:.2f}x, "
          f"backend={sims['array']._astate.backend})")
    assert ratio >= 3, f"array-kernel speedup {ratio:.2f}x below 3x"

    tree, period_map, schedules, horizon = setup(big_nodes, big_periods)
    sim = counts_sim(tree, period_map, schedules, horizon, "array")
    result, big_wall = timed(sim.run)
    assert sim.engine.processed >= 1_000_000
    records.append(dict(
        params=dict(nodes=big_nodes, seed=seed, periods=big_periods,
                    family="e31", pacing="burst", kernel="array"),
        wall_s=round(big_wall, 6),
        node_evals=sim.engine.processed,
    ))
    print(f"e31 n={big_nodes}: array run() {big_wall:.2f}s, "
          f"{sim.engine.processed} events, "
          f"{result.trace.completed} tasks")
    return records


def record_e28(sequences=100, seed=0):
    from repro.faults.chaos import chaos_sweep

    summary, wall = timed(lambda: chaos_sweep(sequences=sequences, seed=seed))
    assert summary.exact_count == sequences, "chaos sweep must be exact"
    # machine-independent cost: the epochs the supervisor actually ran
    # (deterministic per seed — a change means the generator or the
    # recovery engine changed behaviour, not the host)
    epochs = sum(len(outcome.epochs) for outcome in summary.outcomes)
    print(f"e28 chaos: {summary.exact_count}/{sequences} exact, "
          f"{epochs} recovery epochs "
          f"({', '.join(f'{k}×{v}' for k, v in sorted(summary.epoch_kinds.items()))}), "
          f"wall {wall:.1f}s")
    return [dict(params=dict(sequences=sequences, seed=seed,
                             family="e28"),
                 wall_s=round(wall, 6), node_evals=epochs)]


def record_e29(sizes=(50, 200), repeats=15, batch=3):
    """Live-plane overhead: the E24 workload on the enabled path vs the
    bus-subscribed streaming path (LiveRegistry + Aggregator), best of
    *repeats* interleaved batches.  ``node_evals`` stores the bus event
    count per negotiation — the machine-independent cost driver."""
    from repro.telemetry import Aggregator, LiveRegistry, MetricsBus, Registry

    records = []
    for size in sizes:
        tree = random_tree(size, seed=size)
        run_protocol(tree)  # warm caches

        def run_enabled(t=tree):
            run_protocol(t, telemetry=Registry())

        def run_live(t=tree):
            registry = LiveRegistry()
            aggregator = Aggregator(registry.bus)
            try:
                run_protocol(t, telemetry=registry)
            finally:
                aggregator.detach()

        best = {"enabled": float("inf"), "live": float("inf")}
        for _ in range(repeats):
            for label, fn in (("enabled", run_enabled), ("live", run_live)):
                t0 = time.perf_counter()
                for _ in range(batch):
                    fn()
                best[label] = min(best[label], time.perf_counter() - t0)

        # count the bus events one live negotiation publishes
        events = 0

        def _count(_event, _n=None):
            nonlocal events
            events += 1

        bus = MetricsBus()
        bus.on_metric(_count)
        bus.on_span(_count)
        registry = LiveRegistry(bus=bus)
        run_protocol(tree, telemetry=registry)

        for label in ("enabled", "live"):
            records.append(dict(
                params=dict(nodes=size, seed=size, family="e29",
                            variant=label),
                wall_s=round(best[label] / batch, 6),
                node_evals=events if label == "live" else 0,
            ))
        overhead = best["live"] / best["enabled"] - 1
        print(f"e29 n={size}: enabled {best['enabled']/batch*1e3:.2f}ms, "
              f"live {best['live']/batch*1e3:.2f}ms ({overhead*100:+.1f}%), "
              f"{events} bus events/negotiation")
    return records


def record_e30(tasks=150, fault_tasks=80, horizon=45):
    """Task plane vs solver optimum: the exact simulator anchors the
    deterministic count; live planes must keep exact accounting and land
    within tolerance of ``λ−θ``.  ``node_evals`` is completed tasks —
    deterministic because the plane's accounting is exactly-once."""
    from repro.faults.plan import FaultPlan
    from repro.taskplane import (expected_completions, run_plane,
                                 sim_completions)

    tree = paper_figure4_tree()
    records = []

    count, wall = timed(lambda: sim_completions(tree, horizon))
    expect = expected_completions(tree, horizon)
    assert abs(count - expect) <= 2, \
        f"simulator {count} strays from closed form {expect}"
    records.append(dict(
        params=dict(platform="fig4", path="simulated", horizon=horizon,
                    family="e30"),
        wall_s=round(wall, 6), node_evals=count,
    ))
    print(f"e30 simulated: {count} tasks over {horizon} units "
          f"(closed form {float(expect):.1f}), {wall*1e3:.1f}ms")

    for transport in ("inproc", "tcp"):
        report, wall = timed(
            lambda t=transport: run_plane(tree, t, max_tasks=tasks))
        assert report.lost == 0 and report.duplicates == 0, \
            f"{transport}: lost {report.lost}, dup {report.duplicates}"
        assert report.occupancy_ok(), \
            f"{transport}: occupancy {report.peak_occupancy} over bounds"
        assert report.within(0.3), \
            f"{transport}: convergence {report.convergence}"
        records.append(dict(
            params=dict(platform="fig4", path=transport, tasks=tasks,
                        family="e30"),
            wall_s=round(wall, 6), node_evals=report.completed,
        ))
        print(f"e30 {transport}: {report.completed}/{report.generated} "
              f"tasks, convergence {report.convergence:.3f}, "
              f"wall {wall:.1f}s")

    plan = FaultPlan(seed=3, task_drop=Fraction(1, 10),
                     task_corrupt=Fraction(1, 12))
    report, wall = timed(
        lambda: run_plane(tree, "inproc", max_tasks=fault_tasks, plan=plan))
    assert report.lost == 0 and report.duplicates == 0
    assert report.injected_drops + report.injected_corruptions > 0
    assert report.resends > 0
    records.append(dict(
        params=dict(platform="fig4", path="inproc-faults", tasks=fault_tasks,
                    seed=3, family="e30"),
        wall_s=round(wall, 6), node_evals=report.completed,
    ))
    print(f"e30 inproc-faults: {report.completed}/{report.generated} tasks "
          f"despite {report.injected_drops} drops + "
          f"{report.injected_corruptions} corruptions "
          f"({report.resends} resends), wall {wall:.1f}s")
    return records


def record_e32(tenants=8, shards=2, nodes=240, templates=4, mutations=20,
               batch=4, seed=1):
    """Federated churn vs the isolated baselines (E32).  Every record's
    ``node_evals`` counts real BW-First node evaluations: the federated
    one sums the shard solvers' evals (onboarding plus churn), which is
    deterministic because shards share nothing — checked here by a
    second, unverified federated run."""
    from repro.federation.bench import run_federation_bench

    params = dict(tenants=tenants, shards=shards, nodes=nodes,
                  templates=templates, mutations=mutations, batch=batch,
                  seed=seed)
    rec = run_federation_bench(**params)
    again = run_federation_bench(**params, verify=False, isolated=False)
    assert rec["exact"] is True, "federated results diverged from bw_first"
    fed, full, incr, batched = (
        rec["federated"], rec["isolated_full"], rec["isolated_incremental"],
        rec["isolated_batched"])
    assert again["federated"]["node_evals"] == fed["node_evals"], \
        "federated node evals differ between two identical runs"
    params = dict(rec["params"], family="e32")
    records = [
        dict(params=dict(params, mode="federated"),
             wall_s=round(fed["wall_s"], 6), node_evals=fed["node_evals"]),
        dict(params=dict(params, mode="isolated_full"),
             wall_s=round(full["wall_s"], 6),
             node_evals=full["node_evals"]),
        dict(params=dict(params, mode="isolated_incremental"),
             wall_s=round(incr["wall_s"], 6),
             node_evals=incr["node_evals"]),
        dict(params=dict(params, mode="isolated_batched"),
             wall_s=round(batched["wall_s"], 6),
             node_evals=batched["node_evals"]),
    ]
    print(f"e32 federation: {tenants}x{mutations} mutations, federated "
          f"{fed['wall_s']:.3f}s vs isolated-full {full['wall_s']:.3f}s "
          f"(x{rec['speedup_vs_full']:.2f}) and isolated-batched "
          f"{batched['wall_s']:.3f}s, {fed['node_evals']} federated evals")
    return records


BENCHES = {
    "e26_incremental": record_e26,
    "e8_protocol_scaling": record_e8,
    "e25_runtime": record_e25,
    "e27_timeline": record_e27,
    "e28_chaos": record_e28,
    "e29_live": record_e29,
    "e30_taskplane": record_e30,
    "e31_arraykernel": record_e31,
    "e32_federation": record_e32,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="directory for BENCH_*.json (default: repo root)")
    parser.add_argument("--only", choices=sorted(BENCHES),
                        help="record just one benchmark")
    args = parser.parse_args(argv)

    for name, recorder in BENCHES.items():
        if args.only and name != args.only:
            continue
        payload = dict(bench=name, schema=1, records=recorder())
        out = args.out_dir / f"BENCH_{name}.json"
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
