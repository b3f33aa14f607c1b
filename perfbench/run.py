"""The repository benchmark: planning, re-planning and federation.

Usage, from the repository root::

    python3 perfbench/run.py --workload plan|churn|federation --seed N \\
        --seconds S --trace 0|1 [--size full|tiny]

It makes the workload's inputs from the seed, measures set-up in fresh
processes, runs the workload's closed loop for about ``S`` seconds and
checks every output against an exact oracle.  Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` layer spans are
recorded around every library call, the metrics are the per-layer ones
and the spans are written as Chrome trace-event JSON under
``.perfbench/``.  See ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import KINDS, LAYERS, SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("plan", "churn", "federation")
#: fresh-process set-ups per run; ``setup_s`` is their median.  A plan
#: set-up is only imports, so it is repeated most; a churn set-up solves
#: and schedules every tenant and costs the most.
SETUP_REPEATS = {"plan": 7, "churn": 3, "federation": 5}
SETUP_TIMEOUT_S = 60


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0))}


def measure_setup(workload: str, inputs: dict):
    """Seconds from spawning a fresh interpreter to its ``ready`` line, and
    the calibration time (ms) that interpreter measured afterwards."""
    payload = json.dumps({"tenants": inputs.get("tenants", {})}).encode()
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_child.py"),
                           workload], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE) as child:
        try:
            child.stdin.write(payload)
            child.stdin.close()
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            calibration = child.stdout.read()
            code = child.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"{workload} set-up failed (exit {code})")
    return elapsed, float(calibration)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def count_metrics(counts: dict) -> dict:
    """The per-layer counts and count ratios from a run's raw counts."""
    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    spliced = counts.get("sched.spliced", 0)
    recomputed = counts.get("sched.recomputed", 0)
    values = {
        "core.bw_first.visited": counts.get("visited", 0),
        "core.visited_ratio": ratio("visited", "nodes"),
        "core.incremental.evals": counts.get("incr.evals", 0),
        "core.incremental.hit_ratio": ratio("incr.hits", "incr.lookups"),
        "schedule.marks": counts.get("marks", 0),
        "schedule.incremental.recomputed": recomputed,
        "schedule.incremental.splice_ratio":
            spliced / (spliced + recomputed) if spliced + recomputed else 0.0,
        "sim.tasks": counts.get("sim.tasks", 0),
        "sim.released": counts.get("sim.released", 0),
        "protocol.messages": counts.get("protocol.messages", 0),
        "protocol.visited": counts.get("protocol.visited", 0),
        "runtime.messages": counts.get("runtime.messages", 0),
        "federation.resolves": counts.get("federation.resolves", 0),
        "federation.retries": counts.get("federation.retries", 0),
        "federation.memo.hit_ratio": ratio("memo.hits", "memo.fetches"),
        "federation.memo.cross_tenant_hits":
            counts.get("memo.cross_tenant_hits", 0),
    }
    mutations = sum(counts.get(f"mix.{kind}", 0) for kind in KINDS)
    for kind in KINDS:
        values[f"mix.{kind}.share"] = (counts.get(f"mix.{kind}", 0) / mutations
                                       if mutations else 0.0)
    return values


def per_layer(spans, tally, op_name: str) -> dict:
    values = {}
    durations = spans.durations_ms()
    for span in SPANS:
        calls = durations.get(span, [])
        values[f"{span}_ms.p50"] = median(calls)
        values[f"{span}_ms.sum"] = float(sum(calls))
    for kind in KINDS:
        values[f"core.incremental.mutate.{kind}_ms.p50"] = median(
            tally.samples.get(f"mutate.{kind}", []))
    for batch in ("structural", "weight"):
        values[f"core.incremental.solve.{batch}_ms.p50"] = median(
            tally.samples.get(f"solve.{batch}", []))
    own = spans.self_ms()
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = own.get(layer, 0.0)
    values.update(count_metrics(tally.counts))
    values["trace.coverage"] = spans.coverage(op_name)
    values["trace.overhead_ms"] = spans.overhead_ms(op_name)
    values["host.calibration_ms"] = median(tally.samples.get("calibration", []))
    return values


def end_to_end(tally, setup_scaled: list) -> dict:
    """The end-to-end metrics, timings scaled to the reference host."""
    return {
        "setup_s": median(setup_scaled),
        "ready_ms.p50": median(tally.samples.get("ready_scaled", [])),
        "work_per_s": (tally.work / tally.work_scaled_s
                       if tally.work_scaled_s else 0.0),
        "peak_rss_mb": tally.peak_rss_kb / 1024,
    }


def report_lines(workload: str, tally, setup: list) -> list:
    """The workload's metrics under their per-workload names, unscaled
    (the JSON's end-to-end timings are scaled to the reference host)."""
    ready = tally.samples.get("ready", [])
    rate = tally.work / tally.work_s if tally.work_s else 0.0
    cal = tally.samples.get("calibration", [])
    lines = [f"host calibration {median(cal):.3f} ms (n={len(cal)})",
             f"setup_s {median(setup):.4f} s (n={len(setup)})"]
    if workload == "plan":
        lines.append(f"plan_ms.p50 {median(ready):.3f} ms (n={len(ready)})")
        lines.append(f"sim_tasks_per_s {rate:.1f} tasks/s "
                     f"({tally.work} tasks)")
        for name in ("protocol", "negotiate"):
            calls = tally.samples.get(name, [])
            lines.append(f"{name}_ms.p50 {median(calls):.3f} ms "
                         f"(n={len(calls)})")
    else:
        lines.append(f"replan_ms.p50 {median(ready):.3f} ms (n={len(ready)})")
        if len(ready) >= 100:
            p90 = statistics.quantiles(ready, n=10)[-1]
            lines.append(f"replan_ms.p90 {p90:.3f} ms (n={len(ready)})")
        lines.append(f"mutations_per_s {rate:.1f} 1/s ({tally.work} mutations)")
    share = tally.failed / tally.attempted if tally.attempted else 0.0
    lines.append(f"failed_share {share:.4f} ratio "
                 f"({tally.failed}/{tally.attempted})")
    lines.append(f"peak_rss_mb {tally.peak_rss_kb / 1024:.1f} MB")
    return lines


def declared(mode: str) -> dict:
    """The metrics ``BENCHMARK.json`` lists under *mode*, name -> unit."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[mode]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from inputs import SIZES, digest, make_inputs
    from spans import Spans
    from workloads import CAL_REF_MS, RUNNERS, Tally

    size = SIZES[args.size]
    env = environment()
    inputs = make_inputs(args.workload, args.seed, size)
    print(f"env python {env['python']} numpy {env['numpy']} "
          f"nproc {env['nproc']}")
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"inputs {digest(inputs)[:16]}")
    trace = bool(args.trace)
    setup, setup_scaled = [], []
    for _ in range(0 if trace else SETUP_REPEATS[args.workload]):
        elapsed, calibration = measure_setup(args.workload, inputs)
        setup.append(elapsed)
        setup_scaled.append(elapsed * CAL_REF_MS / calibration)
    spans, tally = Spans(), Tally()
    RUNNERS[args.workload](inputs, size, args.seconds, spans, tally, trace)

    for line in report_lines(args.workload, tally, setup):
        print(line)
    for message in tally.errors[:20]:
        print(f"FAILED {message}")
    if trace:
        op_name = "op.plan" if args.workload == "plan" else "op.replan"
        values = per_layer(spans, tally, op_name)
        out = Path(".perfbench")
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(spans.chrome_trace(dict(
            env, workload=args.workload, seed=args.seed, size=args.size)))
        print(f"trace {path} ({len(spans.spans)} spans)")
        for layer, ms in sorted(spans.self_ms().items()):
            print(f"self {layer} {ms:.3f} ms")
    else:
        values = end_to_end(tally, setup_scaled)
    units = declared("per_layer" if trace else "end_to_end")
    if set(values) != set(units):
        raise RuntimeError("computed metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    correct = tally.failed == 0 and not tally.errors
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
