"""The span, layer and count names the benchmark computes metrics from.

Every metric's unit and better direction is declared once, in
``BENCHMARK.json``; ``run.py`` prints exactly the metrics listed there.
This module imports nothing from the library, so the count checker and the
tests can read it without importing the program under test.
"""

from __future__ import annotations

#: Span names recorded around calls into the library, one per layer call;
#: each prints as ``<span>_ms.p50`` (per call) and ``<span>_ms.sum`` (per
#: run).  Keyed by layer, the first dotted component.
SPANS = [
    "platform.parse",
    "core.bw_first",
    "core.allocation",
    "core.incremental.mutate",
    "core.incremental.solve",
    "schedule.periods",
    "schedule.build",
    "schedule.incremental.build",
    "sim.init",
    "sim.run",
    "protocol.run",
    "runtime.negotiate",
    "federation.onboard",
    "federation.mutate",
    "federation.flush",
]

LAYERS = ["platform", "core", "schedule", "sim", "protocol", "runtime",
          "federation"]

#: The per-run counts and count ratios.  They are taken over a fixed
#: prefix of the run (the first pass over the plan pool, the first rounds
#: of churn and federation), so one seed gives the same value on every
#: run; only ``federation.memo.*`` may move, because the shard processes
#: race on the shared store.
COUNTS = [
    "core.bw_first.visited",
    "core.visited_ratio",
    "core.incremental.evals",
    "core.incremental.hit_ratio",
    "schedule.marks",
    "schedule.incremental.recomputed",
    "schedule.incremental.splice_ratio",
    "sim.tasks",
    "sim.released",
    "protocol.messages",
    "protocol.visited",
    "runtime.messages",
    "federation.resolves",
    "federation.retries",
    "federation.memo.hit_ratio",
    "federation.memo.cross_tenant_hits",
    "mix.set_w.share",
    "mix.set_c.share",
    "mix.prune.share",
    "mix.graft.share",
]

#: The kinds of leaf mutation in the churn and federation streams.
KINDS = ("set_w", "set_c", "prune", "graft")

#: Counts that may differ between two runs of one seed.
RACY_PREFIX = "federation.memo."
