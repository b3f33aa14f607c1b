"""E32 — multi-tenant federation: batched re-solves under churn.

One scenario (templated tenant families under seeded leaf-weight churn),
four modes over identical trees and identical mutation streams — see
:mod:`repro.federation.bench` for the full determinism contract:

* **federated** — the sharded service: per-tenant mutations coalesced per
  batch window into one incremental re-solve on the tenant's shard;
* **isolated-full** — the gate's baseline: one full ``bw_first`` per
  tenant per mutation, nothing batched;
* **isolated-incremental** — per-tenant incremental solvers, one solve
  per mutation (how much of the win is incrementality alone);
* **isolated-batched** — per-tenant incremental solvers in one process
  fed the same batches: the in-process bar the shard processes must
  earn their IPC against (printed, not gated on wall time).

The acceptance bar, asserted here:

* every tenant's served solution is **bit-exact** against a fresh
  ``bw_first`` on an independently replayed tree;
* the federated eval count is **deterministic**: a second run gives the
  same ``node_evals``, and it equals the onboarding evals plus the
  in-process batched loop's evals (shards share nothing, so they do
  exactly that loop's work);
* federated churn wall-clock **strictly beats** the isolated-full
  baseline.
"""

from __future__ import annotations

from repro.federation.bench import run_federation_bench
from repro.util.text import render_table

from .conftest import emit

E32_PARAMS = dict(tenants=8, shards=2, nodes=240, templates=4,
                  mutations=20, batch=4, seed=1)


def test_e32_federation_gate():
    record = run_federation_bench(**E32_PARAMS)
    fed = record["federated"]
    full = record["isolated_full"]
    incr = record["isolated_incremental"]
    batched = record["isolated_batched"]
    again = run_federation_bench(**E32_PARAMS, verify=False, isolated=False)

    assert record["exact"] is True
    assert again["federated"]["node_evals"] == fed["node_evals"]
    assert fed["node_evals"] == fed["onboard_evals"] + batched["node_evals"]
    assert fed["wall_s"] < full["wall_s"]

    rows = [
        ["federated", f"{fed['wall_s']:.3f}",
         f"{fed['mutations_per_s']:.0f}", str(fed["resolves"])],
        ["isolated-batched", f"{batched['wall_s']:.3f}",
         f"{batched['mutations_per_s']:.0f}", str(batched["resolves"])],
        ["isolated-incremental", f"{incr['wall_s']:.3f}",
         f"{incr['mutations_per_s']:.0f}", str(incr["resolves"])],
        ["isolated-full", f"{full['wall_s']:.3f}",
         f"{full['mutations_per_s']:.0f}", str(full["resolves"])],
    ]
    emit(
        f"E32: {E32_PARAMS['tenants']} tenants × {E32_PARAMS['mutations']} "
        f"mutations, {E32_PARAMS['nodes']}-node trees, "
        f"{E32_PARAMS['templates']} templates, {E32_PARAMS['shards']} shards "
        f"(seed {E32_PARAMS['seed']})",
        render_table(["mode", "churn wall s", "mutations/s", "re-solves"],
                     rows)
        + f"\nspeedup vs isolated-full ×{record['speedup_vs_full']:.2f}"
        f" · federated evals {fed['node_evals']}"
        f" · template clones {fed['template_clones']}",
    )
