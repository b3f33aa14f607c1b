"""One shard worker: a process owning the solvers of its tenants.

The worker speaks framed JSON (the runtime codec's length+CRC32 framing,
exact ``"n/d"`` rationals) over a duplex pipe with the federation
service, one request at a time:

* ``onboard`` — build an :class:`~repro.core.incremental.IncrementalSolver`
  for a tenant from its serialised tree.  Trees are canonicalised and
  remembered: a later tenant onboarding an *identical* tree clones the
  first one's solver (:meth:`~repro.core.incremental.IncrementalSolver.clone`)
  instead of re-fingerprinting from scratch — the template fast path;
* ``batch`` — the coalesced flush: a list of per-tenant requests, each
  carrying *all* of that tenant's pending mutations and asking for one
  solve.  Applying the ops back to back re-fingerprints each dirty
  root-path once per op but solves only once, which is the point of the
  batch window;
* ``result`` — the tenant's full current solution (outcomes +
  transactions), used by exactness verification.  It re-solves, which by
  then is a pure cache replay;
* ``stats`` / ``chaos`` / ``shutdown`` — introspection, the crash-test
  hook (die mid-batch after applying ops, before acking — exactly the
  window the service's retry must cover), and orderly exit.

Each tenant's solver caches only its own subtrees; shards share no
state with each other or with the service beyond the frames themselves,
so a shard's eval count is a pure function of its requests.

Requests are idempotent from the service's point of view because the
service only advances its authoritative per-tenant state on *ack*: a
worker that dies mid-batch is respawned, re-onboarded from authoritative
trees and the batch replayed verbatim.
"""

from __future__ import annotations

import json
import os
from typing import Dict

from ..core.incremental import IncrementalSolver
from ..platform.serialization import tree_from_dict, tree_to_dict
from ..runtime.codec import parse_rational
from .wire import recv_frame, send_frame


def result_payload(result) -> dict:
    """Serialise a BWFirstResult for the wire: exact rationals as strings,
    outcomes in the tree's preorder, transactions in open order."""
    return {
        "throughput": str(result.throughput),
        "t_max": str(result.t_max),
        "outcomes": [
            [str(node), str(o.lam), str(o.alpha), str(o.theta), str(o.tau)]
            for node, o in sorted(result.outcomes.items(),
                                  key=lambda kv: str(kv[0]))
        ],
        "transactions": [
            [t.index, str(t.parent), str(t.child), str(t.proposal), str(t.ack)]
            for t in result.transactions
        ],
    }


class _ShardState:
    """The worker's in-process state: per-tenant solvers + templates."""

    def __init__(self, shard_id: str):
        self.shard_id = shard_id
        self.solvers: Dict[str, IncrementalSolver] = {}
        # canonical tree JSON → a pristine (never-mutated) solver to clone
        self.templates: Dict[str, IncrementalSolver] = {}
        self.die_in_batches = 0
        self.stats = {
            "onboards": 0, "template_clones": 0, "batches": 0,
            "resolves": 0, "mutations": 0, "evals": 0,
        }

    def onboard(self, tenant: str, tree_data: dict, solve: bool) -> dict:
        tree = tree_from_dict(tree_data)
        canon = json.dumps(tree_to_dict(tree), sort_keys=True,
                           separators=(",", ":"))
        template = self.templates.get(canon)
        if template is not None:
            solver = template.clone()
            self.stats["template_clones"] += 1
        else:
            solver = IncrementalSolver(tree)
            # the pristine master keeps only fingerprints; cloning it later
            # skips the full fingerprint pass for same-template tenants
            self.templates[canon] = solver.clone()
        self.solvers[tenant] = solver
        self.stats["onboards"] += 1
        summary = {"tenant": tenant, "nodes": len(list(solver.tree.nodes()))}
        if solve:
            result = solver.solve()
            self.stats["resolves"] += 1
            self.stats["evals"] += solver.last_evals
            summary.update(throughput=str(result.throughput),
                           t_max=str(result.t_max),
                           evals=solver.last_evals)
        return summary

    def _apply_op(self, solver: IncrementalSolver, op) -> None:
        kind = op[0]
        if kind == "set_w":
            solver.set_w(op[1], parse_rational(op[2]))
        elif kind == "set_c":
            solver.set_c(op[1], parse_rational(op[2]))
        elif kind == "prune":
            solver.prune(op[1])
        elif kind == "graft":
            solver.graft(op[1], parse_rational(op[2]), tree_from_dict(op[3]))
        else:
            raise ValueError(f"unknown mutation op {kind!r}")

    def batch(self, reqs: list) -> list:
        self.stats["batches"] += 1
        results = []
        for req in reqs:
            tenant = req["tenant"]
            solver = self.solvers[tenant]
            for op in req.get("ops", ()):
                self._apply_op(solver, op)
                self.stats["mutations"] += 1
            result = solver.solve()
            self.stats["resolves"] += 1
            self.stats["evals"] += solver.last_evals
            results.append({
                "tenant": tenant,
                "throughput": str(result.throughput),
                "t_max": str(result.t_max),
                "evals": solver.last_evals,
            })
        return results

    def snapshot(self) -> dict:
        info = dict(self.stats)
        info["shard"] = self.shard_id
        info["tenants"] = len(self.solvers)
        solver_stats: Dict[str, int] = {}
        for solver in self.solvers.values():
            for key, value in solver.stats.items():
                solver_stats[key] = solver_stats.get(key, 0) + value
        info["solver"] = solver_stats
        return info


def shard_main(conn, shard_id: str) -> None:
    """The worker process entry point: serve framed requests until
    ``shutdown`` or the pipe closes."""
    state = _ShardState(shard_id)
    while True:
        try:
            request = recv_frame(conn)
        except (EOFError, OSError):
            break
        op = request.get("t")
        try:
            if op == "onboard":
                reply = {"t": "ok", "summary": state.onboard(
                    request["tenant"], request["tree"],
                    bool(request.get("solve", True)))}
            elif op == "batch":
                if state.die_in_batches:
                    state.die_in_batches -= 1
                    if state.die_in_batches == 0:
                        # the crash-test window: ops applied, ack never
                        # sent — the service must respawn and replay
                        state.batch(request["reqs"])
                        os._exit(1)
                reply = {"t": "ok", "results": state.batch(request["reqs"])}
            elif op == "result":
                solver = state.solvers[request["tenant"]]
                reply = {"t": "ok",
                         "result": result_payload(solver.solve())}
            elif op == "stats":
                reply = {"t": "ok", "stats": state.snapshot()}
            elif op == "chaos":
                state.die_in_batches = int(request.get("die_in_batches", 1))
                reply = {"t": "ok"}
            elif op == "shutdown":
                send_frame(conn, {"t": "ok"})
                break
            else:
                reply = {"t": "err", "error": f"unknown shard op {op!r}"}
        except Exception as exc:  # contained: one bad request ≠ a dead shard
            reply = {"t": "err", "error": f"{type(exc).__name__}: {exc}"}
        try:
            send_frame(conn, reply)
        except (BrokenPipeError, OSError):
            break
