"""Seeded inputs of the three workloads.

Every input is a pure function of the workload seed and the size, made
before anything is timed.  The program under test receives only these
inputs: platform JSON text (``plan``), tenant trees in the wire form and
per-tenant streams of wire-form mutations (``churn``, ``federation``).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List

from repro.core.allocation import from_bw_first
from repro.core.bwfirst import bw_first
from repro.platform.generators import smooth_tree
from repro.platform.serialization import tree_from_dict, tree_to_dict
from repro.platform.tree import Tree
from repro.schedule.periods import global_period, tree_periods

from metrics import KINDS

#: ``smooth_tree``'s weight and link-cost pools; mutations draw from them
#: so that global periods stay small after any number of changes.
WEIGHTS = (2048, 3072, 4096, 6144)
COSTS = (1, 2)


@dataclass(frozen=True)
class Size:
    plan_nodes: int
    plan_pool: int
    #: every ``sim_every``-th platform of a pass over the pool is simulated
    sim_every: int
    sim_periods: int
    #: pool platforms keep a global period of at most this many time units,
    #: so every simulation covers the same virtual span and task count
    max_period: int
    tenants: int
    templates: int
    tenant_nodes: int
    batch: int
    #: counts are taken over this many leading rounds
    count_rounds: int
    max_rounds: int


SIZES = {
    "full": Size(plan_nodes=2000, plan_pool=12, sim_every=4, sim_periods=3,
                 max_period=12288, tenants=8, templates=4, tenant_nodes=1000,
                 batch=4, count_rounds=8, max_rounds=400),
    "tiny": Size(plan_nodes=80, plan_pool=2, sim_every=2, sim_periods=3,
                 max_period=12288, tenants=4, templates=2, tenant_nodes=60,
                 batch=2, count_rounds=3, max_rounds=400),
}


def plan_inputs(seed: int, size: Size) -> Dict:
    """``plan_pool`` smooth-tree platforms as JSON text."""
    pool: List[str] = []
    k = 0
    while len(pool) < size.plan_pool:
        tree = smooth_tree(size.plan_nodes, seed=seed * 1000 + k)
        k += 1
        periods = tree_periods(from_bw_first(bw_first(tree)))
        if global_period(periods) <= size.max_period:
            pool.append(json.dumps(tree_to_dict(tree)))
    return {"pool": pool}


def tenant_inputs(seed: int, size: Size) -> Dict:
    """Templated tenant trees and one mutation stream per tenant."""
    templates = [tree_to_dict(smooth_tree(size.tenant_nodes,
                                          seed=seed * 1000 + 500 + k))
                 for k in range(size.templates)]
    tenants = {f"t{i:03d}": templates[i % size.templates]
               for i in range(size.tenants)}
    streams = {}
    for i, name in enumerate(sorted(tenants)):
        rng = random.Random(seed * 1000 + 900 + i)
        streams[name] = mutation_stream(tree_from_dict(tenants[name]), rng,
                                        size.max_rounds * size.batch)
    return {"tenants": tenants, "streams": streams, "batch": size.batch}


def mutation_stream(tree: Tree, rng: random.Random, count: int) -> List[list]:
    """*count* leaf mutations, valid in order on *tree*.

    Each mutation's kind is drawn from :data:`~metrics.KINDS` with equal
    probability: half of a stream is structural (``prune``, ``graft``) and
    half re-weights a leaf (``set_w``, ``set_c``), so both of the solver's
    cache paths carry measured work.  The repository holds no operator
    trace to weight the kinds by.

    ``set_w`` and ``set_c`` re-weight a leaf, ``prune`` removes one and
    ``graft`` rejoins a pruned leaf with its old weight and link cost
    (under a parent that is present again).  A ``graft`` drawn while no
    pruned leaf can rejoin becomes a ``prune``, so the structural half
    stays whole; the measured share of each kind is a per-layer metric.
    """
    leaves = [n for n in tree.nodes() if n != tree.root and tree.is_leaf(n)]
    pruned: List[tuple] = []  # (name, parent, c, w)
    ops: List[list] = []
    while len(ops) < count:
        kind = rng.choice(KINDS)
        rejoinable = [p for p in pruned if p[1] in tree]
        if kind == "graft" and not rejoinable:
            kind = "prune"
        if kind == "prune" and len(leaves) < 2:
            kind = "set_w"
        if kind == "prune":
            leaf = leaves.pop(rng.randrange(len(leaves)))
            parent = tree.parent(leaf)
            pruned.append((leaf, parent, tree.c(leaf), tree.w(leaf)))
            tree.remove_subtree(leaf)
            if parent != tree.root and tree.is_leaf(parent):
                leaves.append(parent)
            ops.append(["prune", leaf])
        elif kind == "graft":
            entry = rejoinable[rng.randrange(len(rejoinable))]
            pruned.remove(entry)
            leaf, parent, c, w = entry
            if parent in leaves:
                leaves.remove(parent)
            tree.add_subtree(parent, c, Tree(leaf, w))
            leaves.append(leaf)
            ops.append(["graft", parent, str(c),
                        tree_to_dict(Tree(leaf, w))])
        elif kind == "set_w":
            leaf = leaves[rng.randrange(len(leaves))]
            w = rng.choice(WEIGHTS)
            tree.set_w(leaf, w)
            ops.append(["set_w", leaf, str(w)])
        else:
            leaf = leaves[rng.randrange(len(leaves))]
            c = rng.choice(COSTS)
            tree.set_c(leaf, c)
            ops.append(["set_c", leaf, str(c)])
    return ops


def make_inputs(workload: str, seed: int, size: Size) -> Dict:
    if workload == "plan":
        return plan_inputs(seed, size)
    return tenant_inputs(seed, size)


def digest(inputs: Dict) -> str:
    """A hash of the canonical JSON bytes of *inputs*."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
