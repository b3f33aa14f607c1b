"""Tests for the multi-tenant federation layer.

The load-bearing contract is *exactness without sharing*: every tenant's
served solution equals a fresh ``bw_first`` bit for bit, and because
shards share nothing across processes their eval counts repeat exactly.
The shared-subtree property pins the reason per-tenant caches suffice: a
clean subtree answers the same proposal the same way in any tenant.  On
top of that: the consistent-hash ring, the framed wire codec, the
memo-cap knobs, the clone fast path, request batching, and crash
recovery of a shard worker killed mid-batch.
"""

import json
import multiprocessing
import random
from fractions import Fraction

import pytest

from repro.core.bwfirst import bw_first
from repro.core.incremental import IncrementalSolver, MEMO_CAP_ENV
from repro.exceptions import CodecError, PlatformError, ScheduleError
from repro.federation import FederationService, HashRing, matches_reference
from repro.federation.wire import decode_blob
from repro.platform.generators import random_tree, smooth_tree
from repro.platform.tree import Tree
from repro.runtime.codec import encode_blob

F = Fraction


# ----------------------------------------------------------------------
# the shared-subtree construction
# ----------------------------------------------------------------------
# BW-First seeds the root with t_max = r_root + max{b_i} and proposes
# β = min(δ, τ·b) to the first-opened child, where δ = t_max − r_root =
# max{b_i} and τ = 1.  If the shared subtree is attached with strictly
# the smallest c (highest bandwidth) among the root's children, the β it
# receives is exactly its own bandwidth 1/c — *independent of the rest of
# the tree*.  Attaching the same subtree with the same c to two different
# roots therefore guarantees identical (subtree, β) pairs at every node
# of the shared subtree, so by §5 Prop. 2 both tenants must settle it the
# same way — the property that lets each tenant's solver cache stand
# alone, with nothing shared across tenants.

SHARED_C = F(1, 50)  # bandwidth 50 — far above any tail edge


def _tenant_tree(root_w, shared, tail, tail_c) -> Tree:
    tree = Tree("root", w=root_w)
    tree.add_subtree("root", SHARED_C, shared)
    tree.add_subtree("root", tail_c, tail)
    return tree


def _shared_pair(seed: int):
    """Two distinct tenant trees embedding one identical random subtree."""
    shared = random_tree(12, seed=seed, w_numerator_range=(2, 30),
                         c_numerator_range=(1, 5))
    shared = shared.relabel({n: f"s{n}" for n in shared.nodes()})
    tail_a = random_tree(8, seed=seed + 1000).relabel(
        {n: f"a{n}" for n in random_tree(8, seed=seed + 1000).nodes()})
    tail_b = random_tree(9, seed=seed + 2000).relabel(
        {n: f"b{n}" for n in random_tree(9, seed=seed + 2000).nodes()})
    tree_a = _tenant_tree(F(3), shared.copy(), tail_a, F(2))
    tree_b = _tenant_tree(F(5), shared.copy(), tail_b, F(3))
    return tree_a, tree_b


def assert_exact(solver, tree):
    ref = bw_first(tree)
    got = solver.solve()
    assert got.throughput == ref.throughput
    assert got.outcomes == ref.outcomes
    assert got.transactions == ref.transactions


class TestSharedSubtreeProperty:
    @pytest.mark.parametrize("seed", range(10))
    def test_cross_tenant_replay_is_bit_exact(self, seed):
        """Tenant A's solution of the shared subtree, replayed in tenant
        B, would be bit-exact: both solvers settle it identically."""
        tree_a, tree_b = _shared_pair(seed)
        solver_a, solver_b = IncrementalSolver(tree_a), IncrementalSolver(tree_b)
        assert_exact(solver_a, tree_a)
        assert_exact(solver_b, tree_b)
        settled = [
            {n: o for n, o in solver.solve().outcomes.items()
             if str(n).startswith("s")}
            for solver in (solver_a, solver_b)
        ]
        assert settled[0] and settled[0] == settled[1]


# ----------------------------------------------------------------------
# consistent-hash ring
# ----------------------------------------------------------------------
class TestHashRing:
    def test_deterministic_and_stable(self):
        ring = HashRing(["s0", "s1", "s2"])
        tenants = [f"t{i:03d}" for i in range(64)]
        first = ring.assignments(tenants)
        assert first == HashRing(["s0", "s1", "s2"]).assignments(tenants)
        assert set(first) == {"s0", "s1", "s2"}
        assert sorted(t for group in first.values() for t in group) == tenants

    def test_shard_removal_moves_only_its_tenants(self):
        tenants = [f"t{i:03d}" for i in range(64)]
        before = HashRing(["s0", "s1", "s2"])
        after = HashRing(["s0", "s1"])
        for tenant in tenants:
            if before.shard_for(tenant) != "s2":
                assert after.shard_for(tenant) == before.shard_for(tenant)

    def test_bad_ring_rejected(self):
        with pytest.raises(PlatformError):
            HashRing([])
        with pytest.raises(PlatformError):
            HashRing(["s0", "s0"])


# ----------------------------------------------------------------------
# wire framing
# ----------------------------------------------------------------------
class TestWire:
    def test_round_trip(self):
        payload = json.dumps({"t": "batch", "reqs": list(range(100))})
        body = payload.encode()
        assert decode_blob(encode_blob(body)) == body

    def test_corruption_detected(self):
        blob = bytearray(encode_blob(b'{"t":"ok"}'))
        blob[-1] ^= 0xFF
        with pytest.raises(CodecError):
            decode_blob(bytes(blob))

    def test_truncation_detected(self):
        blob = encode_blob(b'{"t":"ok"}')
        with pytest.raises(CodecError):
            decode_blob(blob[:-3])
        with pytest.raises(CodecError):
            decode_blob(blob[:4])

    def test_oversize_rejected(self):
        blob = encode_blob(b"x" * 100)
        with pytest.raises(CodecError):
            decode_blob(blob, max_frame=16)


# ----------------------------------------------------------------------
# memo cap knobs
# ----------------------------------------------------------------------
class TestMemoCap:
    def test_constructor_cap_bounds_exact_memos(self):
        tree = smooth_tree(30, seed=1)
        solver = IncrementalSolver(tree, memo_cap=1)
        for beta in (F(9), F(10), F(11)):
            solver.solve(proposal=beta)
        info = solver.cache_info()
        assert info["memo_cap"] == 1
        assert all(len(e.exact) <= 1 for e in solver._cache.values())

    def test_invalid_constructor_cap_rejected(self):
        with pytest.raises(ScheduleError):
            IncrementalSolver(smooth_tree(10, seed=1), memo_cap=0)

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv(MEMO_CAP_ENV, "3")
        solver = IncrementalSolver(smooth_tree(10, seed=1))
        assert solver.cache_info()["memo_cap"] == 3

    def test_bad_env_cap_rejected(self, monkeypatch):
        monkeypatch.setenv(MEMO_CAP_ENV, "lots")
        with pytest.raises(ScheduleError):
            IncrementalSolver(smooth_tree(10, seed=1))
        monkeypatch.setenv(MEMO_CAP_ENV, "0")
        with pytest.raises(ScheduleError):
            IncrementalSolver(smooth_tree(10, seed=1))


# ----------------------------------------------------------------------
# clone fast path (template onboarding)
# ----------------------------------------------------------------------
class TestCloneFastPath:
    def test_clone_replays_with_zero_evals(self):
        tree = smooth_tree(60, seed=4)
        warm = IncrementalSolver(tree)
        ref = warm.solve()
        clone = IncrementalSolver(tree.copy(), like=warm)
        got = clone.solve()
        assert clone.last_evals == 0
        assert got.outcomes == ref.outcomes

    def test_clone_method_independent_mutation(self):
        tree = smooth_tree(40, seed=5)
        warm = IncrementalSolver(tree)
        warm.solve()
        clone = warm.clone()
        clone.set_w(tree.leaves()[0], F(97))
        assert_exact(clone, clone.tree)
        assert_exact(warm, tree)  # the template is untouched

    def test_like_mismatched_tree_falls_back(self):
        warm = IncrementalSolver(smooth_tree(30, seed=6))
        warm.solve()
        other = smooth_tree(30, seed=7)
        solver = IncrementalSolver(other, like=warm)
        assert_exact(solver, other)


# ----------------------------------------------------------------------
# the federation service: batching, exactness, crash recovery
# ----------------------------------------------------------------------
class TestFederationService:
    def _trees(self, n, nodes=40, templates=2, seed=9):
        base = [smooth_tree(nodes, seed=seed + k) for k in range(templates)]
        return {f"t{i}": base[i % templates].copy() for i in range(n)}

    def _churn(self, service, trees):
        """Onboard *trees*, then three seeded rounds of one leaf-weight
        mutation per tenant and a flush; *trees* track the mutations."""
        for tenant in sorted(trees):
            service.onboard(tenant, trees[tenant])
        rng = random.Random(11)
        for _ in range(3):
            for tenant in sorted(trees):
                leaf = rng.choice(trees[tenant].leaves())
                w = rng.choice((2048, 3072, 4096))
                service.mutate(tenant, ["set_w", leaf, str(w)])
                trees[tenant].set_w(leaf, w)
            service.flush()

    def test_batch_coalesces_mutations_into_one_resolve(self):
        trees = self._trees(1)
        with FederationService(shards=1) as service:
            service.onboard("t0", trees["t0"])
            before = service.stats()["service"]["resolves"]
            leaves = trees["t0"].leaves()
            service.mutate("t0", ["set_w", leaves[0], "2048"],
                           ["set_w", leaves[1], "3072"],
                           ["set_w", leaves[0], "4096"])
            results = service.flush()
            assert len(results) == 1
            assert service.stats()["service"]["resolves"] == before + 1
            trees["t0"].set_w(leaves[0], 4096)
            trees["t0"].set_w(leaves[1], 3072)
            assert matches_reference(service.result("t0"),
                                     bw_first(trees["t0"]))

    def test_multi_tenant_exactness_under_churn(self):
        trees = self._trees(4)
        with FederationService(shards=2) as service:
            self._churn(service, trees)
            for tenant in sorted(trees):
                assert matches_reference(service.result(tenant),
                                         bw_first(trees[tenant]))

    def test_shard_crash_mid_batch_is_retried_exactly(self):
        trees = self._trees(4)
        with FederationService(shards=2) as service:
            for tenant in sorted(trees):
                service.onboard(tenant, trees[tenant])
            killed = service.chaos_kill("t0", batches=1)
            for tenant in sorted(trees):
                leaf = trees[tenant].leaves()[0]
                service.mutate(tenant, ["set_w", leaf, "6144"])
                trees[tenant].set_w(leaf, 6144)
            results = service.flush()
            assert len(results) == 4
            stats = service.stats()
            assert stats["service"]["respawns"] >= 1
            assert stats["shards"][killed].get("dead") is None
            for tenant in sorted(trees):
                assert matches_reference(service.result(tenant),
                                         bw_first(trees[tenant]))

    def test_duplicate_tenant_rejected(self):
        trees = self._trees(1)
        with FederationService(shards=1) as service:
            service.onboard("t0", trees["t0"])
            with pytest.raises(PlatformError):
                service.onboard("t0", trees["t0"])

    def test_template_onboarding_uses_clone_fast_path(self):
        trees = self._trees(4, templates=1)
        with FederationService(shards=1) as service:
            for tenant in sorted(trees):
                service.onboard(tenant, trees[tenant])
            shard_stats = service.stats()["shards"]["s0"]
            assert shard_stats["template_clones"] == 3


    def test_only_shard_processes_are_spawned(self):
        before = set(multiprocessing.active_children())
        trees = self._trees(4)
        with FederationService(shards=2) as service:
            for tenant in sorted(trees):
                service.onboard(tenant, trees[tenant])
            spawned = set(multiprocessing.active_children()) - before
            assert len(spawned) == 2
            assert all(p.name.startswith("repro-shard-") for p in spawned)

    def test_identical_churn_runs_repeat_per_shard_evals(self):
        runs = []
        for _ in range(2):
            with FederationService(shards=2) as service:
                self._churn(service, self._trees(4))
                shards = service.stats()["shards"]
            runs.append({sid: shards[sid]["evals"] for sid in shards})
        assert sorted(runs[0]) == ["s0", "s1"] and all(runs[0].values())
        assert runs[1] == runs[0]

    def test_stats_report_no_memo(self):
        with FederationService(shards=1) as service:
            service.onboard("t0", smooth_tree(20, seed=3))
            assert service.stats()["memo"] is None
