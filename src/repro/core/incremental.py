"""Incremental BW-First: subtree solution caching + dirty re-negotiation.

The re-negotiation paths (crash recovery, online drift, dynamic adaptation)
re-run :func:`~repro.core.bwfirst.bw_first` on the *whole* tree after every
platform change, although a mutation only perturbs the root-to-change path:
every clean sibling subtree would answer the very same proposal with the
very same acknowledgment.  :class:`IncrementalSolver` exploits that.

The key observation is that BW-First's outcome for a subtree is a pure
function of two inputs only: the subtree itself (its topology and exact
``w``/``c`` rationals — *not* its incoming edge, whose cost enters the
parent's decision, not the child's) and the proposal ``β`` it receives.
The solver therefore keys a cache by a **structural fingerprint** — a
hash-consed integer id interned over the nested key
``(w, ((c_child, fp_child), …))`` with children in bandwidth order — plus
the proposal.  Fingerprints are exact: two subtrees share an id iff their
keys compare equal as rationals, so collisions are impossible, and a
mutation *invalidates nothing* — it merely re-fingerprints the dirty
root-to-change path (old entries stay valid for the structures they
describe, which is what makes rejoin churn nearly free).

Three regimes answer from cache without running Algorithm 1's loop:

* **absorption** — ``β ≤ r``: the node keeps everything (``α = β``,
  ``θ = 0``, no transactions).  O(1), closed form, never a miss.
* **saturation** — when every child decision of a solve was port-limited
  (``δ ≥ τ·b`` at each open) and the loop ended by exhausting children or
  send-port time, the internal solution is *constant in λ* above the
  threshold ``S = r + max_k(consumed_before_k + τ_k·b_k)`` and
  ``θ(λ) = λ − C`` with ``C`` the consumed capacity.  One cached solve
  answers every larger proposal.
* **exact** — otherwise, solutions are memoized per exact ``β``.

On a hit the solver *replays* the cached solution — copying node outcomes
and renumbering transactions in global open order — so the produced
:class:`~repro.core.bwfirst.BWFirstResult` is **identical** (outcome by
outcome, transaction by transaction, including the Figure 4(b) indices) to
a fresh ``bw_first`` run, as the property tests assert.  Replay is pure
bookkeeping; only cache *misses* run rational arithmetic, so the solver's
cost after a mutation is proportional to the dirty path, not the tree.

``node_evals`` (``solver.last_evals``) counts exactly those misses — the
benchmark currency of ``benchmarks/bench_e26_incremental.py`` and the
``perf-smoke`` CI gate.  Cache traffic is mirrored as ``incr.*`` counters
into an optional telemetry registry.  See ``docs/perf.md`` for the design
notes and the recorded baselines.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import islice
from typing import Dict, Hashable, List, Optional, Tuple, Union

from ..exceptions import PlatformError, ScheduleError
from ..platform.tree import Tree
from .bwfirst import BWFirstResult, NodeOutcome, Transaction, bw_first, root_proposal
from .rates import ONE, ZERO

#: exact-β memo entries kept per fingerprint before the map is reset — a
#: memory bound for adversarial churn; saturation/absorption hits (the
#: common case) are unaffected by the cap.  Overridable per solver with
#: ``IncrementalSolver(memo_cap=)`` or process-wide with the
#: ``REPRO_MEMO_CAP`` environment variable.
MAX_EXACT_PER_ENTRY = 64

#: Environment override for the default per-fingerprint exact-β memo cap.
MEMO_CAP_ENV = "REPRO_MEMO_CAP"


def _default_memo_cap() -> int:
    raw = os.environ.get(MEMO_CAP_ENV)
    if raw is None or not raw.strip():
        return MAX_EXACT_PER_ENTRY
    try:
        cap = int(raw)
    except ValueError:
        raise ScheduleError(
            f"{MEMO_CAP_ENV}={raw!r} is not an integer memo cap") from None
    if cap < 1:
        raise ScheduleError(f"{MEMO_CAP_ENV}={raw!r} must be >= 1")
    return cap


class _Sol:
    """One cached subtree solution: the full recursive outcome at one λ.

    ``txns`` holds ``(β, θ, child_sol)`` per opened child, in bandwidth
    order (BW-First opens children consecutively from the front of that
    order, so ``txns[i]`` always belongs to the i-th child).  ``evals`` is
    the number of node evaluations a fresh solve of this subtree performed
    — what a cache hit saves.
    """

    __slots__ = ("lam", "alpha", "theta", "tau", "txns", "evals")

    def __init__(self, lam, alpha, theta, tau, txns, evals):
        self.lam = lam
        self.alpha = alpha
        self.theta = theta
        self.tau = tau
        self.txns = txns
        self.evals = evals


class _Entry:
    """Cache line of one fingerprint: a saturated solution + exact-β memos."""

    __slots__ = ("sat", "sat_threshold", "exact")

    def __init__(self):
        self.sat: Optional[_Sol] = None
        self.sat_threshold: Optional[Fraction] = None
        self.exact: Dict[Fraction, _Sol] = {}

    def copy(self, cap: int) -> "_Entry":
        """A detached copy sharing the immutable :class:`_Sol` objects."""
        dup = _Entry()
        dup.sat = self.sat
        dup.sat_threshold = self.sat_threshold
        dup.exact = dict(islice(self.exact.items(), cap))
        return dup


class _IFrame:
    """One activation of Algorithm 1 inside the incremental solve."""

    __slots__ = ("node", "lam", "alpha", "delta", "tau", "kids", "next_i",
                 "pending", "collected", "saturated", "max_need")

    def __init__(self, node, lam, rate, kids):
        self.node = node
        self.lam = lam
        self.alpha = min(rate, lam)
        self.delta = lam - self.alpha
        self.tau = ONE
        self.kids = kids
        self.next_i = 0
        self.pending = None  # (log index, child, c, β) of the open txn
        self.collected: List[Tuple[Transaction, _Sol]] = []
        self.saturated = True
        self.max_need = ZERO  # max over opens of consumed_before + τ·b


class IncrementalSolver:
    """BW-First with per-subtree solution caching across mutations.

    The solver owns a private copy of *tree*; mutate it through
    :meth:`prune` / :meth:`graft` / :meth:`set_w` / :meth:`set_c` /
    :meth:`apply_platform` and call :meth:`solve` after each change.  Every
    ``solve`` returns a :class:`~repro.core.bwfirst.BWFirstResult` that is
    exactly equal to ``bw_first`` on the current tree (same outcomes, same
    transaction log and indices, same rational throughput).

    *telemetry* mirrors cache traffic as ``incr.*`` counters; the same
    tallies are always available in :attr:`stats` and :meth:`cache_info`.

    *memo_cap* bounds the exact-β memo map per fingerprint (defaults to the
    ``REPRO_MEMO_CAP`` environment variable, then
    :data:`MAX_EXACT_PER_ENTRY`).

    *like* is the template fast path: when the supplied *tree* compares
    equal to another solver's working tree, fingerprints and memo entries are inherited instead of recomputed from scratch — the
    federation onboarding path for tenants cloned from a template (see
    :meth:`clone`).  A *like* solver with a different tree falls back to a
    full fingerprint pass.
    """

    def __init__(self, tree: Tree, telemetry=None, memo_cap: Optional[int] = None,
                 like: Optional["IncrementalSolver"] = None):
        self._tree = tree.copy()
        self._telemetry = telemetry
        if memo_cap is None:
            memo_cap = _default_memo_cap()
        elif memo_cap < 1:
            raise ScheduleError(f"memo_cap must be >= 1 (got {memo_cap})")
        self._memo_cap = memo_cap
        self._snapshot: Optional[Tree] = None  # result-tree copy, lazily built
        self._cache: Dict[int, _Entry] = {}
        self.last_evals = 0  # misses of the most recent solve()
        self.stats: Dict[str, int] = {
            "solves": 0, "evals": 0, "evals_saved": 0,
            "hits_absorbed": 0, "hits_saturated": 0, "hits_exact": 0,
            "misses": 0, "invalidations": 0, "evictions": 0, "lookups": 0,
        }
        self._builder = None  # lazily-built IncrementalScheduleBuilder
        self._eviction_warned = False
        if like is not None and like._tree == self._tree:
            self._intern = dict(like._intern)
            self._fp = dict(like._fp)
            self._kids_cache = dict(like._kids_cache)
            self._rate_cache = dict(like._rate_cache)
            self._cache = {fp: entry.copy(self._memo_cap)
                           for fp, entry in like._cache.items()}
        else:
            self._intern: Dict[tuple, int] = {}
            self._fp: Dict[Hashable, int] = {}
            self._kids_cache: Dict[Hashable, Tuple[Hashable, ...]] = {}
            self._rate_cache: Dict[Hashable, Fraction] = {}
            self._fingerprint_all()

    def clone(self, telemetry=None,
              memo_cap: Optional[int] = None) -> "IncrementalSolver":
        """A detached solver over an equal tree, reusing this solver's
        fingerprints and memo entries (solutions are immutable, so
        sharing the objects is safe; the caches themselves are copied, so
        the clone's mutations never disturb this solver).

        This is the federation onboarding fast path: cloning a warmed
        template solver for a new tenant skips both the full fingerprint
        pass and every solve the template already answered.
        """
        return IncrementalSolver(
            self._tree, telemetry=telemetry,
            memo_cap=self._memo_cap if memo_cap is None else memo_cap,
            like=self,
        )

    # ------------------------------------------------------------------
    # fingerprints
    # ------------------------------------------------------------------
    def _kids(self, node: Hashable) -> Tuple[Hashable, ...]:
        kids = self._kids_cache.get(node)
        if kids is None:
            kids = tuple(self._tree.children_by_bandwidth(node))
            self._kids_cache[node] = kids
        return kids

    def _rate(self, node: Hashable) -> Fraction:
        rate = self._rate_cache.get(node)
        if rate is None:
            rate = self._rate_cache[node] = self._tree.rate(node)
        return rate

    def _compute_fp(self, node: Hashable) -> int:
        tree = self._tree
        key = (tree.w(node),
               tuple((tree.c(child), self._fp[child])
                     for child in self._kids(node)))
        fp = self._intern.get(key)
        if fp is None:
            fp = len(self._intern)
            self._intern[key] = fp
        self._fp[node] = fp
        return fp

    def _fingerprint_all(self) -> None:
        for node in reversed(list(self._tree.nodes())):  # children first
            self._compute_fp(node)

    def _refingerprint_path(self, nodes) -> None:
        """Recompute fingerprints along a root-ward dirty path, nearest first."""
        count = 0
        for node in nodes:
            old = self._fp.get(node)
            if self._compute_fp(node) != old:
                count += 1
        self.stats["invalidations"] += count
        self._count("incr.invalidations", count)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _touch(self) -> None:
        self._snapshot = None

    def prune(self, *names: Hashable) -> List[Hashable]:
        """Remove each named node's whole subtree (crash semantics).

        Names swallowed by an earlier removal in the same call are skipped,
        matching :meth:`~repro.platform.tree.Tree.without_subtrees`.
        Returns all removed nodes.
        """
        tree = self._tree
        for name in names:
            if name == tree.root:
                raise PlatformError("cannot remove the root's subtree")
            if name not in tree:
                raise PlatformError(f"unknown node {name!r}")
        removed: List[Hashable] = []
        for name in names:
            if name not in tree:  # inside an already-removed subtree
                continue
            parent = tree.parent(name)
            path = [parent] + tree.ancestors(parent) if parent is not None else []
            gone = tree.remove_subtree(name)
            removed.extend(gone)
            for node in gone:
                self._fp.pop(node, None)
                self._kids_cache.pop(node, None)
                self._rate_cache.pop(node, None)
            self._kids_cache.pop(parent, None)
            self._refingerprint_path(path)
        self._touch()
        return removed

    def graft(self, parent: Hashable, c, subtree: Tree) -> None:
        """Graft *subtree* under *parent* through an edge of cost *c*."""
        tree = self._tree
        tree.add_subtree(parent, c, subtree)
        for node in reversed(tree.descendants(subtree.root)):
            self._compute_fp(node)
        self._kids_cache.pop(parent, None)
        self._refingerprint_path([parent] + tree.ancestors(parent))
        self._touch()

    def failover(self, new_root: Hashable) -> Hashable:
        """Re-root under *new_root* after the master died; return the old
        root.

        Mirrors :meth:`~repro.platform.tree.Tree.failover_root`.  Every
        former sibling of *new_root* keeps its subtree fingerprint — only
        the node that gained children needs recomputing, so the whole
        surviving platform below the new root is solved from cache.
        """
        tree = self._tree
        old = tree.root
        tree.failover_root(new_root)
        self._fp.pop(old, None)
        self._kids_cache.pop(old, None)
        self._rate_cache.pop(old, None)
        self._kids_cache.pop(new_root, None)
        self._refingerprint_path([new_root])
        self._touch()
        return old

    def set_w(self, name: Hashable, w) -> None:
        """Change a node's processing weight."""
        tree = self._tree
        tree.set_w(name, w)
        self._rate_cache.pop(name, None)
        self._refingerprint_path([name] + tree.ancestors(name))
        self._touch()

    def set_c(self, name: Hashable, c) -> None:
        """Change the communication cost of the edge into *name*.

        The incoming edge enters the *parent's* fingerprint (it is the
        parent's decision input), so only the ancestors are dirty.
        """
        tree = self._tree
        tree.set_c(name, c)
        parent = tree.parent(name)
        self._kids_cache.pop(parent, None)
        self._refingerprint_path([parent] + tree.ancestors(parent))
        self._touch()

    def apply_platform(self, actual: Tree) -> int:
        """Diff the internal tree against *actual* (same topology) and apply
        every ``w``/``c`` change.  Returns the number of changes applied."""
        tree = self._tree
        if set(tree.nodes()) != set(actual.nodes()):
            raise PlatformError("apply_platform needs an identical topology")
        for node in actual.nodes():
            if actual.parent(node) != tree.parent(node):
                raise PlatformError("apply_platform needs an identical topology")
        changes = 0
        for node in actual.nodes():
            if actual.w(node) != tree.w(node):
                self.set_w(node, actual.w(node))
                changes += 1
            if actual.parent(node) is not None and actual.c(node) != tree.c(node):
                self.set_c(node, actual.c(node))
                changes += 1
        return changes

    # ------------------------------------------------------------------
    # cache plumbing
    # ------------------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if amount and self._telemetry is not None:
            self._telemetry.counter(name).inc(amount)

    def _lookup(self, node: Hashable, beta: Fraction):
        """A cached answer for (*node*, *beta*), or ``None`` on a miss.

        Returns ``(sol, θ)``: the solution to replay and the acknowledgment
        the parent should close with (for a saturated hit θ is shifted to
        the offered λ; the replayed internals are identical by the
        saturation property).
        """
        self.stats["lookups"] += 1
        rate = self._rate(node)
        if beta <= rate:
            self.stats["hits_absorbed"] += 1
            self.stats["evals_saved"] += 1
            self._count("incr.hit.absorbed")
            return _Sol(beta, beta, ZERO, ONE, (), 1), ZERO
        entry = self._cache.get(self._fp[node])
        if entry is not None:
            sat = entry.sat
            if sat is not None and beta >= entry.sat_threshold:
                self.stats["hits_saturated"] += 1
                self.stats["evals_saved"] += sat.evals
                self._count("incr.hit.saturated")
                return sat, beta - (sat.lam - sat.theta)
            sol = entry.exact.get(beta)
            if sol is not None:
                self.stats["hits_exact"] += 1
                self.stats["evals_saved"] += sol.evals
                self._count("incr.hit.exact")
                return sol, sol.theta
        self.stats["misses"] += 1
        self._count("incr.miss")
        return None

    def _store(self, frame: _IFrame, sol: _Sol) -> None:
        fp = self._fp[frame.node]
        entry = self._cache.get(fp)
        if entry is None:
            entry = self._cache[fp] = _Entry()
        exhausted = frame.next_i >= len(frame.kids)
        if frame.saturated and (frame.tau <= 0 or exhausted):
            # every child decision was port-limited and the loop did not end
            # early on δ→0 with children left: above S = r + max_need the
            # internals are constant and θ(λ) = λ − C
            entry.sat = sol
            entry.sat_threshold = self._rate(frame.node) + frame.max_need
        else:
            if len(entry.exact) >= self._memo_cap:
                entry.exact.clear()
                self.stats["evictions"] += 1
                self._count("incr.evictions")
                self._count("incr.memo_evictions")
                # a cache that evicts on most lookups is churning, not
                # caching — surface it once so the run can be re-tuned
                if (not self._eviction_warned and self._telemetry is not None
                        and 2 * self.stats["evictions"] > self.stats["lookups"]):
                    self._eviction_warned = True
                    self._telemetry.warn(
                        "incr: per-β memo eviction rate exceeds 50% of "
                        f"lookups ({self.stats['evictions']} evictions / "
                        f"{self.stats['lookups']} lookups) — proposal "
                        "diversity is defeating the exact-hit cache"
                    )
            entry.exact[frame.lam] = sol

    # ------------------------------------------------------------------
    # replay (cache hit → outcomes + renumbered transactions, no arithmetic)
    # ------------------------------------------------------------------
    def _emit(self, node: Hashable, sol: _Sol, lam: Fraction, theta: Fraction,
              outcomes: Dict, log: List) -> None:
        stack = [[node, sol, lam, theta, 0, []]]
        while stack:
            top = stack[-1]
            cur, cur_sol, cur_lam, cur_theta, i, collected = top
            if i < len(cur_sol.txns):
                top[4] = i + 1
                beta, th, child_sol = cur_sol.txns[i]
                child = self._kids(cur)[i]
                txn = Transaction(index=len(log), parent=cur, child=child,
                                  proposal=beta, ack=th)
                log.append(txn)
                collected.append(txn)
                stack.append([child, child_sol, beta, th, 0, []])
            else:
                outcomes[cur] = NodeOutcome(
                    node=cur, lam=cur_lam, alpha=cur_sol.alpha,
                    theta=cur_theta, tau=cur_sol.tau,
                    transactions=tuple(collected),
                )
                stack.pop()

    # ------------------------------------------------------------------
    # solve
    # ------------------------------------------------------------------
    @property
    def tree(self) -> Tree:
        """The solver's working platform (treat as read-only; mutate through
        the solver so fingerprints stay consistent)."""
        return self._tree

    def _result_tree(self) -> Tree:
        if self._snapshot is None:
            self._snapshot = self._tree.copy()
        return self._snapshot

    def fingerprint(self, node: Hashable) -> int:
        """The hash-consed fingerprint of *node*'s current subtree.

        Two nodes (across any sequence of mutations of this solver) share a
        fingerprint iff their subtrees have identical shape, weights and
        edge costs — the invariant the schedule-fragment cache keys on.
        """
        return self._fp[node]

    def schedule_builder(self):
        """The fragment-caching schedule builder attached to this solver.

        Lazily constructed and cached so its fragment memo stays warm
        across mutations; see
        :class:`~repro.schedule.incremental.IncrementalScheduleBuilder`.
        """
        if self._builder is None:
            from ..schedule.incremental import IncrementalScheduleBuilder
            self._builder = IncrementalScheduleBuilder(self)
        return self._builder

    def solve(self, proposal: Optional[Fraction] = None) -> BWFirstResult:
        """Run BW-First on the current tree, answering from cache wherever a
        clean subtree allows; exactly equal to ``bw_first`` on this tree."""
        tree = self._tree
        lam_root = root_proposal(tree) if proposal is None else proposal
        if lam_root < 0:
            raise ScheduleError(
                f"root proposal must be non-negative (got {lam_root})")

        self.stats["solves"] += 1
        outcomes: Dict[Hashable, NodeOutcome] = {}
        log: List[Transaction] = []
        evals = 0

        hit = self._lookup(tree.root, lam_root)
        if hit is not None:
            sol, theta_root = hit
            self._emit(tree.root, sol, lam_root, theta_root, outcomes, log)
            self.last_evals = 0
            return BWFirstResult(
                tree=self._result_tree(), t_max=lam_root,
                throughput=lam_root - theta_root,
                outcomes=outcomes, transactions=tuple(log),
            )

        edge_cost = tree.edge_cost
        stack = [_IFrame(tree.root, lam_root, self._rate(tree.root),
                         self._kids(tree.root))]
        evals += 1
        returned: Optional[Tuple[Fraction, _Sol]] = None

        while stack:
            frame = stack[-1]

            if frame.pending is not None:
                index, child, c, beta = frame.pending
                frame.pending = None
                theta, child_sol = returned
                returned = None
                txn = Transaction(index=index, parent=frame.node, child=child,
                                  proposal=beta, ack=theta)
                log[index] = txn
                frame.collected.append((txn, child_sol))
                accepted = beta - theta
                frame.delta -= accepted
                frame.tau -= accepted * c

            opened = False
            while frame.delta > 0 and frame.tau > 0 and frame.next_i < len(frame.kids):
                child = frame.kids[frame.next_i]
                frame.next_i += 1
                c = edge_cost(frame.node, child)
                cap = frame.tau / c
                if frame.delta < cap:
                    frame.saturated = False
                    beta = frame.delta
                else:
                    beta = cap
                need = (frame.lam - frame.alpha - frame.delta) + cap
                if need > frame.max_need:
                    frame.max_need = need
                index = len(log)
                log.append(None)  # placeholder, filled when the txn closes
                hit = self._lookup(child, beta)
                if hit is None:
                    frame.pending = (index, child, c, beta)
                    stack.append(_IFrame(child, beta, self._rate(child),
                                         self._kids(child)))
                    evals += 1
                    opened = True
                    break
                sol, theta = hit
                self._emit(child, sol, beta, theta, outcomes, log)
                txn = Transaction(index=index, parent=frame.node, child=child,
                                  proposal=beta, ack=theta)
                log[index] = txn
                frame.collected.append((txn, sol))
                accepted = beta - theta
                frame.delta -= accepted
                frame.tau -= accepted * c
            if opened:
                continue

            # node done: record outcome, cache the solution, ack the parent
            txns = tuple(t for t, _ in frame.collected)
            outcomes[frame.node] = NodeOutcome(
                node=frame.node, lam=frame.lam, alpha=frame.alpha,
                theta=frame.delta, tau=frame.tau, transactions=txns,
            )
            sol = _Sol(
                frame.lam, frame.alpha, frame.delta, frame.tau,
                tuple((t.proposal, t.ack, s) for t, s in frame.collected),
                1 + sum(s.evals for _, s in frame.collected),
            )
            self._store(frame, sol)
            returned = (frame.delta, sol)
            stack.pop()

        theta_root, _ = returned
        self.last_evals = evals
        self.stats["evals"] += evals
        self._count("incr.evals", evals)
        return BWFirstResult(
            tree=self._result_tree(), t_max=lam_root,
            throughput=lam_root - theta_root,
            outcomes=outcomes, transactions=tuple(log),
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, int]:
        """A snapshot of cache size and traffic (see also :attr:`stats`)."""
        info = dict(self.stats)
        info["fingerprints"] = len(self._intern)
        info["entries"] = len(self._cache)
        info["exact_memos"] = sum(len(e.exact) for e in self._cache.values())
        info["saturated_memos"] = sum(
            1 for e in self._cache.values() if e.sat is not None)
        info["memo_cap"] = self._memo_cap
        # always 0 (no cross-process store exists); kept only because the
        # perfbench churn workload reads this key
        info["hits_shared"] = 0
        return info

    def clear_cache(self) -> None:
        """Drop every memoized solution (fingerprints are kept)."""
        self._cache.clear()


def resolve_solver(
    solver: Union[None, str, IncrementalSolver],
    tree: Tree,
    telemetry=None,
) -> Optional[IncrementalSolver]:
    """Normalise a ``solver=`` argument of the re-negotiation entry points.

    ``None`` or ``"incremental"`` build a fresh :class:`IncrementalSolver`
    on *tree*; ``"full"`` returns ``None`` (callers then run plain
    :func:`~repro.core.bwfirst.bw_first`); an existing solver instance is
    used as-is — its working tree must equal *tree*, so a caller-managed
    cache survives across calls.
    """
    if solver is None or solver == "incremental":
        return IncrementalSolver(tree, telemetry=telemetry)
    if solver == "full":
        return None
    if isinstance(solver, IncrementalSolver):
        if solver.tree != tree:
            raise ScheduleError(
                "the supplied IncrementalSolver's tree differs from the "
                "platform being solved")
        return solver
    raise ScheduleError(f"unknown solver {solver!r} "
                        "(expected 'incremental', 'full', or an IncrementalSolver)")
