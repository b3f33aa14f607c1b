"""The event-driven schedule of Section 6.2.

A non-root node needs **no clock**: it handles the stream of tasks arriving
from its parent in *bunches* of ``Ψ = Σ ψ_i`` tasks.  Within a bunch,
``ψ_0`` tasks are kept for local computation and ``ψ_i`` are forwarded to
child ``i``, in the order fixed by a local-schedule policy
(:mod:`repro.schedule.local`).  The j-th task a node ever receives is thus
deterministically routed by ``order[j mod Ψ]``.

The root is the only clocked node; it *generates* tasks instead of receiving
them, in its own interleaved order over its consumption period (the paper
notes the root uses its ``φ`` quantities; we use the equivalent ``ψ`` over
``T^w = lcm(T^c, T^s)``, which for the root differs from ``T^s`` only by
repetition).

:func:`build_schedules` turns an :class:`~repro.core.allocation.Allocation`
into one :class:`NodeSchedule` per active node — the complete, compact
description of the steady-state schedule (Figure 4(d)).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..core.allocation import Allocation
from ..exceptions import ScheduleError
from .local import interleaved_order
from .periods import MAX_BUNCH, NodePeriods, tree_periods


@dataclass(frozen=True)
class NodeSchedule:
    """The compact event-driven schedule of one node.

    ``order`` lists the destination of each task of a bunch: the node's own
    name means "compute locally", anything else is a child to forward to.
    ``quantities`` maps each destination to its ψ; ``bunch == len(order)``.
    """

    node: Hashable
    quantities: Mapping[Hashable, int]
    order: Tuple[Hashable, ...]
    periods: NodePeriods

    @property
    def bunch(self) -> int:
        return len(self.order)

    def destination(self, task_index: int) -> Hashable:
        """Destination of the *task_index*-th task ever received (0-based)."""
        order = self.order
        if not order:
            raise ScheduleError(f"node {self.node!r} has an empty schedule")
        return order[task_index % len(order)]

    def describe(self) -> str:
        """One-line rendering, e.g. ``P1: [P4 P1 P4 P1 P4]`` (Figure 4d)."""
        inner = " ".join(str(d) for d in self.order)
        return f"{self.node}: [{inner}]"


#: Signature of a local-schedule policy.
Policy = Callable[[Mapping[Hashable, int], Sequence[Hashable]], Tuple[Hashable, ...]]


def node_schedule(tree, node: Hashable, p: NodePeriods,
                  policy: Policy = interleaved_order) -> Optional[NodeSchedule]:
    """The event-driven schedule of one node, or ``None`` when inactive.

    The per-node half of :func:`build_schedules`, shared with the
    incremental builder (:mod:`repro.schedule.incremental`): everything it
    reads — ψ quantities, children in bandwidth order — is local to *node*,
    which is what makes per-subtree schedule fragments cacheable.
    """
    quantities: Dict[Hashable, int] = {}
    priority: List[Hashable] = []
    # "self" enters the priority list only when it computes tasks; a
    # switch (ψ_0 = 0) must not appear in the order.
    if p.psi_self > 0:
        quantities[node] = p.psi_self
        priority.append(node)
    for child in tree.children_by_bandwidth(node):
        count = p.psi_children.get(child, 0)
        if count > 0:
            quantities[child] = count
            priority.append(child)
    if not quantities:
        return None  # inactive node
    # The paper prioritises the node itself with the smallest index; we
    # list self first, then children in bandwidth-centric order.
    if node in quantities and priority[0] != node:
        priority.remove(node)
        priority.insert(0, node)
    bunch = sum(quantities.values())
    if bunch > MAX_BUNCH:
        raise ScheduleError(
            f"node {node!r} has a bunch of Ψ = {bunch} tasks, over the "
            f"{MAX_BUNCH} cap: its rates are pathological and the bunch "
            "order cannot be materialised"
        )
    order = policy(quantities, priority)
    if len(order) != bunch:
        raise ScheduleError(
            f"policy returned {len(order)} tasks for a bunch of "
            f"{bunch} at node {node!r}"
        )
    counts = Counter(order)
    if counts != dict(quantities):
        raise ScheduleError(
            f"policy's order does not respect the ψ quantities at {node!r}: "
            f"{counts} != {dict(quantities)}"
        )
    return NodeSchedule(
        node=node, quantities=quantities, order=order, periods=p
    )


def build_schedules(
    allocation: Allocation,
    policy: Policy = interleaved_order,
    periods: Optional[Dict[Hashable, NodePeriods]] = None,
) -> Dict[Hashable, NodeSchedule]:
    """Build the event-driven schedule of every *active* node.

    Nodes with no activity (never visited by BW-First, or visited with zero
    allocation) are omitted — they take no part in the computation.  The
    *policy* orders each bunch; the default is the paper's interleaving.
    """
    if periods is None:
        periods = tree_periods(allocation)
    tree = allocation.tree
    schedules: Dict[Hashable, NodeSchedule] = {}
    for node in tree.nodes():
        schedule = node_schedule(tree, node, periods[node], policy)
        if schedule is not None:
            schedules[node] = schedule
    return schedules


def describe_schedules(schedules: Mapping[Hashable, NodeSchedule]) -> str:
    """Multi-line compact description of all local schedules (Figure 4d)."""
    return "\n".join(s.describe() for s in schedules.values())
