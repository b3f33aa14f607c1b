"""Asynchronous periods: Lemma 1 and equation set (3) of the paper.

Once BW-First has fixed the per-time-unit rational rates of a node —
``η_{-1} = ν/μ`` received, ``η_0 = α`` computed, ``η_i`` sent to each child —
the node can *desynchronize* its three activities (Section 6.1):

* **send period** ``T^s = lcm{μ_i | i ∈ C}``: the shortest horizon over
  which an integer number of tasks ``φ_i = η_i·T^s`` goes to every child;
* **compute period** ``T^c = μ_0``: the shortest horizon over which an
  integer number ``ρ_0`` of tasks is computed;
* **receive period** ``T^r = parent's T^s`` (the root receives nothing).

Their lcm ``T = lcm{T^s, T^c, T^r}`` is the full local period of equation
set (3), over which the conservation law holds with integers
(``χ_{-1} = Σ χ_i``).  Equation set (4) adds the *consumption period*
``T^w`` and the bunch quantities ``ψ_i = η_i·T^w`` that drive the
event-driven schedule of Section 6.2.

``T^w`` is the **true minimal** consumption period: ``lcm{T^s, T^c}``
reduced by the gcd of the resulting bunch counts.  The reduction matters
for covariance — uniformly scaling every ``w`` and ``c`` by ``k`` scales
all rates by ``1/k``, and the minimal period scales by exactly ``k`` while
the ψ counts stay fixed, so the event-driven schedule (and hence the whole
simulated trace) dilates uniformly.  The unreduced integer lcm does *not*
have this property: doubling every rate can leave the integer period
unchanged and double the bunch instead, producing a structurally different
(though equally optimal) schedule.  ``T^w`` may therefore be a non-integer
rational; the periods of equation (3) (``T^s``, ``T^c``, ``T``) remain the
paper's integer lcms.

Everything here is exact: the η rates are rationals in lowest terms, and
all task counts are integers by construction (checked by
:func:`~repro.core.rates.scaled_integer`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, Mapping, Optional, Tuple

from ..core.allocation import Allocation
from ..core.rates import ZERO, lcm_denominators, lcm_ints, scaled_integer
from ..exceptions import ScheduleError


@dataclass(frozen=True)
class NodePeriods:
    """All Lemma-1 / equation-(3)/(4) quantities for one node.

    Task counts:

    * ``phi_children[i] = η_i · T^s`` — tasks sent to child ``i`` per send
      period;
    * ``rho = α · T^c`` — tasks computed per compute period;
    * ``phi_in = η_{-1} · T^r`` — tasks received per receive period
      (``None`` for the root);
    * ``chi_*`` — the same quantities over the full period ``T``;
    * ``psi_self`` / ``psi_children`` — the event-driven bunch quantities
      over the consumption period ``T_w``, with ``bunch = Σ ψ``.
    """

    node: Hashable
    t_send: int
    t_compute: int
    t_receive: Optional[int]  # None for the root (it receives nothing)
    t_full: int
    t_consume: Fraction  # minimal T^w: lcm(T^c, T^s) / gcd(ψ counts)

    phi_children: Mapping[Hashable, int]
    rho: int
    phi_in: Optional[int]

    chi_in: int
    chi_compute: int
    chi_children: Mapping[Hashable, int]

    psi_self: int
    psi_children: Mapping[Hashable, int]

    @property
    def bunch(self) -> int:
        """Ψ = ψ_0 + Σ ψ_i — the event-driven bunch size."""
        return self.psi_self + sum(self.psi_children.values())

    def check_conservation(self, is_root: bool) -> None:
        """Assert equation (3)'s integer conservation ``χ_{-1} = Σ χ_i``."""
        consumed = self.chi_compute + sum(self.chi_children.values())
        if not is_root and self.chi_in != consumed:
            raise ScheduleError(
                f"node {self.node!r}: χ_in={self.chi_in} but consumes {consumed}"
            )


def node_periods(
    allocation: Allocation,
    node: Hashable,
    parent_send_period: Optional[int],
) -> NodePeriods:
    """Compute the :class:`NodePeriods` of *node* given its parent's ``T^s``.

    *parent_send_period* must be ``None`` exactly for the root.
    """
    tree = allocation.tree
    alpha = allocation.alpha.get(node, ZERO)
    eta_in = allocation.eta_in.get(node, ZERO)
    children = tree.children(node)
    etas: Dict[Hashable, Fraction] = {
        child: allocation.eta_out.get((node, child), ZERO) for child in children
    }

    t_send = lcm_denominators(etas.values()) if children else 1
    t_compute = alpha.denominator
    is_root = node == tree.root
    if is_root:
        t_receive: Optional[int] = None
        t_full = lcm_ints([t_send, t_compute])
    else:
        if parent_send_period is None:
            raise ScheduleError(f"non-root node {node!r} needs its parent's T^s")
        t_receive = parent_send_period
        t_full = lcm_ints([t_send, t_compute, t_receive])
    phi_children = {ch: scaled_integer(etas[ch], t_send) for ch in children}
    rho = scaled_integer(alpha, t_compute)
    phi_in = None if t_receive is None else scaled_integer(eta_in, t_receive)

    chi_in = scaled_integer(eta_in, t_full)
    chi_compute = scaled_integer(alpha, t_full)
    chi_children = {ch: scaled_integer(etas[ch], t_full) for ch in children}

    t_cs = lcm_ints([t_send, t_compute])
    psi_self = scaled_integer(alpha, t_cs)
    psi_children = {ch: scaled_integer(etas[ch], t_cs) for ch in children}
    # reduce to the minimal consumption period: a shared factor in the ψ
    # counts means the bunch repeats inside lcm(T^c, T^s)
    reduction = math.gcd(psi_self, *psi_children.values()) or 1
    if reduction > 1:
        psi_self //= reduction
        psi_children = {ch: n // reduction for ch, n in psi_children.items()}
    t_consume = Fraction(t_cs, reduction)

    periods = NodePeriods(
        node=node,
        t_send=t_send,
        t_compute=t_compute,
        t_receive=t_receive,
        t_full=t_full,
        t_consume=t_consume,
        phi_children=phi_children,
        rho=rho,
        phi_in=phi_in,
        chi_in=chi_in,
        chi_compute=chi_compute,
        chi_children=chi_children,
        psi_self=psi_self,
        psi_children=psi_children,
    )
    periods.check_conservation(is_root)
    return periods


def tree_periods(allocation: Allocation) -> Dict[Hashable, NodePeriods]:
    """Compute :class:`NodePeriods` for every node of the allocation's tree.

    Periods are propagated top-down (``T^r`` of a node is the ``T^s`` of its
    parent).  Nodes with zero activity still get (trivial, all-1) periods so
    callers need no special-casing.
    """
    tree = allocation.tree
    result: Dict[Hashable, NodePeriods] = {}
    for node in tree.nodes():  # pre-order: parents first
        parent = tree.parent(node)
        parent_ts = result[parent].t_send if parent is not None else None
        result[node] = node_periods(allocation, node, parent_ts)
    return result


#: Default bit-length cap on the synchronized period.  2**4096 time units is
#: far beyond anything a timetable, report or simulation horizon can use;
#: hitting it means the platform's rates are pathological (the paper's
#: "embarrassingly long" period, Section 6 intro) and the caller should use
#: the event-driven schedule instead.
MAX_PERIOD_BITS = 4096

#: Cap on a node's bunch size ``Ψ = Σ ψ_i``.  A bunch order is materialised
#: as one tuple of ``Ψ`` destinations, so adversarial rate denominators
#: (``Ψ`` near 10**18 on a 3-node platform) would otherwise hang the build.
#: 2**22 entries already exceed what the simulator's default event guard
#: can run through in a single period.
MAX_BUNCH = 1 << 22


def global_period(
    periods: Mapping[Hashable, NodePeriods],
    *,
    max_bits: Optional[int] = MAX_PERIOD_BITS,
    telemetry=None,
    tree=None,
) -> int:
    """The synchronized whole-tree period ``T`` (lcm of every local period).

    This is the "embarrassingly long" period of the traditional approach the
    paper avoids (Section 6 intro); it is exposed for the synchronized
    baseline and for reporting.

    Because it is an lcm over *every* node, ``T`` can blow up combinatorially
    on adversarial rate denominators.  The running lcm is therefore guarded:
    when its bit-length exceeds *max_bits* (``None`` disables the guard) a
    :class:`~repro.exceptions.ScheduleError` names the node whose local
    period triggered the blow-up — with its root path when *tree* is given —
    instead of silently building an astronomically long timetable.  With
    *telemetry* attached, the final bit-length lands on the
    ``sched.period_bits`` gauge.
    """
    total = 1
    for node, p in periods.items():
        total = lcm_ints([total, p.t_full])
        if max_bits is not None and total.bit_length() > max_bits:
            if tree is not None and node in tree:
                chain = list(reversed(tree.ancestors(node))) + [node]
                where = " -> ".join(str(a) for a in chain)
            else:
                where = repr(node)
            raise ScheduleError(
                f"synchronized period exceeds 2**{max_bits} time units "
                f"(lcm reached {total.bit_length()} bits at node {where}, "
                f"local period {p.t_full}); the timetable would be "
                "astronomically long — use the event-driven schedule, or "
                "raise max_bits explicitly"
            )
    if telemetry is not None:
        telemetry.gauge("sched.period_bits").set(total.bit_length())
    return total


def startup_bound(periods: Mapping[Hashable, NodePeriods], tree, node: Hashable) -> int:
    """Proposition 4's start-up bound for *node*: ``Σ T^s_a`` over ancestors.

    Every node enters its steady-state regime at most this many time units
    after the computation starts, when all nodes apply their event-driven
    schedule from the beginning.
    """
    return sum(periods[a].t_send for a in tree.ancestors(node))
