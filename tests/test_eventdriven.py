"""Unit tests for the event-driven schedule construction (Section 6.2)."""

import time
from fractions import Fraction

import pytest

from repro.core.allocation import from_bw_first
from repro.core.bwfirst import bw_first
from repro.core.incremental import IncrementalSolver
from repro.core.rates import INFINITY
from repro.exceptions import ScheduleError
from repro.platform.tree import Tree
from repro.schedule.eventdriven import NodeSchedule, build_schedules, describe_schedules
from repro.schedule.local import block_order
from repro.schedule.periods import MAX_BUNCH, tree_periods
from repro.sim.simulator import simulate


@pytest.fixture
def paper_schedules(paper_tree):
    allocation = from_bw_first(bw_first(paper_tree))
    return build_schedules(allocation)


class TestBuildSchedules:
    def test_only_active_nodes(self, paper_schedules):
        assert set(paper_schedules) == {"P0", "P1", "P2", "P3", "P4", "P6", "P7", "P8"}

    def test_bunch_sizes(self, paper_schedules):
        assert paper_schedules["P0"].bunch == 20  # ψ: 6 self + 11 + 2 + 1
        assert paper_schedules["P4"].bunch == 5
        assert paper_schedules["P8"].bunch == 1

    def test_order_quantities_match(self, paper_schedules):
        for schedule in paper_schedules.values():
            for dest, count in schedule.quantities.items():
                assert schedule.order.count(dest) == count

    def test_self_first_in_priority(self, paper_schedules):
        # P4's bunch interleaves itself (ψ=2) with P8 (ψ=3): P8 first by ψ tie rules
        assert paper_schedules["P4"].order == ("P8", "P4", "P8", "P4", "P8")

    def test_destination_wraps(self, paper_schedules):
        s = paper_schedules["P4"]
        assert s.destination(0) == "P8"
        assert s.destination(5) == "P8"  # 5 mod 5 == 0
        assert s.destination(8) == s.order[3]

    def test_leaf_schedule_is_all_self(self, paper_schedules):
        assert paper_schedules["P8"].order == ("P8",)

    def test_switch_never_computes(self):
        t = Tree("sw")
        t.add_node("w", w=1, parent="sw", c=1)
        allocation = from_bw_first(bw_first(t))
        schedules = build_schedules(allocation)
        assert "sw" not in schedules["sw"].order
        assert schedules["sw"].order == ("w",)

    def test_alternate_policy(self, paper_tree):
        allocation = from_bw_first(bw_first(paper_tree))
        schedules = build_schedules(allocation, policy=block_order)
        s = schedules["P4"]
        assert s.order == ("P4", "P4", "P8", "P8", "P8")

    def test_broken_policy_caught(self, paper_tree):
        allocation = from_bw_first(bw_first(paper_tree))

        def bad_policy(quantities, priority):
            return ("oops",)

        with pytest.raises(ScheduleError):
            build_schedules(allocation, policy=bad_policy)

    def test_wrong_counts_policy_caught(self, paper_tree):
        allocation = from_bw_first(bw_first(paper_tree))

        def swapped(quantities, priority):
            order = []
            dests = list(quantities)
            total = sum(quantities.values())
            for i in range(total):
                order.append(dests[i % len(dests)])
            return tuple(order)

        with pytest.raises(ScheduleError):
            build_schedules(allocation, policy=swapped)


class TestNodeSchedule:
    def test_describe(self, paper_schedules):
        assert paper_schedules["P8"].describe() == "P8: [P8]"

    def test_describe_all(self, paper_schedules):
        text = describe_schedules(paper_schedules)
        assert "P4: [P8 P4 P8 P4 P8]" in text

    def test_empty_schedule_destination_raises(self, paper_tree):
        allocation = from_bw_first(bw_first(paper_tree))
        periods = tree_periods(allocation)
        empty = NodeSchedule(node="x", quantities={}, order=(),
                             periods=periods["P5"])
        with pytest.raises(ScheduleError):
            empty.destination(0)


class TestBunchCap:
    """A 3-node platform whose root bunch is Ψ ≈ 10**18 must be refused
    quickly, not materialised."""

    @staticmethod
    def hostile_tree() -> Tree:
        tree = Tree("A", INFINITY)
        tree.add_node("B", Fraction(1, 999999937), parent="A",
                      c=Fraction(1, 1000000007))
        tree.add_node("C", Fraction(999999929, 3), parent="A",
                      c=Fraction(7, 1000000009))
        return tree

    def assert_refused_fast(self, build) -> None:
        start = time.perf_counter()
        with pytest.raises(ScheduleError, match=r"node 'A'.*Ψ = \d{18}"):
            build()
        assert time.perf_counter() - start < 2

    def test_psi_b_is_huge(self):
        periods = tree_periods(from_bw_first(bw_first(self.hostile_tree())))
        assert periods["A"].psi_children["B"] == 999999866000004473
        assert sum(periods["A"].psi_children.values()) > MAX_BUNCH

    def test_build_schedules(self):
        allocation = from_bw_first(bw_first(self.hostile_tree()))
        self.assert_refused_fast(lambda: build_schedules(allocation))

    def test_incremental_builder(self):
        solver = IncrementalSolver(self.hostile_tree())
        allocation = from_bw_first(solver.solve())
        self.assert_refused_fast(
            lambda: solver.schedule_builder().build(allocation))

    def test_simulate(self):
        self.assert_refused_fast(
            lambda: simulate(self.hostile_tree(), horizon=Fraction(1)))
