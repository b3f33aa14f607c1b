"""Integration-grade tests of the discrete-event platform simulator."""

from fractions import Fraction

import pytest

from repro.analysis import measured_rate
from repro.core.allocation import from_bw_first
from repro.core.bwfirst import bw_first
from repro.exceptions import SimulationError
from repro.platform.generators import chain, fork
from repro.platform.tree import INFINITY, Tree
from repro.schedule.eventdriven import build_schedules
from repro.schedule.periods import global_period, tree_periods
from repro.sim import simulate
from repro.sim.simulator import Simulation

F = Fraction


def steady_rate(tree, periods_count=12, tail=4):
    """Run the optimal schedule and measure the rate over late periods."""
    allocation = from_bw_first(bw_first(tree))
    period = global_period(tree_periods(allocation))
    horizon = F(period) * periods_count
    result = simulate(tree, allocation=allocation, horizon=horizon)
    start = F(period) * (periods_count - tail)
    return measured_rate(result.trace, start, horizon)


class TestSteadyStateThroughput:
    def test_paper_tree_exact(self, paper_tree):
        assert steady_rate(paper_tree) == F(10, 9)

    def test_fork(self):
        t = fork(weights=[2, 3, 1, 4], costs=[1, 2, 3, 4], root_w=2)
        assert steady_rate(t) == bw_first(t).throughput

    def test_chain(self):
        t = chain(3, w=1, c=1, root_w=1)
        assert steady_rate(t) == 2

    def test_single_worker_bandwidth_limited(self):
        t = Tree("m")
        t.add_node("w", w=1, parent="m", c=2)
        assert steady_rate(t) == F(1, 2)

    def test_switch_in_the_middle(self):
        t = Tree("m", w=2)
        t.add_node("sw", w=float("inf"), parent="m", c=1)
        t.add_node("w", w=1, parent="sw", c=1)
        assert steady_rate(t) == bw_first(t).throughput

    def test_merged_sec9(self, sec9_merged):
        assert steady_rate(sec9_merged) == 1


class TestTaskAccounting:
    def test_all_released_tasks_complete(self, paper_tree):
        result = simulate(paper_tree, horizon=5 * 36)
        assert result.completed == result.released

    def test_supply_mode_exact_count(self, paper_tree):
        result = simulate(paper_tree, supply=57)
        assert result.released == 57
        assert result.completed == 57

    def test_supply_one(self, paper_tree):
        result = simulate(paper_tree, supply=1)
        assert result.completed == 1

    def test_completions_per_node_proportional(self, paper_tree):
        # over k whole periods every node completes exactly k·χ_compute
        allocation = from_bw_first(bw_first(paper_tree))
        periods = tree_periods(allocation)
        result = simulate(paper_tree, horizon=10 * 36)
        by_node = result.trace.completions_by_node()
        total = sum(by_node.values())
        for node, alpha in allocation.alpha.items():
            expected = alpha / allocation.throughput
            assert F(by_node.get(node, 0), total) == expected

    def test_buffers_return_to_zero_after_drain(self, paper_tree):
        result = simulate(paper_tree, supply=40)
        level = {}
        for _, node, delta in result.trace.buffer_deltas:
            level[node] = level.get(node, 0) + delta
        assert all(v == 0 for v in level.values())


class TestWindDown:
    def test_wind_down_measured(self, paper_tree):
        result = simulate(paper_tree, horizon=4 * 36)
        assert result.wind_down is not None
        assert result.wind_down > 0

    def test_wind_down_much_shorter_than_horizon(self, paper_tree):
        result = simulate(paper_tree, horizon=10 * 36)
        assert result.wind_down < F(10 * 36, 4)


class TestValidation:
    def test_requires_horizon_or_supply(self, paper_tree):
        with pytest.raises(SimulationError):
            simulate(paper_tree)

    def test_empty_allocation_gives_empty_run(self):
        # a platform that can compute nothing has no root schedule: the
        # run releases nothing instead of failing
        result = simulate(Tree("sw"), horizon=10)  # lone switch
        assert result.released == 0 and result.completed == 0


class TestZeroThroughput:
    """An all-switch platform has a valid optimum of 0 and no schedules;
    simulating it yields an empty run up to the horizon under every
    kernel."""

    @staticmethod
    def switches() -> Tree:
        tree = Tree("A")  # w = inf
        tree.add_node("B", INFINITY, parent="A", c=1)
        return tree

    @pytest.mark.parametrize("kernel", ["array", "int", "fraction"])
    def test_empty_run_to_horizon(self, kernel):
        tree = self.switches()
        assert bw_first(tree).throughput == 0
        assert build_schedules(from_bw_first(bw_first(tree))) == {}
        result = simulate(tree, horizon=10, kernel=kernel)
        assert result.released == 0 and result.completed == 0
        assert result.stop_time == 10
        assert result.wind_down is None
        assert result.trace.completions == []
        assert result.trace.segments == []

    @pytest.mark.parametrize("kernel", ["array", "int", "fraction"])
    def test_supply_is_never_released(self, kernel):
        result = simulate(self.switches(), supply=5, kernel=kernel)
        assert result.released == 0 and result.completed == 0


class TestBufferedStartBaseline:
    def test_startup_is_delayed(self, paper_tree):
        eager = simulate(paper_tree, horizon=4 * 36)
        buffered = simulate(paper_tree, horizon=4 * 36,
                            compute_during_startup=False)
        # during the first period the eager strategy computes strictly more
        eager_first = eager.trace.completions_in(F(0), F(36))
        buffered_first = buffered.trace.completions_in(F(0), F(36))
        assert eager_first > buffered_first

    def test_buffered_reaches_steady_state_eventually(self, paper_tree):
        result = simulate(paper_tree, horizon=12 * 36,
                          compute_during_startup=False)
        rate = measured_rate(result.trace, F(8 * 36), F(12 * 36))
        assert rate == F(10, 9)

    def test_root_computes_from_start_even_buffered(self, paper_tree):
        result = simulate(paper_tree, horizon=36,
                          compute_during_startup=False)
        root_completions = [t for t, n in result.trace.completions if n == "P0"]
        assert root_completions and min(root_completions) <= 4


class TestDeterminism:
    def test_same_inputs_same_trace(self, paper_tree):
        a = simulate(paper_tree, horizon=72)
        b = simulate(paper_tree, horizon=72)
        assert a.trace.completions == b.trace.completions
        assert [(s.node, s.kind, s.start, s.end) for s in a.trace.segments] == \
               [(s.node, s.kind, s.start, s.end) for s in b.trace.segments]
