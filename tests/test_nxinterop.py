"""Unit tests for the networkx interoperability layer."""

import os
import subprocess
import sys
from fractions import Fraction

import networkx as nx
import pytest

from repro.core.rates import INFINITY
from repro.exceptions import PlatformError
from repro.platform.nxinterop import (
    overlay_minimum_spanning_tree,
    overlay_shortest_path_tree,
    tree_from_networkx,
    tree_to_networkx,
)
from repro.platform.tree import Tree


class TestRoundTrip:
    def test_round_trip(self, paper_tree):
        graph = tree_to_networkx(paper_tree)
        rebuilt = tree_from_networkx(graph)
        assert rebuilt == paper_tree

    def test_attributes(self, paper_tree):
        graph = tree_to_networkx(paper_tree)
        assert graph.nodes["P0"]["w"] == Fraction(3)
        assert graph.edges["P1", "P4"]["c"] == Fraction(18, 5)

    def test_root_inferred_from_degree(self, paper_tree):
        graph = tree_to_networkx(paper_tree)
        del graph.graph["root"]
        rebuilt = tree_from_networkx(graph)
        assert rebuilt.root == "P0"

    def test_missing_edge_cost_rejected(self):
        g = nx.DiGraph()
        g.add_node("a", w=1)
        g.add_node("b", w=1)
        g.add_edge("a", "b")  # no c attribute
        with pytest.raises(PlatformError):
            tree_from_networkx(g, root="a")

    def test_non_tree_rejected(self):
        g = nx.DiGraph()
        for n in "abc":
            g.add_node(n, w=1)
        g.add_edge("a", "b", c=1)
        g.add_edge("a", "c", c=1)
        g.add_edge("b", "c", c=1)  # c reached twice
        with pytest.raises(PlatformError):
            tree_from_networkx(g, root="a")

    def test_unreachable_node_rejected(self):
        g = nx.DiGraph()
        g.add_node("a", w=1)
        g.add_node("b", w=1)
        with pytest.raises(PlatformError):
            tree_from_networkx(g, root="a")


@pytest.fixture
def physical():
    """A small weighted physical topology (undirected)."""
    g = nx.Graph()
    g.add_edge("m", "a", c=1)
    g.add_edge("m", "b", c=4)
    g.add_edge("a", "b", c=1)
    g.add_edge("b", "c", c=2)
    return g


WEIGHTS = {"m": INFINITY, "a": 1, "b": 2, "c": 1}


class TestOverlays:
    def test_shortest_path_tree(self, physical):
        tree = overlay_shortest_path_tree(physical, "m", WEIGHTS)
        # b is cheaper via a (1+1=2) than directly (4)
        assert tree.parent("b") == "a"
        assert tree.c("b") == 1
        assert tree.parent("c") == "b"
        assert len(tree) == 4

    def test_mst(self, physical):
        tree = overlay_minimum_spanning_tree(physical, "m", WEIGHTS)
        assert len(tree) == 4
        # the expensive m-b edge is not in the MST
        assert tree.parent("b") == "a"

    def test_unknown_root(self, physical):
        with pytest.raises(PlatformError):
            overlay_shortest_path_tree(physical, "zz", WEIGHTS)

    def test_overlays_are_schedulable(self, physical):
        from repro.core import bw_first

        spt = overlay_shortest_path_tree(physical, "m", WEIGHTS)
        mst = overlay_minimum_spanning_tree(physical, "m", WEIGHTS)
        assert bw_first(spt).throughput > 0
        assert bw_first(mst).throughput > 0


def test_planning_imports_leave_networkx_unloaded():
    """Only the overlay helpers need networkx; the modules a plan runs
    through (parse, solve, schedule, simulate, negotiate) must not load it."""
    code = (
        "import sys\n"
        "import repro.core.allocation, repro.core.bwfirst\n"
        "import repro.platform.serialization, repro.protocol.runner\n"
        "import repro.runtime.runtime, repro.schedule.eventdriven\n"
        "import repro.schedule.periods, repro.sim.simulator\n"
        "print('networkx' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
