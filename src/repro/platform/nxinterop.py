"""Interoperability with :mod:`networkx`.

The paper motivates tree *overlay* networks built on top of a general
physical topology (Section 5 discusses topological studies).  These helpers
convert between :class:`~repro.platform.tree.Tree` and networkx graphs, and
extract candidate overlay trees (shortest-path trees, minimum spanning
trees) from a general weighted graph — the building blocks of the
``topology_study`` example.

networkx is imported inside the functions that call it, so importing
:mod:`repro.platform` does not load it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, Optional

from ..core.rates import INFINITY, as_fraction, is_infinite
from ..exceptions import PlatformError
from .tree import NodeId, Tree

if TYPE_CHECKING:
    import networkx as nx


def tree_to_networkx(tree: Tree) -> nx.DiGraph:
    """Convert *tree* to a :class:`networkx.DiGraph`.

    Node attribute ``w`` and edge attribute ``c`` carry the exact
    :class:`~fractions.Fraction` weights (or ``float('inf')`` for switches).
    """
    import networkx as nx

    graph = nx.DiGraph()
    for node in tree.nodes():
        graph.add_node(node, w=tree.w(node))
    for parent, child, cost in tree.edges():
        graph.add_edge(parent, child, c=cost)
    graph.graph["root"] = tree.root
    return graph


def tree_from_networkx(graph: nx.DiGraph, root: Optional[NodeId] = None) -> Tree:
    """Rebuild a :class:`Tree` from a digraph produced by :func:`tree_to_networkx`.

    The graph must be an arborescence (every node except *root* has exactly
    one predecessor).  Missing ``w`` attributes default to ``inf``; missing
    ``c`` attributes raise.
    """
    if root is None:
        root = graph.graph.get("root")
    if root is None:
        candidates = [n for n in graph.nodes if graph.in_degree(n) == 0]
        if len(candidates) != 1:
            raise PlatformError(
                f"cannot infer the root: {len(candidates)} nodes have in-degree 0"
            )
        root = candidates[0]
    if root not in graph:
        raise PlatformError(f"root {root!r} not in graph")

    tree = Tree(root, graph.nodes[root].get("w", INFINITY))
    visited = {root}
    stack = [root]
    while stack:
        parent = stack.pop()
        for child in graph.successors(parent):
            if child in visited:
                raise PlatformError(f"graph is not a tree: {child!r} reached twice")
            data = graph.edges[parent, child]
            if "c" not in data:
                raise PlatformError(f"edge {parent!r}->{child!r} is missing attribute 'c'")
            tree.add_node(child, graph.nodes[child].get("w", INFINITY),
                          parent=parent, c=data["c"])
            visited.add(child)
            stack.append(child)
    if len(visited) != graph.number_of_nodes():
        raise PlatformError("graph has nodes unreachable from the root")
    return tree


def overlay_shortest_path_tree(
    graph: nx.Graph,
    root: Hashable,
    node_weights: Dict[Hashable, object],
    edge_cost_attr: str = "c",
) -> Tree:
    """Extract the shortest-path overlay tree of *graph* rooted at *root*.

    *graph* is an undirected physical topology whose edges carry a
    communication time in attribute *edge_cost_attr*; *node_weights* maps
    each node to its processing time (``inf`` allowed).  Each node is
    attached to the graph via its predecessor on the min-cost path from the
    root (Dijkstra); the resulting tree edge keeps the *physical link* cost
    of that final hop, which is the standard overlay construction when each
    hop is a store-and-forward relay.
    """
    if root not in graph:
        raise PlatformError(f"root {root!r} not in graph")
    import networkx as nx

    paths = nx.shortest_path(graph, source=root, weight=edge_cost_attr)
    tree = Tree(root, node_weights.get(root, INFINITY))
    # attach nodes in order of increasing path length so parents exist first
    order = sorted(paths.items(), key=lambda kv: len(kv[1]))
    for node, path in order:
        if node == root:
            continue
        parent = path[-2]
        cost = as_fraction(graph.edges[parent, node][edge_cost_attr])
        tree.add_node(node, node_weights.get(node, INFINITY), parent=parent, c=cost)
    return tree


def overlay_minimum_spanning_tree(
    graph: nx.Graph,
    root: Hashable,
    node_weights: Dict[Hashable, object],
    edge_cost_attr: str = "c",
) -> Tree:
    """Extract the minimum-spanning-tree overlay of *graph* rooted at *root*."""
    if root not in graph:
        raise PlatformError(f"root {root!r} not in graph")
    import networkx as nx

    mst = nx.minimum_spanning_tree(graph, weight=edge_cost_attr)
    tree = Tree(root, node_weights.get(root, INFINITY))
    for parent, child in nx.bfs_edges(mst, source=root):
        cost = as_fraction(graph.edges[parent, child][edge_cost_attr])
        tree.add_node(child, node_weights.get(child, INFINITY), parent=parent, c=cost)
    return tree
