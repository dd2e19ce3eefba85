"""ser(S)'s full serialization graph, one edge per conflicting pair.

``SerSchedule.serialization_graph`` builds the site-order reduction: an
edge only between *consecutive* different transactions at a site.  This
module keeps what it replaced — the graph with an edge ``Gi -> Gj`` for
every pair ``ser_k(G_i) < ser_k(G_j)`` (Σ k²/2 edges) — and the closure
helpers the comparison needs: the two graphs must agree on reachability
between every pair of nodes, hence on acyclicity and on which orders are
valid witnesses.
"""

from typing import Dict, Hashable, Iterable, Set

from repro.schedules.global_schedule import SerOperation
from repro.schedules.serialization_graph import DirectedGraph


def all_pairs_serialization_graph(
    operations: Iterable[SerOperation],
) -> DirectedGraph:
    """Nodes in first-appearance order, then an edge for every
    conflicting pair, scanned in (i, j)-ascending order."""
    operations = list(operations)
    graph = DirectedGraph()
    for operation in operations:
        graph.add_node(operation.transaction_id)
    for i, first in enumerate(operations):
        for second in operations[i + 1:]:
            if first.conflicts_with(second):
                graph.add_edge(first.transaction_id, second.transaction_id)
    return graph


def closure(graph: DirectedGraph) -> Dict[Hashable, Set[Hashable]]:
    """node -> everything reachable from it (itself only on a cycle)."""
    return {node: graph.reachable_from(node) for node in graph.nodes}


def is_topological_order(graph: DirectedGraph, order) -> bool:
    """*order* lists every node once and no edge points backwards."""
    position = {node: index for index, node in enumerate(order)}
    return (
        len(position) == len(order) == len(graph)
        and set(position) == set(graph.nodes)
        and all(
            position[source] < position[target]
            for source, target in graph.edges
        )
    )
