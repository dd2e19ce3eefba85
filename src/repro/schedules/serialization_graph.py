"""Serialization graphs and cycle machinery.

The serialization graph (SG) of a schedule has a node per transaction and
an edge ``Ti -> Tj`` whenever an operation of ``Ti`` conflicts with and
precedes an operation of ``Tj``.  A schedule is conflict serializable iff
its SG is acyclic (the classical Serializability Theorem), and any
topological order of an acyclic SG is an equivalent serial order.

The same directed-graph machinery is reused throughout the repository
(waits-for graphs for deadlock detection, SGT schedulers, global
verification), so the graph type lives here rather than in any one of
those modules.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.exceptions import NonSerializableError
from repro.schedules.model import Operation, Schedule


class DirectedGraph:
    """A small deterministic directed graph.

    Nodes may be any hashable values.  Iteration orders are insertion
    orders, which keeps every algorithm in the repository deterministic.
    """

    def __init__(self) -> None:
        self._successors: Dict[Hashable, Dict[Hashable, None]] = {}
        self._predecessors: Dict[Hashable, Dict[Hashable, None]] = {}

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_node(self, node: Hashable) -> None:
        if node not in self._successors:
            self._successors[node] = {}
            self._predecessors[node] = {}

    def add_edge(self, source: Hashable, target: Hashable) -> None:
        self.add_node(source)
        self.add_node(target)
        self._successors[source][target] = None
        self._predecessors[target][source] = None

    def remove_node(self, node: Hashable) -> None:
        if node not in self._successors:
            return
        for target in self._successors.pop(node):
            del self._predecessors[target][node]
        for source in self._predecessors.pop(node):
            del self._successors[source][node]

    def remove_edge(self, source: Hashable, target: Hashable) -> None:
        self._successors.get(source, {}).pop(target, None)
        self._predecessors.get(target, {}).pop(source, None)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[Hashable, ...]:
        return tuple(self._successors)

    @property
    def edges(self) -> Tuple[Tuple[Hashable, Hashable], ...]:
        return tuple(
            (source, target)
            for source, targets in self._successors.items()
            for target in targets
        )

    def successors(self, node: Hashable) -> Tuple[Hashable, ...]:
        return tuple(self._successors.get(node, ()))

    def predecessors(self, node: Hashable) -> Tuple[Hashable, ...]:
        return tuple(self._predecessors.get(node, ()))

    def has_edge(self, source: Hashable, target: Hashable) -> bool:
        return target in self._successors.get(source, {})

    def has_node(self, node: Hashable) -> bool:
        return node in self._successors

    def __contains__(self, node: Hashable) -> bool:
        return self.has_node(node)

    def __len__(self) -> int:
        return len(self._successors)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._successors.values()))

    def copy(self) -> "DirectedGraph":
        duplicate = DirectedGraph()
        for node in self._successors:
            duplicate.add_node(node)
        for source, target in self.edges:
            duplicate.add_edge(source, target)
        return duplicate

    # ------------------------------------------------------------------
    # algorithms
    # ------------------------------------------------------------------
    def find_cycle(self, start: Optional[Hashable] = None) -> Optional[Tuple]:
        """Return some cycle as a tuple of nodes, or ``None`` if acyclic.

        If *start* is given, only cycles reachable from (and returning to
        nodes on the stack of) the DFS rooted at *start* are considered;
        used by schedulers that only care about cycles through a new node.
        """
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[Hashable, int] = {node: WHITE for node in self._successors}
        parent: Dict[Hashable, Hashable] = {}

        roots = [start] if start is not None else list(self._successors)

        for root in roots:
            if root not in color or color[root] != WHITE:
                continue
            stack: List[Tuple[Hashable, Iterator[Hashable]]] = [
                (root, iter(self._successors[root]))
            ]
            color[root] = GRAY
            while stack:
                node, successors = stack[-1]
                advanced = False
                for successor in successors:
                    if color[successor] == GRAY:
                        # reconstruct the cycle successor -> ... -> node -> successor
                        cycle = [node]
                        walker = node
                        while walker != successor:
                            walker = parent[walker]
                            cycle.append(walker)
                        cycle.reverse()
                        return tuple(cycle)
                    if color[successor] == WHITE:
                        color[successor] = GRAY
                        parent[successor] = node
                        stack.append(
                            (successor, iter(self._successors[successor]))
                        )
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return None

    def is_acyclic(self) -> bool:
        return self.find_cycle() is None

    def topological_order(self) -> Tuple[Hashable, ...]:
        """A topological order of the nodes.

        Raises
        ------
        NonSerializableError
            If the graph contains a cycle (with the cycle as witness).
        """
        in_degree: Dict[Hashable, int] = {
            node: len(self._predecessors[node]) for node in self._successors
        }
        ready: List[Hashable] = [n for n, d in in_degree.items() if d == 0]
        order: List[Hashable] = []
        cursor = 0
        while cursor < len(ready):
            node = ready[cursor]
            cursor += 1
            order.append(node)
            for successor in self._successors[node]:
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    ready.append(successor)
        if len(order) != len(self._successors):
            cycle = self.find_cycle() or ()
            raise NonSerializableError(cycle)
        return tuple(order)

    def reachable_from(self, node: Hashable) -> Set[Hashable]:
        """Nodes reachable from *node* (excluding *node* unless on a cycle)."""
        seen: Set[Hashable] = set()
        frontier = list(self._successors.get(node, ()))
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self._successors.get(current, ()))
        return seen

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} nodes={len(self)} "
            f"edges={self.edge_count}>"
        )


def serialization_graph(schedule: Schedule) -> DirectedGraph:
    """The serialization graph SG(S) of *schedule*.

    Two operations conflict when they belong to different transactions,
    access the same data item at the same site, and at least one is a
    write (§2.3), so only operations in one (site, item) bucket are
    compared: the scan is O(total ops × ops per item), not quadratic in
    the schedule.  Edges are inserted in sorted order, which fixes the
    graph's iteration order (and so the witnesses verification reports).
    """
    buckets: Dict[Tuple[object, object], List[Operation]] = {}
    for operation in schedule:
        if operation.accesses_data:
            buckets.setdefault((operation.site, operation.item), []).append(
                operation
            )
    edges: Set[Tuple[str, str]] = set()
    for bucket in buckets.values():
        for i, first in enumerate(bucket):
            for second in bucket[i + 1 :]:
                if first.conflicts_with(second):
                    edges.add((first.transaction_id, second.transaction_id))
    graph = DirectedGraph()
    for transaction_id in schedule.transaction_ids:
        graph.add_node(transaction_id)
    for source, target in sorted(edges):
        graph.add_edge(source, target)
    return graph


def union_graph(graphs: Iterable[DirectedGraph]) -> DirectedGraph:
    """The union of several serialization graphs (used for global SGs:
    the union of all local SGs plus GTM-induced orderings)."""
    union = DirectedGraph()
    successors, predecessors = union._successors, union._predecessors
    for graph in graphs:
        # a graph's nodes enter before its edges, so node order is the
        # graphs' node orders concatenated, whatever the edges touch
        for node in graph._successors:
            if node not in successors:
                successors[node] = {}
                predecessors[node] = {}
        for source, targets in graph._successors.items():
            successors[source].update(targets)
            for target in targets:
                predecessors[target][source] = None
    return union
