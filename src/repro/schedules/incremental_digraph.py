"""An acyclic directed graph with an incrementally maintained order.

:class:`IncrementalDigraph` is a
:class:`~repro.schedules.serialization_graph.DirectedGraph` that only
ever holds an acyclic edge set.  It keeps a topological order of its
nodes *incrementally* in the style of Pearce & Kelly ("A dynamic
topological sort algorithm for directed acyclic graphs", JEA 2007):
every node carries an integer order index, and for every edge ``u -> v``
the invariant ``index[u] < index[v]`` holds.  Inserting an edge that
already respects the order costs O(1); inserting one that violates it
triggers a search limited to the *affected region* — the nodes whose
indices lie between ``index[v]`` and ``index[u]`` — which either finds a
cycle or reorders just that region.  Deleting an edge or node never
invalidates the order, so removals are O(degree).

Its callers are the ones that refuse cycles: the SGT local scheduler
refuses any operation whose serialization-graph edge would close one
(§2.2 only asks a local DBMS for conflict-serializable schedules), and
Scheme 4's planner drops any preference edge that would close one.  So
``add_edge`` *decides*: it inserts the edge and returns ``None``, or it
returns a witness cycle (a tuple of nodes, each with an edge to the
next, the last closing back to the first, the refused edge included)
and leaves the graph exactly as it was.  A self-loop returns
``(node,)``.  Every accessor and the general cycle search are
:class:`DirectedGraph`'s; ``topological_order`` is the maintained order,
which Scheme 4 executes in.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.schedules.serialization_graph import DirectedGraph


class IncrementalDigraph(DirectedGraph):
    """An acyclic directed graph with an incrementally maintained
    topological order and O(affected-region) cycle refusal on edge
    insertion."""

    def __init__(self) -> None:
        super().__init__()
        #: node -> order index; for every edge (u, v): index[u] < index[v]
        self._index: Dict[Hashable, int] = {}
        self._next_index = 0
        #: mutation count (instrumentation: "graph ops")
        self.ops = 0
        #: nodes touched by reorder/cycle searches (instrumentation)
        self.visited = 0

    def add_node(self, node: Hashable) -> None:
        if node not in self._successors:
            super().add_node(node)
            self._index[node] = self._next_index
            self._next_index += 1

    def add_edge(
        self, source: Hashable, target: Hashable
    ) -> Optional[Tuple[Hashable, ...]]:
        """Insert the edge and return ``None``, or return the cycle it
        would close and leave the graph unchanged."""
        self.ops += 1
        if source == target:
            return (source,)
        self.add_node(source)
        self.add_node(target)
        if target in self._successors[source]:
            return None
        cycle = self._place(source, target)
        if cycle is None:
            self._successors[source][target] = None
            self._predecessors[target][source] = None
        return cycle

    def remove_edge(self, source: Hashable, target: Hashable) -> None:
        self.ops += 1
        super().remove_edge(source, target)

    def remove_node(self, node: Hashable) -> None:
        """Remove the node and its incident edges; the order index space
        is compacted once it grows sparse, so long insert/remove runs do
        not leak index range."""
        if node not in self._successors:
            return
        self.ops += 1
        super().remove_node(node)
        del self._index[node]
        if self._next_index > 2 * len(self._successors) + 64:
            self._compact()

    def _compact(self) -> None:
        for rank, node in enumerate(
            sorted(self._index, key=self._index.__getitem__)
        ):
            self._index[node] = rank
        self._next_index = len(self._index)

    def _place(
        self, source: Hashable, target: Hashable
    ) -> Optional[Tuple[Hashable, ...]]:
        """Make room for ``source -> target`` in the order, searching only
        the affected region; return a witness cycle instead when
        ``target`` reaches ``source`` (the order is then left
        untouched)."""
        lower = self._index[target]
        upper = self._index[source]
        if upper < lower:
            return None
        index = self._index
        # forward: nodes reachable from target with index <= upper.  The
        # order invariant means any path back to source stays inside that
        # window, so hitting source here is the complete cycle test.
        parent: Dict[Hashable, Optional[Hashable]] = {target: None}
        stack: List[Hashable] = [target]
        forward: List[Hashable] = [target]
        while stack:
            node = stack.pop()
            self.visited += 1
            for successor in self._successors[node]:
                if successor == source:
                    path: List[Hashable] = [node]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    path.reverse()  # target .. node
                    return (source, *path)
                if successor in parent or index[successor] > upper:
                    continue
                parent[successor] = node
                stack.append(successor)
                forward.append(successor)
        # backward: nodes reaching source with index >= lower
        seen: Set[Hashable] = {source}
        stack = [source]
        backward: List[Hashable] = [source]
        while stack:
            node = stack.pop()
            self.visited += 1
            for predecessor in self._predecessors[node]:
                if predecessor in seen or index[predecessor] < lower:
                    continue
                seen.add(predecessor)
                stack.append(predecessor)
                backward.append(predecessor)
        # merge: the backward region precedes the forward region inside
        # the pooled (sorted) set of their old indices
        affected = sorted(backward, key=index.__getitem__)
        affected += sorted(forward, key=index.__getitem__)
        pool = sorted(index[node] for node in affected)
        for node, slot in zip(affected, pool):
            index[node] = slot
        return None

    def topological_order(self) -> Tuple[Hashable, ...]:
        """The maintained topological order (O(n log n) readout) — not
        :class:`DirectedGraph`'s Kahn order; Scheme 4 executes in it."""
        return tuple(sorted(self._successors, key=self._index.__getitem__))
