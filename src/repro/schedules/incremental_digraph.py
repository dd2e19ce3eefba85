"""Incremental cycle detection via online topological ordering.

:class:`IncrementalDigraph` maintains a topological order of its nodes
*incrementally* in the style of Pearce & Kelly ("A dynamic topological
sort algorithm for directed acyclic graphs", JEA 2007): every node
carries an integer order index, and for every acyclic edge ``u -> v``
the invariant ``index[u] < index[v]`` holds.  Inserting an edge that
already respects the order costs O(1); inserting one that violates it
triggers a search limited to the *affected region* — the nodes whose
indices lie between ``index[v]`` and ``index[u]`` — which either finds a
cycle (returned as a witness) or reorders just that region.  Deleting an
edge or node never invalidates the order, so removals are O(degree).

This replaces restart-from-scratch DFS in the hot consumers (the SGT
local scheduler runs a full ``find_cycle`` per granted operation; see
``docs/performance.md`` for the measured effect): the amortized cost per
insertion is bounded by the affected region instead of the whole graph,
while queries (``is_acyclic``, ``find_cycle``, ``topological_order``)
become O(1)/O(n) lookups on maintained state.

The API mirrors :class:`~repro.schedules.serialization_graph.DirectedGraph`
with one deliberate difference: ``add_edge`` *reports* — it returns
``None`` when the graph stays acyclic and a witness cycle (a tuple of
nodes, each with an edge to the next, the last closing back to the
first) when the new edge creates one.  Cycle-creating edges are kept in
the graph (the edge set always equals what a ``DirectedGraph`` would
hold) but are excluded from the order invariant; if later removals break
their cycles the order is lazily repaired, so acyclicity queries stay
exact under arbitrary edit scripts.  The report itself is exact too: a
cycle that runs *through* an already-broken edge is invisible to the
order-maintenance search (which skips broken edges by design), so when
broken edges are present ``add_edge`` additionally tests reachability
over the full edge set — callers that keep cyclic edges in the graph
still get a correct answer for every insertion.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Set, Tuple

from repro.exceptions import NonSerializableError


class IncrementalDigraph:
    """A directed graph with an incrementally maintained topological
    order and O(affected-region) cycle detection on edge insertion."""

    def __init__(self) -> None:
        self._successors: Dict[Hashable, Dict[Hashable, None]] = {}
        self._predecessors: Dict[Hashable, Dict[Hashable, None]] = {}
        #: node -> order index; for every *clean* edge (u, v):
        #: index[u] < index[v]
        self._index: Dict[Hashable, int] = {}
        self._next_index = 0
        #: edges that closed a cycle when inserted, excluded from the
        #: order invariant (insertion-ordered)
        self._broken: Dict[Tuple[Hashable, Hashable], None] = {}
        #: True when a removal may have broken the cycles that justified
        #: entries in ``_broken`` — queries lazily re-verify
        self._stale = False
        #: mutation count (instrumentation: "graph ops")
        self.ops = 0
        #: nodes touched by reorder/cycle searches (instrumentation)
        self.visited = 0

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_node(self, node: Hashable) -> None:
        if node not in self._successors:
            self._successors[node] = {}
            self._predecessors[node] = {}
            self._index[node] = self._next_index
            self._next_index += 1

    def add_edge(
        self, source: Hashable, target: Hashable
    ) -> Optional[Tuple[Hashable, ...]]:
        """Insert the edge; return ``None`` if no cycle runs through it,
        else a witness cycle created (or already closed) by this edge."""
        self.ops += 1
        self.add_node(source)
        self.add_node(target)
        if target in self._successors[source]:
            if (source, target) in self._broken:
                self._refresh()
                if (source, target) in self._broken:
                    return self._witness(source, target)
            return self._cycle_through_broken(source, target)
        self._successors[source][target] = None
        self._predecessors[target][source] = None
        if source == target:
            self._broken[(source, target)] = None
            return (source,)
        cycle = self._place(source, target)
        if cycle is not None:
            self._broken[(source, target)] = None
            return cycle
        # the edge placed cleanly, but a cycle through it may still close
        # over an already-broken edge — the order search cannot see those
        return self._cycle_through_broken(source, target)

    def remove_edge(self, source: Hashable, target: Hashable) -> None:
        self.ops += 1
        if target in self._successors.get(source, {}):
            del self._successors[source][target]
            del self._predecessors[target][source]
            self._broken.pop((source, target), None)
            if self._broken:
                self._stale = True

    def remove_node(self, node: Hashable) -> None:
        """Remove the node and its incident edges; the order index space
        is compacted once it grows sparse, so long insert/remove runs do
        not leak index range."""
        if node not in self._successors:
            return
        self.ops += 1
        for target in self._successors.pop(node):
            del self._predecessors[target][node]
            self._broken.pop((node, target), None)
        for source in self._predecessors.pop(node):
            del self._successors[source][node]
            self._broken.pop((source, node), None)
        del self._index[node]
        if self._broken:
            self._stale = True
        if self._next_index > 2 * len(self._successors) + 64:
            self._compact()

    def _compact(self) -> None:
        for rank, node in enumerate(
            sorted(self._index, key=self._index.__getitem__)
        ):
            self._index[node] = rank
        self._next_index = len(self._index)

    # ------------------------------------------------------------------
    # Pearce–Kelly order maintenance
    # ------------------------------------------------------------------
    def _place(
        self, source: Hashable, target: Hashable
    ) -> Optional[Tuple[Hashable, ...]]:
        """Restore ``index[source] < index[target]`` after inserting the
        edge, searching only the affected region; return a witness cycle
        instead when one exists (the order is then left untouched)."""
        lower = self._index[target]
        upper = self._index[source]
        if upper < lower:
            return None
        index = self._index
        broken = self._broken
        # forward: nodes reachable from target with index <= upper.  The
        # clean-edge invariant means any path back to source stays inside
        # that window, so hitting source here is the complete cycle test.
        parent: Dict[Hashable, Optional[Hashable]] = {target: None}
        stack: List[Hashable] = [target]
        forward: List[Hashable] = [target]
        while stack:
            node = stack.pop()
            self.visited += 1
            for successor in self._successors[node]:
                if (node, successor) in broken:
                    continue
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
                if (predecessor, node) in broken:
                    continue
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

    def _refresh(self) -> None:
        """Re-verify broken edges after removals: any whose cycle no
        longer exists is re-placed cleanly into the order."""
        if not self._stale:
            return
        self._stale = False
        changed = True
        while changed and self._broken:
            changed = False
            for edge in list(self._broken):
                source, target = edge
                if source == target:
                    continue
                del self._broken[edge]
                if self._place(source, target) is None:
                    changed = True
                else:
                    self._broken[edge] = None

    def _cycle_through_broken(
        self, source: Hashable, target: Hashable
    ) -> Optional[Tuple[Hashable, ...]]:
        """A cycle closed by ``source -> target`` that runs through an
        already-broken edge, if one exists.  The order-maintenance search
        in :meth:`_place` skips broken edges (they are outside the order
        invariant), so this full-edge-set reachability pass is what keeps
        ``add_edge``'s report exact when the caller left cyclic edges in
        the graph.  Free on the hot path: broken edges are removed
        immediately by every scheduler consumer, so ``_broken`` is empty
        and this is a single truthiness check.

        The edge stays *clean* — it respects the maintained order, and
        the broken edge it cycles through already records the graph's
        cyclicity for :meth:`is_acyclic`/:meth:`_refresh`."""
        if not self._broken:
            return None
        parent: Dict[Hashable, Optional[Hashable]] = {target: None}
        stack: List[Hashable] = [target]
        while stack:
            node = stack.pop()
            self.visited += 1
            for successor in self._successors[node]:
                if successor == source:
                    path: List[Hashable] = [node]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return (source, *path)
                if successor not in parent:
                    parent[successor] = node
                    stack.append(successor)
        return None

    def _witness(
        self, source: Hashable, target: Hashable
    ) -> Tuple[Hashable, ...]:
        """A concrete cycle through the broken edge ``source -> target``:
        the edge itself plus a clean path ``target .. -> source``."""
        if source == target:
            return (source,)
        parent: Dict[Hashable, Optional[Hashable]] = {target: None}
        stack: List[Hashable] = [target]
        while stack:
            node = stack.pop()
            for successor in self._successors[node]:
                if (node, successor) in self._broken:
                    continue
                if successor == source:
                    path: List[Hashable] = [node]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return (source, *path)
                if successor not in parent:
                    parent[successor] = node
                    stack.append(successor)
        raise AssertionError(  # pragma: no cover - invariant violation
            f"broken edge {(source, target)!r} has no supporting cycle"
        )

    # ------------------------------------------------------------------
    # inspection (DirectedGraph-compatible)
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

    def copy(self) -> "IncrementalDigraph":
        duplicate = IncrementalDigraph()
        for node, targets in self._successors.items():
            duplicate._successors[node] = dict(targets)
        for node, sources in self._predecessors.items():
            duplicate._predecessors[node] = dict(sources)
        duplicate._index = dict(self._index)
        duplicate._next_index = self._next_index
        duplicate._broken = dict(self._broken)
        duplicate._stale = self._stale
        return duplicate

    # ------------------------------------------------------------------
    # algorithms (DirectedGraph-compatible queries on maintained state)
    # ------------------------------------------------------------------
    def is_acyclic(self) -> bool:
        self._refresh()
        return not self._broken

    def find_cycle(self, start: Optional[Hashable] = None) -> Optional[Tuple]:
        """Some cycle as a node tuple, or ``None``.  With *start*, only
        cycles reachable from a DFS rooted there count (the
        :class:`DirectedGraph` semantics)."""
        self._refresh()
        if not self._broken:
            return None
        if start is None:
            source, target = next(iter(self._broken))
            return self._witness(source, target)
        return self._dfs_cycle(start)

    def _dfs_cycle(self, start: Hashable) -> Optional[Tuple]:
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[Hashable, int] = {node: WHITE for node in self._successors}
        parent: Dict[Hashable, Hashable] = {}
        if start not in color:
            return None
        stack: List[Tuple[Hashable, Iterator[Hashable]]] = [
            (start, iter(self._successors[start]))
        ]
        color[start] = GRAY
        while stack:
            node, successors = stack[-1]
            advanced = False
            for successor in successors:
                if color[successor] == GRAY:
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

    def topological_order(self) -> Tuple[Hashable, ...]:
        """The maintained topological order (O(n log n) readout).

        Raises
        ------
        NonSerializableError
            If the graph contains a cycle (with the cycle as witness).
        """
        self._refresh()
        if self._broken:
            raise NonSerializableError(self.find_cycle() or ())
        return tuple(
            sorted(self._successors, key=self._index.__getitem__)
        )

    def reachable_from(self, node: Hashable) -> Set[Hashable]:
        """Nodes reachable from *node* (excluding it unless on a cycle)."""
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
            f"<IncrementalDigraph nodes={len(self)} "
            f"edges={len(self.edges)} broken={len(self._broken)}>"
        )
