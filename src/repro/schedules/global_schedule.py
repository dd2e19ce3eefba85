"""Global schedules, restrictions, and the ``ser(S)`` reduction (paper §2).

A global schedule *S* is the set of all operations of local and global
transactions with a partial order; the local schedule at site ``s_k`` is
the restriction of *S* to the operations executing at ``s_k``, with a
total order.  This module represents *S* as the collection of its local
schedules (which is faithful: the paper's partial order on *S* is exactly
the union of the local total orders plus each transaction's program
order), represents the projected schedule ``ser(S)`` of Theorems 1–2
(GTM2 appends to it as it releases ser-operations), and provides the
global-serializability test used for verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.exceptions import ScheduleError
from repro.schedules.model import Schedule
from repro.schedules.serialization_graph import (
    DirectedGraph,
    serialization_graph,
    union_graph,
)


class GlobalSchedule:
    """A global MDBS schedule represented by its per-site local schedules.

    Parameters
    ----------
    local_schedules:
        Mapping from site identifier to the (totally ordered) local
        schedule that executed there.
    global_transaction_ids:
        Which transaction identifiers denote *global* transactions (those
        coordinated by the GTM).  All other transactions appearing in the
        local schedules are local transactions.
    """

    def __init__(
        self,
        local_schedules: Mapping[str, Schedule],
        global_transaction_ids: Iterable[str] = (),
    ) -> None:
        self._local_schedules: Dict[str, Schedule] = dict(local_schedules)
        self._global_ids = set(global_transaction_ids)
        #: per-site serialization-graph cache, validated by schedule
        #: length (local schedules are append-only, so a length match
        #: means the schedule — and hence its graph — is unchanged)
        self._graph_cache: Dict[str, Tuple[int, DirectedGraph]] = {}
        for site, schedule in self._local_schedules.items():
            for operation in schedule:
                if operation.site is not None and operation.site != site:
                    raise ScheduleError(
                        f"operation {operation!r} claims site "
                        f"{operation.site!r} but appears in the local "
                        f"schedule of {site!r}"
                    )

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def sites(self) -> Tuple[str, ...]:
        return tuple(self._local_schedules)

    def local_schedule(self, site: str) -> Schedule:
        return self._local_schedules[site]

    @property
    def global_transaction_ids(self) -> frozenset:
        return frozenset(self._global_ids)

    def sites_of(self, transaction_id: str) -> Tuple[str, ...]:
        """Sites at which *transaction_id* executed at least one operation."""
        return tuple(
            site
            for site, schedule in self._local_schedules.items()
            if schedule.operations_of(transaction_id)
        )

    # ------------------------------------------------------------------
    # serializability
    # ------------------------------------------------------------------
    def local_serialization_graphs(self) -> Dict[str, DirectedGraph]:
        """Per-site serialization graphs, cached: verification asks for
        them several times per report (locals check, global union, edge
        counts) and the conflict scan dominates its profile.  Callers
        must treat the returned graphs as read-only."""
        graphs: Dict[str, DirectedGraph] = {}
        for site, schedule in self._local_schedules.items():
            cached = self._graph_cache.get(site)
            if cached is not None and cached[0] == len(schedule):
                graphs[site] = cached[1]
            else:
                graph = serialization_graph(schedule)
                self._graph_cache[site] = (len(schedule), graph)
                graphs[site] = graph
        return graphs

    def global_serialization_graph(self) -> DirectedGraph:
        """The union of all local serialization graphs.

        The global schedule is (conflict) serializable iff this union is
        acyclic, because every conflict in S occurs inside exactly one
        local schedule.
        """
        return union_graph(self.local_serialization_graphs().values())

    def is_globally_serializable(self) -> bool:
        return self.global_serialization_graph().is_acyclic()

    def assert_globally_serializable(self) -> Tuple[str, ...]:
        """A witness global serial order, or raise with a witness cycle."""
        return self.global_serialization_graph().topological_order()

    def are_locals_serializable(self) -> bool:
        """The paper's standing assumption: each local DBMS produces
        conflict-serializable local schedules."""
        return all(
            graph.is_acyclic()
            for graph in self.local_serialization_graphs().values()
        )

    def __repr__(self) -> str:
        sizes = {site: len(s) for site, s in self._local_schedules.items()}
        return f"<GlobalSchedule sites={sizes} globals={len(self._global_ids)}>"


@dataclass(frozen=True)
class SerOperation:
    """One operation of the projected schedule ``ser(S)``.

    ``ser_k(G_i)``: the serialization-function image of global transaction
    ``transaction_id`` at site ``site``.  Two ``SerOperation``s *conflict*
    iff they are at the same site (paper §2.3), regardless of data items.
    """

    transaction_id: str
    site: str

    def conflicts_with(self, other: "SerOperation") -> bool:
        return (
            self.site == other.site
            and self.transaction_id != other.transaction_id
        )

    def __repr__(self) -> str:
        return f"ser_{self.site}({self.transaction_id})"


class SerSchedule:
    """The projected schedule ``ser(S)`` (paper §2.3).

    A totally ordered sequence of :class:`SerOperation` — the order is the
    order in which the serialization-function operations executed (at
    GTM2, this is the order in which ``act(ser_k(G_i))`` ran).  Conflicts
    are site-equality; the serialization graph over those conflicts being
    acyclic is exactly the sufficient condition of Theorem 2.
    """

    def __init__(self, operations: Iterable[SerOperation] = ()) -> None:
        self._operations: List[SerOperation] = []
        #: cached serialization graph, invalidated on append
        self._graph_cache: Optional[DirectedGraph] = None
        for operation in operations:
            self.append(operation)

    def append(self, operation: SerOperation) -> SerOperation:
        self._graph_cache = None
        self._operations.append(operation)
        return operation

    @property
    def operations(self) -> Tuple[SerOperation, ...]:
        return tuple(self._operations)

    @property
    def transaction_ids(self) -> Tuple[str, ...]:
        return tuple(
            dict.fromkeys(op.transaction_id for op in self._operations)
        )

    def serialization_graph(self) -> DirectedGraph:
        """The site-order reduction of SG over ser-conflicts, not the
        full SG.

        Every two operations at a site conflict, so the full SG — an
        edge Gi -> Gj whenever some ``ser_k(G_i)`` precedes a
        ``ser_k(G_j)`` — is the transitive closure of each site's
        consecutive pairs.  Only those are edges here: an operation is
        linked from the one before it at its site unless both belong to
        one transaction, so there is at most one edge per operation.  A
        transaction returning to a site (``a b a``) gets ``a -> b -> a``,
        a cycle in both graphs.  Reachability, hence the verdict and the
        set of valid witness orders, is that of the full SG
        (``tests/reference/ser_all_pairs.py`` keeps it as the oracle);
        nodes are in first-appearance order.  The result is cached until
        the next append; callers must treat it as read-only."""
        if self._graph_cache is not None:
            return self._graph_cache
        graph = DirectedGraph()
        for transaction_id in self.transaction_ids:
            graph.add_node(transaction_id)
        last_at_site: Dict[str, str] = {}
        for operation in self._operations:
            transaction_id = operation.transaction_id
            previous = last_at_site.get(operation.site, transaction_id)
            if previous != transaction_id:
                graph.add_edge(previous, transaction_id)
            last_at_site[operation.site] = transaction_id
        self._graph_cache = graph
        return graph

    def is_serializable(self) -> bool:
        return self.serialization_graph().is_acyclic()

    def witness_order(self) -> Tuple[str, ...]:
        return self.serialization_graph().topological_order()

    def __len__(self) -> int:
        return len(self._operations)

    def __iter__(self):
        return iter(self._operations)

    def __repr__(self) -> str:
        return f"<SerSchedule {' '.join(map(repr, self._operations))}>"

