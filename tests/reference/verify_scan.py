"""``verify`` as three passes over graphs built pair by pair.

``repro.mdbs.verification.verify`` builds the union of the local
serialization graphs once and lets one Kahn pass produce the witness and
decide acyclicity; ``transaction_ids`` is a ``dict.fromkeys`` pass.
This module keeps what they replaced: list-membership
``transaction_ids``, local graphs from the materialised
``conflict_pairs``, a union through ``add_node``/``add_edge``, and
``is_acyclic`` per site, then ``find_cycle``, then ``topological_order``
on the union, whatever the verdict.  The reports must be equal field for
field.
"""

from typing import Iterable, List, Optional, Tuple

from repro.mdbs.verification import VerificationReport
from repro.schedules.global_schedule import GlobalSchedule, SerSchedule
from repro.schedules.model import Schedule
from repro.schedules.serialization_graph import DirectedGraph
from tests.reference.ser_all_pairs import all_pairs_serialization_graph
from tests.reference.serializability import conflict_pairs


def scan_transaction_ids(operations: Iterable) -> Tuple[str, ...]:
    """First-appearance order, by list membership per operation."""
    seen: List[str] = []
    for operation in operations:
        if operation.transaction_id not in seen:
            seen.append(operation.transaction_id)
    return tuple(seen)


def scan_serialization_graph(schedule: Schedule) -> DirectedGraph:
    graph = DirectedGraph()
    for transaction_id in scan_transaction_ids(schedule):
        graph.add_node(transaction_id)
    for source, target in sorted(
        {pair.edge for pair in conflict_pairs(schedule)}
    ):
        graph.add_edge(source, target)
    return graph


def scan_union_graph(graphs: Iterable[DirectedGraph]) -> DirectedGraph:
    union = DirectedGraph()
    for graph in graphs:
        for node in graph.nodes:
            union.add_node(node)
        for source, target in graph.edges:
            union.add_edge(source, target)
    return union


def scan_verify(
    global_schedule: GlobalSchedule,
    ser_schedule: Optional[SerSchedule] = None,
) -> VerificationReport:
    local_graphs = {
        site: scan_serialization_graph(global_schedule.local_schedule(site))
        for site in global_schedule.sites
    }
    locals_ok = all(graph.is_acyclic() for graph in local_graphs.values())
    graph = scan_union_graph(local_graphs.values())
    cycle = graph.find_cycle()
    witness: Tuple[str, ...] = ()
    if cycle is None:
        witness = graph.topological_order()
    ser_ok = True
    if ser_schedule is not None:
        committed = set()
        for site in global_schedule.sites:
            committed.update(
                scan_transaction_ids(global_schedule.local_schedule(site))
            )
        ser_ok = all_pairs_serialization_graph(
            operation
            for operation in ser_schedule.operations
            if operation.transaction_id in committed
        ).is_acyclic()
    return VerificationReport(
        locals_serializable=locals_ok,
        globally_serializable=cycle is None,
        ser_schedule_serializable=ser_ok,
        witness=witness,
        cycle=cycle or (),
        site_edges={
            site: len(local_graphs[site].edges)
            for site in global_schedule.sites
        },
    )
