"""Conflict and view serializability as the textbook states them.

The runtime needs one test from this theory: a schedule is conflict
serializable iff its serialization graph is acyclic, and any topological
order of that graph is an equivalent serial order
(``serialization_graph(s).is_acyclic()`` / ``.topological_order()``).
The rest — conflict pairs and conflict equivalence, every serial order a
schedule is equivalent to, and view serializability (footnote 2 of the
paper restricts itself to conflict serializability) — is kept here as
the oracle the schedule-layer tests check the runtime graph against.

The conflict relation is a plain scan over every pair of operations, so
it shares no code with the bucketed scan inside ``serialization_graph``.
"""

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.exceptions import NonSerializableError
from repro.schedules.model import Operation, OpType, Schedule
from repro.schedules.serialization_graph import DirectedGraph, serialization_graph


@dataclass(frozen=True)
class ConflictPair:
    """An ordered conflict: ``first`` executed before ``second``."""

    first: Operation
    second: Operation

    @property
    def edge(self) -> Tuple[str, str]:
        """The serialization-graph edge induced by this conflict."""
        return (self.first.transaction_id, self.second.transaction_id)

    def __repr__(self) -> str:
        return f"{self.first!r} << {self.second!r}"


def conflict_pairs(schedule: Schedule) -> List[ConflictPair]:
    """All ordered conflict pairs of *schedule*, every pair examined."""
    operations = list(schedule)
    return [
        ConflictPair(first, second)
        for i, first in enumerate(operations)
        for second in operations[i + 1 :]
        if first.conflicts_with(second)
    ]


def conflicting_transactions(schedule: Schedule) -> Dict[str, Set[str]]:
    """Adjacency map: transaction id → transactions it conflicts with
    (in either direction)."""
    adjacency: Dict[str, Set[str]] = {t: set() for t in schedule.transaction_ids}
    for pair in conflict_pairs(schedule):
        source, target = pair.edge
        adjacency[source].add(target)
        adjacency[target].add(source)
    return adjacency


def conflict_equivalent(first: Schedule, second: Schedule) -> bool:
    """True iff the two schedules are conflict equivalent: same operations
    and every conflicting pair ordered the same way (Papadimitriou 1986)."""

    def operations(schedule: Schedule) -> Set[Tuple]:
        return {(op.op_type, op.transaction_id, op.item, op.site) for op in schedule}

    def ordered_conflicts(schedule: Schedule) -> Set[Tuple]:
        return {
            (
                pair.first.op_type,
                pair.first.transaction_id,
                pair.second.op_type,
                pair.second.transaction_id,
                pair.first.item,
                pair.first.site,
            )
            for pair in conflict_pairs(schedule)
        }

    return operations(first) == operations(second) and ordered_conflicts(
        first
    ) == ordered_conflicts(second)


def serial_schedule(schedule: Schedule, order: Tuple[str, ...]) -> Schedule:
    """The serial schedule executing the transactions of *schedule* one at
    a time in *order* (each transaction's internal order preserved)."""
    serial = Schedule()
    for transaction_id in order:
        for operation in schedule.operations_of(transaction_id):
            serial.append(operation)
    return serial


def all_topological_orders(graph: DirectedGraph, limit: int = 10000) -> List[Tuple]:
    """All topological orders of *graph* (up to *limit*), for small graphs."""
    in_degree = {node: len(graph.predecessors(node)) for node in graph.nodes}
    orders: List[Tuple] = []
    order: List = []

    def extend() -> bool:
        if len(orders) >= limit:
            return False
        if len(order) == len(in_degree):
            orders.append(tuple(order))
            return True
        for node, degree in list(in_degree.items()):
            if degree == 0 and node not in order:
                order.append(node)
                for successor in graph.successors(node):
                    in_degree[successor] -= 1
                if not extend():
                    return False
                for successor in graph.successors(node):
                    in_degree[successor] += 1
                order.pop()
        return True

    extend()
    return orders


def enumerate_serializable_orders(schedule: Schedule) -> List[Tuple[str, ...]]:
    """All serial orders the schedule is conflict equivalent to, i.e. all
    topological orders of its serialization graph."""
    graph = serialization_graph(schedule)
    if not graph.is_acyclic():
        return []
    return all_topological_orders(graph)


# -- view serializability (exponential; small inputs) ------------------

_INITIAL = "<initial>"
_FINAL = "<final>"


def _reads_from(schedule: Schedule) -> Dict[Tuple[str, str], str]:
    """Map (reader transaction, item) -> writer transaction it reads from.

    ``_INITIAL`` denotes the initial database state.  The last writer of
    each item additionally feeds the ``_FINAL`` reader.
    """
    last_writer: Dict[Tuple[Optional[str], str], str] = {}
    reads: Dict[Tuple[str, str], str] = {}
    for operation in schedule:
        key = (operation.site, operation.item or "")
        if operation.op_type is OpType.READ:
            reads[(operation.transaction_id, operation.item or "")] = (
                last_writer.get(key, _INITIAL)
            )
        elif operation.op_type is OpType.WRITE:
            last_writer[key] = operation.transaction_id
    for (_site, item), writer in last_writer.items():
        reads[(_FINAL, item)] = writer
    return reads


def view_equivalent(first: Schedule, second: Schedule) -> bool:
    """True iff the schedules have identical reads-from relations and
    final writes (view equivalence)."""
    if set(first.transaction_ids) != set(second.transaction_ids):
        return False
    return _reads_from(first) == _reads_from(second)


def is_view_serializable(schedule: Schedule, limit: int = 40320) -> bool:
    """True iff *schedule* is view equivalent to some serial schedule.

    Exponential in the number of transactions (the problem is
    NP-complete); meant for schedules with at most ~8 transactions,
    guarded by *limit* permutations.
    """
    for count, order in enumerate(
        itertools.permutations(schedule.transaction_ids), start=1
    ):
        if count > limit:
            raise NonSerializableError(
                message="view-serializability check exceeded permutation limit"
            )
        if view_equivalent(schedule, serial_schedule(schedule, order)):
            return True
    return False
