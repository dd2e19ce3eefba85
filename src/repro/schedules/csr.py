"""Serializability tests: conflict (CSR) and view (VSR) serializability.

The paper restricts itself to conflict serializability (footnote 2); the
view-serializability test is provided as supporting machinery for tests
that demonstrate the containment CSR ⊂ VSR on small schedules.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.exceptions import NonSerializableError
from repro.schedules.model import OpType, Schedule
from repro.schedules.serialization_graph import serialization_graph


def is_conflict_serializable(schedule: Schedule) -> bool:
    """True iff SG(schedule) is acyclic (the Serializability Theorem)."""
    return serialization_graph(schedule).is_acyclic()


def serializability_witness(schedule: Schedule) -> Tuple[str, ...]:
    """An equivalent serial order of transaction ids.

    Raises
    ------
    NonSerializableError
        If the schedule is not conflict serializable; the exception carries
        a witness cycle.
    """
    return serialization_graph(schedule).topological_order()


def serial_schedule(schedule: Schedule, order: Tuple[str, ...]) -> Schedule:
    """The serial schedule executing the transactions of *schedule* one at
    a time in *order* (each transaction's internal order preserved)."""
    serial = Schedule()
    for transaction_id in order:
        for operation in schedule.operations_of(transaction_id):
            serial.append(operation)
    return serial


# ----------------------------------------------------------------------
# view serializability (supporting machinery; exponential, small inputs)
# ----------------------------------------------------------------------

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
    for (site, item), writer in last_writer.items():
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

    Exponential in the number of transactions (the problem is NP-complete);
    intended for schedules with at most ~8 transactions, guarded by
    *limit* permutations.
    """
    transaction_ids = schedule.transaction_ids
    count = 0
    for order in itertools.permutations(transaction_ids):
        count += 1
        if count > limit:
            raise NonSerializableError(
                message="view-serializability check exceeded permutation limit"
            )
        if view_equivalent(schedule, serial_schedule(schedule, order)):
            return True
    return False


def enumerate_serializable_orders(schedule: Schedule) -> List[Tuple[str, ...]]:
    """All serial orders the schedule is conflict equivalent to, i.e. all
    topological orders of its serialization graph."""
    graph = serialization_graph(schedule)
    if not graph.is_acyclic():
        return []
    return graph.all_topological_orders()
