"""Serialization functions that no local protocol declares, kept for the
tests that compare them with the declared ones.

Footnote 3 of the paper allows any operation inside a 2PL transaction's
locked window (from the lock point to the first release) as its image;
strict 2PL declares the commit end of that window, and the lock point is
its other end.  Conservative TO fixes the timestamp when the transaction
begins, so begin is declared; the first data operation is the other
candidate, checked on the same histories
(``tests/test_serialization_function_fidelity.py``).

:func:`image` applies a function to an executed history, and
:func:`is_valid_for` checks the defining property there: whenever ``Ti``
serializes before ``Tj`` locally, ``ser(Ti)`` precedes ``ser(Tj)``.
"""

from repro.exceptions import ProtocolViolation
from repro.schedules.model import Operation, Schedule
from repro.schedules.serialization_functions import SerializationFunction
from repro.schedules.serialization_graph import serialization_graph


def image(function: SerializationFunction, schedule: Schedule, transaction_id: str) -> Operation:
    """The designated operation ``ser_k(T)`` for *transaction_id* in the
    (complete) local *schedule*."""
    operations = schedule.operations_of(transaction_id)
    index = function.select(operations)
    if index is None:
        raise ProtocolViolation(
            f"transaction {transaction_id!r} has no {function.name} image at this site"
        )
    return operations[index]


def is_valid_for(function: SerializationFunction, schedule: Schedule) -> bool:
    """Whether *function*'s images respect the local serialization order
    of *schedule*.

    An SG edge ``Ti -> Tj`` means ``Ti`` serializes before ``Tj`` in
    every equivalent serial order, so the images must be ordered the
    same way.
    """
    graph = serialization_graph(schedule)
    if not graph.is_acyclic():
        raise ProtocolViolation(
            "serialization functions are only defined over serializable "
            "local schedules"
        )
    images = {t: image(function, schedule, t) for t in schedule.transaction_ids}
    return all(
        schedule.precedes(images[source], images[target])
        for source, target in graph.edges
    )


class FirstOperationSerializationFunction(SerializationFunction):
    """``ser_k(T)`` = first data operation — valid for conservative TO
    sites that assign the timestamp when the first operation arrives."""

    name = "first-op"

    def designates(self, operation):
        return operation.accesses_data


class LockPointSerializationFunction(SerializationFunction):
    """Lock-point image for 2PL sites.

    For strict 2PL every lock is held until commit, so the lock point is
    the transaction's *last data operation* (the last lock is acquired
    there); we pick that operation itself.
    """

    name = "lock-point"

    def designates(self, operation):
        return operation.accesses_data

    def select(self, operations):
        indices = [
            index
            for index, operation in enumerate(operations)
            if self.designates(operation)
        ]
        return indices[-1] if indices else None
