"""Serialization functions (paper §2.2).

A serialization function ``ser_k`` for site ``s_k`` maps every transaction
executing at ``s_k`` to one of its operations such that the order of those
images in the local schedule is consistent with the local serialization
order.  Which function exists depends on the site's concurrency-control
protocol, so each protocol class declares its own as
``LocalScheduler.serialization_function``:

- **Timestamp ordering** (basic and conservative) and **conservative
  2PL** serialize in begin order: ``ser_k(T) = begin(T)``.
- **Strict 2PL** (and its wound-wait / wait-die variants): commit lies
  inside the locked window, so ``ser_k(T) = commit(T)``.
- **SGT / optimistic** protocols admit no serialization function; a
  *ticket* (a forced write to a designated item) is introduced, and
  ``ser_k(T)`` is the ticket write ([GRS91], §2.2 of the paper).

Each function is one selection rule over a transaction's operations at
one site (:meth:`SerializationFunction.select`).  GTM1 applies it to a
site's *planned* operations to flag the image it gates through GTM2
(:func:`repro.core.gtm.plan_program`); :meth:`~SerializationFunction.image`
applies it to the post-run history, and
:meth:`~SerializationFunction.is_valid_for` checks after the fact that the
images respect the local serialization order.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.exceptions import ProtocolViolation
from repro.schedules.model import Operation, OpType, Schedule
from repro.schedules.serialization_graph import serialization_graph

#: Name of the ticket data item at a site.
DEFAULT_TICKET_ITEM = "__ticket__"


class SerializationFunction:
    """Base class: maps transactions of one site to designated operations."""

    #: human-readable strategy name
    name = "abstract"

    #: True when every global subtransaction must take a ticket (read and
    #: write :data:`DEFAULT_TICKET_ITEM`) for the function to have an image
    takes_ticket = False

    def designates(self, operation: Operation) -> bool:
        """Whether *operation* is the kind of operation this function
        maps a transaction to (the first such one is the image)."""
        raise NotImplementedError

    def select(self, operations: Sequence[Operation]) -> Optional[int]:
        """Index of ``ser_k(T)`` among *operations* — one transaction's
        operations at one site, in order — or None when it has none."""
        for index, operation in enumerate(operations):
            if self.designates(operation):
                return index
        return None

    def image(self, schedule: Schedule, transaction_id: str) -> Operation:
        """The designated operation ``ser_k(T)`` for *transaction_id* in
        the (complete) local *schedule*."""
        operations = schedule.operations_of(transaction_id)
        index = self.select(operations)
        if index is None:
            raise ProtocolViolation(
                f"transaction {transaction_id!r} has no {self.name} image "
                "at this site"
            )
        return operations[index]

    def images(self, schedule: Schedule) -> Dict[str, Operation]:
        """Images for every transaction appearing in *schedule*."""
        return {
            transaction_id: self.image(schedule, transaction_id)
            for transaction_id in schedule.transaction_ids
        }

    def is_valid_for(self, schedule: Schedule) -> bool:
        """Validate the defining property on *schedule*: whenever ``Ti`` is
        serialized before ``Tj`` locally, ``ser(Ti)`` precedes ``ser(Tj)``.

        Serialization order is taken from the local serialization graph:
        an SG edge ``Ti -> Tj`` means ``Ti`` serializes before ``Tj`` in
        every equivalent serial order, so the images must be ordered the
        same way.
        """
        graph = serialization_graph(schedule)
        if not graph.is_acyclic():
            raise ProtocolViolation(
                "serialization functions are only defined over serializable "
                "local schedules"
            )
        images = self.images(schedule)
        for source, target in graph.edges:
            if not schedule.precedes(images[source], images[target]):
                return False
        return True


class BeginSerializationFunction(SerializationFunction):
    """``ser_k(T) = b(T)`` — valid for sites that serialize in begin
    order (TO and conservative TO timestamp at begin; conservative 2PL
    takes every lock there)."""

    name = "begin"

    def designates(self, operation: Operation) -> bool:
        return operation.op_type is OpType.BEGIN


class CommitSerializationFunction(SerializationFunction):
    """``ser_k(T) = c(T)`` — valid for strict 2PL (commit lies inside the
    locked window) and for optimistic protocols that serialize at commit
    (validation order = commit order)."""

    name = "commit"

    def designates(self, operation: Operation) -> bool:
        return operation.op_type is OpType.COMMIT


class TicketSerializationFunction(SerializationFunction):
    """``ser_k(T)`` = the transaction's write to the site's ticket item.

    For protocols (SGT, some optimistic variants) with no natural
    serialization function, every global subtransaction is forced to write
    the designated *ticket* data item, creating direct conflicts between
    all global subtransactions at the site (paper §2.2, [GRS91]).
    """

    name = "ticket"
    takes_ticket = True

    def designates(self, operation: Operation) -> bool:
        return operation.is_write and operation.item == DEFAULT_TICKET_ITEM
