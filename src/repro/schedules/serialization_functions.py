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
(:func:`repro.core.gtm.plan_program`).  That the rule's images in an
executed history respect the local serialization order is checked by the
tests, against the history's serialization graph.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.schedules.model import Operation, OpType

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
    serialization function, GTM1 makes every global subtransaction take a
    *ticket*: read the designated ticket item and write it back
    incremented (:func:`repro.core.gtm.plan_program`).  Any two ticket
    takers then conflict directly, so the order of their ticket writes
    is consistent with the local serialization order (paper §2.2,
    [GRS91]).  Local transactions never take tickets; their conflicts
    with global transactions stay indirect, as in the paper's model.
    """

    name = "ticket"
    takes_ticket = True

    def designates(self, operation: Operation) -> bool:
        return operation.is_write and operation.item == DEFAULT_TICKET_ITEM
