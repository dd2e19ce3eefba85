"""Tickets: forced conflicts for sites without serialization functions.

Sites running SGT or optimistic protocols admit no natural serialization
function (paper §2.2).  The remedy — due to the Ticket Method of
[GRS91] — is to force every *global* subtransaction at such a site to
take a *ticket*: read a designated data item and write it back
incremented.  Any two ticket takers then conflict directly (read-write
and write-write), so the order of ticket writes is consistent with the
local serialization order and the function mapping each subtransaction to
its ticket write is a serialization function.

Local transactions never take tickets; their conflicts with global
transactions remain indirect, exactly as in the paper's model.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.schedules.model import Operation, read, write
from repro.schedules.serialization_functions import DEFAULT_TICKET_ITEM


class TicketDispenser:
    """Builds the ticket operation pair for one site.

    The dispenser itself holds no state about ticket values — the value is
    whatever the transaction read plus one; it exists to keep the ticket
    item name and operation construction in one place.
    """

    def __init__(self, site: str, item: str = DEFAULT_TICKET_ITEM) -> None:
        self.site = site
        self.item = item

    def ticket_operations(
        self, transaction_id: str
    ) -> Tuple[Operation, Operation]:
        """The (read, write) pair implementing take-a-ticket for
        *transaction_id* at this site.  The *write* is the
        serialization-function image ``ser_k(G_i)``."""
        return (
            read(transaction_id, self.item, self.site),
            write(transaction_id, self.item, self.site),
        )

    def next_value(self, current: Optional[int]) -> int:
        """The value the ticket write stores, given the value read."""
        return (current or 0) + 1

    def __repr__(self) -> str:
        return f"<TicketDispenser site={self.site!r} item={self.item!r}>"
