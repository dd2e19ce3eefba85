"""The site-graph scheme of Breitbart & Silberschatz [BS88].

The historical baseline the paper's TSG generalizes: a global transaction
may *begin* only if adding its edges to the (bipartite) site graph keeps
the graph acyclic; otherwise the whole transaction waits.  Nodes and
edges are removed when the transaction finishes.

It is a BT-scheme (all restrictions added at ``init``) that is strictly
more pessimistic than Scheme 1: Scheme 1 tolerates TSG cycles and merely
sequences the *marked* operations, while the site-graph scheme refuses to
admit the cycle-closing transaction at all.

**Historical soundness caveat.**  Deleting a finished transaction's node
as soon as it completes (the naive reading of [BS88]) is *unsound*: a
later admission can close a serialization cycle through the departed
transaction.  The paper's Scheme 1 repairs exactly this with its
per-site delete queues (``cond(fin)``), and this implementation adopts
the same discipline; the test suite keeps the historical flaw as a
subclass to show that the repair is load-bearing.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.events import Ack, Fin, Init, Ser
from repro.core.scheme import ConservativeScheme
from repro.core.tsg import TransactionSiteGraph
from repro.exceptions import SchedulerError


class SiteGraphScheme(ConservativeScheme):
    """[BS88]: admit a transaction only while the site graph stays
    acyclic; conservative (no aborts), low concurrency."""

    name = "site-graph"

    def __init__(self) -> None:
        super().__init__()
        self.tsg = TransactionSiteGraph(self.metrics)
        self._outstanding: Dict[str, str] = {}
        #: per site: completion (ack) order, for the sound fin discipline
        self._delete_queues: Dict[str, List[str]] = {}

    # -- init ----------------------------------------------------------------
    def cond_init(self, operation: Init) -> bool:
        """Admission test: would the new edges close a cycle?  Two of the
        transaction's sites already connected in the graph means yes."""
        self.metrics.step()
        probe = f"__probe_{operation.transaction_id}"
        self.tsg.insert_transaction(probe, operation.sites)
        acyclic = not self.tsg.cycle_sites(probe)
        self.tsg.remove_transaction(probe)
        return acyclic

    def act_init(self, operation: Init) -> None:
        self.tsg.insert_transaction(operation.transaction_id, operation.sites)

    # -- ser -----------------------------------------------------------------
    def cond_ser(self, operation: Ser) -> bool:
        self.metrics.step()
        # the transaction must have been admitted (its init may still be
        # waiting — this is the only scheme whose init can wait), and at
        # most one unacknowledged submission per site
        if not self.tsg.has_transaction(operation.transaction_id):
            return False
        return operation.site not in self._outstanding

    def act_ser(self, operation: Ser) -> None:
        self.metrics.step()
        self._outstanding[operation.site] = operation.transaction_id
        self.submit(operation)

    # -- ack -----------------------------------------------------------------
    def act_ack(self, operation: Ack) -> None:
        if self._outstanding.get(operation.site) != operation.transaction_id:
            raise SchedulerError(
                f"ack {operation!r} for a non-outstanding submission"
            )
        del self._outstanding[operation.site]
        self._delete_queues.setdefault(operation.site, []).append(
            operation.transaction_id
        )
        self.forward(operation)

    # -- fin -----------------------------------------------------------------
    def cond_fin(self, operation: Fin) -> bool:
        self.metrics.step()
        transaction_id = operation.transaction_id
        for site in self.tsg.sites_of(transaction_id):
            self.metrics.step()
            queue = self._delete_queues.get(site, [])
            if not queue or queue[0] != transaction_id:
                return False
        return True

    def act_fin(self, operation: Fin) -> None:
        transaction_id = operation.transaction_id
        for site in self.tsg.sites_of(transaction_id):
            queue = self._delete_queues.get(site, [])
            if transaction_id in queue:
                queue.remove(transaction_id)
        self.tsg.remove_transaction(transaction_id)

    # -- fault handling ---------------------------------------------------------
    def remove_transaction(self, transaction_id: str) -> None:
        if self.tsg.has_transaction(transaction_id):
            self.tsg.remove_transaction(transaction_id)
        for site, outstanding in list(self._outstanding.items()):
            if outstanding == transaction_id:
                del self._outstanding[site]
        for queue in self._delete_queues.values():
            while transaction_id in queue:
                queue.remove(transaction_id)
