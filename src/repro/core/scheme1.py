"""Scheme 1 — the transaction-site graph scheme (paper §5).

Data structures: the TSG, plus an *insert queue* and a *delete queue* per
site.  On ``init``, the transaction and its edges join the TSG and each
``ser_k(G_i)`` joins the insert queue of ``s_k``; the operation is
*marked* if the TSG contains a cycle involving its edge.

- ``cond(ser_k(G_i))``: at site ``s_k`` no submitted ser-operation is
  still unacknowledged, and, if marked, ``ser_k(G_i)`` is first in the
  insert queue.
- ``act(ack)``: the operation moves from the insert queue (any position)
  to the back of the delete queue.
- ``cond(fin_i)``: every ``ser_k(G_i)`` is at the front of its delete
  queue — so TSG nodes are removed only in per-site completion order.

The scheme allows TSG cycles to exist; marking merely *sequences* the
operations whose concurrent execution could turn a TSG cycle into a
serialization-graph cycle.  Theorem 3 (correctness) and Theorem 4
(complexity O(m + n + n·dav)) are exercised by tests and benchmark E1.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.events import Ack, Fin, Init, Ser
from repro.core.scheme import ConservativeScheme
from repro.core.tsg import TransactionSiteGraph
from repro.exceptions import SchedulerError


class Scheme1(ConservativeScheme):
    """TSG + marking; higher concurrency than Scheme 0 at O(m+n+n·dav).

    Decisions are site-component-local: the TSG only connects
    transactions through shared site nodes, and the insert/delete queues are per-site — state about
    one site component never influences decisions in another.
    """

    name = "scheme1"

    def __init__(self) -> None:
        super().__init__()
        self.tsg = TransactionSiteGraph(self.metrics)
        #: per site: insert queue of transaction ids (order of init)
        self._insert_queues: Dict[str, List[str]] = {}
        #: per site: delete queue of transaction ids (order of ack)
        self._delete_queues: Dict[str, List[str]] = {}
        #: marked ser-operations, as (transaction, site)
        self._marked: Set[Tuple[str, str]] = set()
        #: ser-operations submitted but not yet acknowledged, per site
        self._outstanding: Dict[str, str] = {}

    # -- init ----------------------------------------------------------------
    def act_init(self, operation: Init) -> None:
        transaction_id = operation.transaction_id
        self.tsg.insert_transaction(transaction_id, operation.sites)
        for site in operation.sites:
            self.metrics.step()
            self._insert_queues.setdefault(site, []).append(transaction_id)
        for site in self.tsg.cycle_sites(transaction_id):
            self.metrics.step()
            self._marked.add((transaction_id, site))

    # -- ser -----------------------------------------------------------------
    def cond_ser(self, operation: Ser) -> bool:
        key = (operation.transaction_id, operation.site)
        self.metrics.step()
        # "if act(ser_k(G_j)) has executed, then act(ack(ser_k(G_j))) has
        # also completed" — i.e. at most one unacknowledged submission per
        # site.
        if operation.site in self._outstanding:
            return False
        if key in self._marked:
            self.metrics.step()
            queue = self._insert_queues.get(operation.site, [])
            if not queue or queue[0] != operation.transaction_id:
                return False
        return True

    def act_ser(self, operation: Ser) -> None:
        self.metrics.step()
        self._outstanding[operation.site] = operation.transaction_id
        self.submit(operation)

    # -- ack -----------------------------------------------------------------
    def act_ack(self, operation: Ack) -> None:
        transaction_id, site = operation.transaction_id, operation.site
        if self._outstanding.get(site) != transaction_id:
            raise SchedulerError(
                f"ack {operation!r} for a non-outstanding submission"
            )
        del self._outstanding[site]
        queue = self._insert_queues.get(site, [])
        # removal may be from any position of the insert queue
        for index, queued in enumerate(queue):
            self.metrics.step()
            if queued == transaction_id:
                del queue[index]
                break
        else:
            raise SchedulerError(
                f"{transaction_id!r} missing from insert queue of {site!r}"
            )
        self._delete_queues.setdefault(site, []).append(transaction_id)
        self._marked.discard((transaction_id, site))
        self.forward(operation)

    # -- fin -----------------------------------------------------------------
    def cond_fin(self, operation: Fin) -> bool:
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
            self.metrics.step()
            self._delete_queues[site].pop(0)
        self.tsg.remove_transaction(transaction_id)

    # -- wake hints (paper §5 complexity accounting) -----------------------------
    def wake_hints(self, operation):
        """An ack clears the site's outstanding slot (waiting
        ser-operations there become eligible) and may complete the acked
        transaction (its fin becomes eligible); a fin pops delete-queue
        fronts, enabling other fins."""
        if isinstance(operation, Ack):
            return [
                ("ser", None, operation.site),
                ("fin", operation.transaction_id, None),
            ]
        if isinstance(operation, Fin):
            return [("fin", None, None)]
        return []

    # -- observability ---------------------------------------------------------
    def explain_block(self, operation):
        """Mirror :meth:`cond_ser`/:meth:`cond_fin` read-only: name the
        outstanding submission, marked-queue front, or delete-queue front
        that holds the operation back."""
        if isinstance(operation, Ser):
            transaction_id, site = operation.transaction_id, operation.site
            outstanding = self._outstanding.get(site)
            if outstanding is not None and outstanding != transaction_id:
                return {
                    "type": "one-outstanding",
                    "site": site,
                    "blocking": outstanding,
                    "after": transaction_id,
                }
            if (transaction_id, site) in self._marked:
                queue = self._insert_queues.get(site, [])
                if queue and queue[0] != transaction_id:
                    return {
                        "type": "marked-insert-queue",
                        "site": site,
                        "blocking": queue[0],
                        "after": transaction_id,
                    }
        if isinstance(operation, Fin):
            transaction_id = operation.transaction_id
            for site in self.tsg.sites_of(transaction_id):
                queue = self._delete_queues.get(site, [])
                if not queue or queue[0] != transaction_id:
                    return {
                        "type": "delete-queue",
                        "site": site,
                        "blocking": queue[0] if queue else None,
                        "after": transaction_id,
                    }
        return None

    # -- fault handling (GTM aborts; see DESIGN.md) ----------------------------
    def remove_transaction(self, transaction_id: str) -> None:
        """Purge an aborted transaction from the TSG, the queues, the
        marked set, and the outstanding-submission slots."""
        if self.tsg.has_transaction(transaction_id):
            self.tsg.remove_transaction(transaction_id)
        for queue in self._insert_queues.values():
            while transaction_id in queue:
                queue.remove(transaction_id)
        for queue in self._delete_queues.values():
            while transaction_id in queue:
                queue.remove(transaction_id)
        self._marked = {
            key for key in self._marked if key[0] != transaction_id
        }
        for site, outstanding in list(self._outstanding.items()):
            if outstanding == transaction_id:
                del self._outstanding[site]
