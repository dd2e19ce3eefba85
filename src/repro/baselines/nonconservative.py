"""Non-conservative (abort-based) GTM2 concurrency control.

The paper's §3 argues that classical abort-based schemes are unsuitable
for GTM2 because *every* pair of ser-operations at a site conflicts, so
2PL deadlocks and TO/optimistic rejections hit entire global
transactions.  These classes make that claim measurable (benchmark E7):
they implement 2PL, TO, and backward-validation optimistic CC directly
over ``ser(S)`` in the same engine framework, aborting transactions
instead of waiting conservatively.

A scheme aborts through ``context.abort_transaction``: GTM2 drops the
transaction's queued and waiting operations at once, like any purge,
and GTM1 hears of the abort (the simulator aborts and restarts the
global transaction); the committed projection of ``ser(S)`` stays
serializable, which the tests verify.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.events import Ack, Fin, Init, Ser
from repro.core.scheme import ConservativeScheme
from repro.lmdbs.deadlock import DeadlockDetector
from repro.schedules.serialization_graph import DirectedGraph


class TimestampGTM(ConservativeScheme):
    """Basic TO over ``ser(S)``: timestamps at ``init``; a ser-operation
    arriving at a site after a younger transaction's has executed there
    aborts its transaction (§3 claim: "a large number of transaction
    aborts")."""

    name = "to-gtm"

    def __init__(self) -> None:
        super().__init__()
        self._clock = 0
        self._timestamps: Dict[str, int] = {}
        #: per site: largest timestamp whose ser executed there
        self._high_water: Dict[str, int] = {}

    def act_init(self, operation: Init) -> None:
        self.metrics.step()
        self._clock += 1
        self._timestamps[operation.transaction_id] = self._clock

    def cond_ser(self, operation: Ser) -> bool:
        self.metrics.step()
        return True

    def act_ser(self, operation: Ser) -> None:
        transaction_id = operation.transaction_id
        self.metrics.step()
        timestamp = self._timestamps[transaction_id]
        if timestamp < self._high_water.get(operation.site, 0):
            self.context.abort_transaction(transaction_id)
            return
        self._high_water[operation.site] = timestamp
        self.submit(operation)

    def act_ack(self, operation: Ack) -> None:
        self.metrics.step()
        self.forward(operation)

    def cond_fin(self, operation: Fin) -> bool:
        self.metrics.step()
        return True

    def act_fin(self, operation: Fin) -> None:
        self._timestamps.pop(operation.transaction_id, None)

    def remove_transaction(self, transaction_id: str) -> None:
        self._timestamps.pop(transaction_id, None)


class TwoPhaseLockingGTM(ConservativeScheme):
    """2PL over ``ser(S)``: a transaction locks each site at its
    ser-operation and releases at ``fin``.  Since all ser-operations at a
    site conflict, the site lock is exclusive; waits-for cycles are
    resolved by aborting the youngest transaction (§3 claim: "frequent
    deadlocks").  Every blocked request runs the detector's full
    ``check``: a site-lock grant adds an edge from every waiter at that
    site, so a new cycle need not pass through the requester."""

    name = "2pl-gtm"

    def __init__(self) -> None:
        super().__init__()
        self._lock_holder: Dict[str, Optional[str]] = {}
        self._waiters: Dict[str, List[str]] = {}
        self._detector = DeadlockDetector(self._waits_for)

    def act_init(self, operation: Init) -> None:
        self.metrics.step()
        self._detector.register_begin(operation.transaction_id)

    def cond_ser(self, operation: Ser) -> bool:
        transaction_id, site = operation.transaction_id, operation.site
        self.metrics.step()
        holder = self._lock_holder.get(site)
        if holder is None or holder == transaction_id:
            return True
        waiters = self._waiters.setdefault(site, [])
        if transaction_id not in waiters:
            waiters.append(transaction_id)
        deadlock = self._detector.check()
        if deadlock is not None:
            victim, _ = deadlock
            self.deadlocks += 1
            self.context.abort_transaction(victim)
            # the victim's released locks can enable waiting operations
            self.context.request_rescan()
        holder = self._lock_holder.get(site)
        return holder is None or holder == transaction_id

    def act_ser(self, operation: Ser) -> None:
        transaction_id, site = operation.transaction_id, operation.site
        self.metrics.step()
        waiters = self._waiters.get(site, [])
        if transaction_id in waiters:
            waiters.remove(transaction_id)
        self._lock_holder[site] = transaction_id
        self.submit(operation)

    def act_ack(self, operation: Ack) -> None:
        self.metrics.step()
        self.forward(operation)

    def cond_fin(self, operation: Fin) -> bool:
        self.metrics.step()
        return True

    def act_fin(self, operation: Fin) -> None:
        self._release_all(operation.transaction_id)

    def _release_all(self, transaction_id: str) -> None:
        for site, holder in list(self._lock_holder.items()):
            self.metrics.step()
            if holder == transaction_id:
                self._lock_holder[site] = None
        for waiters in self._waiters.values():
            if transaction_id in waiters:
                waiters.remove(transaction_id)
        self._detector.forget(transaction_id)

    def _waits_for(self) -> Set[Tuple[str, str]]:
        edges: Set[Tuple[str, str]] = set()
        for site, waiters in self._waiters.items():
            holder = self._lock_holder.get(site)
            if holder is None:
                continue
            for waiter in waiters:
                self.metrics.step()
                edges.add((waiter, holder))
        return edges

    def remove_transaction(self, transaction_id: str) -> None:
        self._release_all(transaction_id)


class OptimisticGTM(ConservativeScheme):
    """Backward-validation optimistic CC over ``ser(S)``: ser-operations
    execute freely; at ``fin`` the transaction validates that its
    per-site positions do not close a cycle among committed transactions,
    aborting otherwise.  With tickets at every site this is exactly the
    Optimistic Ticket Method of [GRS91] — see
    :mod:`repro.baselines.ticket_otm`."""

    name = "optimistic-gtm"
    aborts_at_fin = True

    def __init__(self) -> None:
        super().__init__()
        #: per site: committed/active execution order of ser-operations
        self._site_orders: Dict[str, List[str]] = {}
        #: validated (committed) transactions
        self._validated: List[str] = []
        self._validated_edges = DirectedGraph()

    def act_init(self, operation: Init) -> None:
        self.metrics.step()

    def cond_ser(self, operation: Ser) -> bool:
        self.metrics.step()
        return True

    def act_ser(self, operation: Ser) -> None:
        self.metrics.step()
        self._site_orders.setdefault(operation.site, []).append(
            operation.transaction_id
        )
        self.submit(operation)

    def act_ack(self, operation: Ack) -> None:
        self.metrics.step()
        self.forward(operation)

    def cond_fin(self, operation: Fin) -> bool:
        self.metrics.step()
        return True

    def act_fin(self, operation: Fin) -> None:
        transaction_id = operation.transaction_id
        # validation: edges between this transaction and previously
        # validated ones, from the per-site execution orders
        graph = self._validated_edges.copy()
        relevant = set(self._validated) | {transaction_id}
        for order in self._site_orders.values():
            filtered = [t for t in order if t in relevant]
            for index, earlier in enumerate(filtered):
                for later in filtered[index + 1 :]:
                    self.metrics.step()
                    if earlier != later:
                        graph.add_edge(earlier, later)
        if graph.find_cycle(start=transaction_id) is not None:
            self.context.abort_transaction(transaction_id)
            return
        self._validated.append(transaction_id)
        self._validated_edges = graph

    def remove_transaction(self, transaction_id: str) -> None:
        for order in self._site_orders.values():
            while transaction_id in order:
                order.remove(transaction_id)
