"""Scheme 3 with the paper's all-transactions ``ser_bef`` scans (§7).

``Scheme3`` answers ``cond(ser)`` with a set intersection and finds the
transactions to update in ``act(ser)`` (``_serialized_after``) and
``act(fin)`` through a reverse membership index.  This subclass
overrides exactly those methods with the quadratic scans Theorem 9
counts — every ``ser_bef`` set visited,
one ``metrics.step()`` per element examined — and never reads the
index, so it is an independent oracle for decisions, ``ser_bef`` state
and the paper-model step count.
"""

from repro.core.events import Fin, Ser
from repro.core.scheme3 import Scheme3
from repro.exceptions import SchedulerError


class ScanScheme3(Scheme3):
    def cond_ser(self, operation: Ser) -> bool:
        transaction_id, site = operation.transaction_id, operation.site
        if transaction_id not in self._ser_bef:
            raise SchedulerError(
                f"ser for unannounced transaction {transaction_id!r}"
            )
        last = self._last(site)
        self.metrics.step()
        if last is not None and (last, site) not in self._acked:
            return False
        waiting_here = self._set.get(site, set())
        # the whole of ser_bef(G_i) is scanned even after a blocker is
        # found: Theorem 9's cost, independent of set iteration order
        blocked = False
        for predecessor in self._ser_bef[transaction_id]:
            self.metrics.step()
            if predecessor != transaction_id and predecessor in waiting_here:
                blocked = True
        return not blocked

    def act_ser(self, operation: Ser) -> None:
        transaction_id, site = operation.transaction_id, operation.site
        members = self._set.get(site, set())
        members.discard(transaction_id)
        self._executed_order.setdefault(site, []).append(transaction_id)
        # Set_1 = ser_bef(G_i) ∪ {G_i}
        set_one = set(self._ser_bef[transaction_id])
        set_one.add(transaction_id)
        # set_k and the transactions serialized after some member of it
        # (Set_2) inherit Set_1
        targets = set(members)
        targets.update(self._serialized_after(members))
        for target in targets:
            for entry in set_one:
                self.metrics.step()
                self._ser_bef[target].add(entry)
        self.submit(operation)

    def _serialized_after(self, members):
        after = set()
        for other, other_before in self._ser_bef.items():
            self.metrics.step()
            if other_before & members:
                after.add(other)
        return after

    def act_fin(self, operation: Fin) -> None:
        transaction_id = operation.transaction_id
        for other_before in self._ser_bef.values():
            self.metrics.step()
            other_before.discard(transaction_id)
        del self._ser_bef[transaction_id]
        self._forget(transaction_id)

    def remove_transaction(self, transaction_id: str) -> None:
        self._ser_bef.pop(transaction_id, None)
        for other_before in self._ser_bef.values():
            other_before.discard(transaction_id)
        self._forget(transaction_id)
