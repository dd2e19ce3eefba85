"""The 2PL lock table and the history log without their indexes.

``LockManager`` keeps a per-transaction index of the items it is queued
at and ``HistoryLog`` a transaction -> outcome map.  This module keeps
what they replaced — every answer recomputed by scanning the whole lock
table or the whole history.  (The deadlock check's reference needs no
code here: it is ``DeadlockDetector.check`` called unconditionally.)
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.lmdbs.lock_manager import LockManager, LockMode
from repro.schedules.model import OpType, Schedule


def scan_queued_at(locks: LockManager) -> Dict[str, Set[str]]:
    """The wait index, recomputed from the lock table."""
    index: Dict[str, Set[str]] = {}
    for item, entry in locks._table.items():
        for request in entry.queue:
            index.setdefault(request.transaction_id, set()).add(item)
    return index


class ScanLockManager(LockManager):
    """Walks every lock entry ever created, on every release and every
    waits-for query."""

    def release_all(self, transaction_id: str) -> List[Tuple[str, str, LockMode]]:
        granted: List[Tuple[str, str, LockMode]] = []
        for item in sorted(self._held_by_txn.get(transaction_id, ())):
            for txn, mode in self.release(transaction_id, item):
                granted.append((item, txn, mode))
        self._held_by_txn.pop(transaction_id, None)
        # the inherited request/grant paths still keep the index
        self._queued_at.pop(transaction_id, None)
        for item, entry in self._table.items():
            before = len(entry.queue)
            entry.queue = [
                request
                for request in entry.queue
                if request.transaction_id != transaction_id
            ]
            if len(entry.queue) != before:
                for txn, mode in self._grant_from_queue(item, entry):
                    granted.append((item, txn, mode))
        return granted

    def waits_for_edges(self) -> Set[Tuple[str, str]]:
        edges: Set[Tuple[str, str]] = set()
        for entry in self._table.values():
            for index, request in enumerate(entry.queue):
                for holder, mode in entry.holders.items():
                    if holder == request.transaction_id:
                        continue
                    if not request.mode.compatible_with(mode):
                        edges.add((request.transaction_id, holder))
                for earlier in entry.queue[:index]:
                    if earlier.transaction_id == request.transaction_id:
                        continue
                    if not (
                        request.mode.compatible_with(earlier.mode)
                        and earlier.mode.compatible_with(request.mode)
                    ):
                        edges.add(
                            (request.transaction_id, earlier.transaction_id)
                        )
        return edges


def scan_outcome_of(schedule: Schedule, transaction_id: str) -> Optional[OpType]:
    """``HistoryLog.outcome_of`` by scanning the site's whole history."""
    outcome: Optional[OpType] = None
    for operation in schedule.operations_of(transaction_id):
        if operation.op_type in (OpType.COMMIT, OpType.ABORT):
            outcome = operation.op_type
    return outcome
