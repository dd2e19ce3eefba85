"""Local history logging.

Every local DBMS records the operations it actually *executed*, in
execution order, as a :class:`~repro.schedules.model.Schedule`.  This log
is the ground truth for all verification: the global serializability
checker (:mod:`repro.mdbs.verification`) works exclusively from these
histories, never from a scheduler's internal bookkeeping, so a buggy
scheduler cannot certify itself correct.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.schedules.model import Operation, OpType, Schedule


class HistoryLog:
    """Execution-order log of one site's operations.

    Besides the executed schedule, the log keeps the *prepared ledger*
    of the atomic-commitment layer (:mod:`repro.commit`): a durable side
    table of transactions that voted YES in 2PC phase 1.  Prepared marks
    model the force-written prepared record — they survive site crashes
    — but they are bookkeeping, not operations: they never enter the
    schedule and are invisible to serializability verification.
    """

    def __init__(self, site: str) -> None:
        self.site = site
        self._schedule = Schedule()
        self._prepared: Dict[str, None] = {}
        #: transaction -> its last recorded COMMIT/ABORT
        self._outcomes: Dict[str, OpType] = {}

    def record(self, operation: Operation) -> Operation:
        self._schedule.append(operation)
        if operation.op_type in (OpType.COMMIT, OpType.ABORT):
            self._outcomes[operation.transaction_id] = operation.op_type
        return operation

    @property
    def schedule(self) -> Schedule:
        return self._schedule

    def committed_schedule(self) -> Schedule:
        """The committed projection — what serializability is judged on."""
        return self._schedule.committed_projection()

    def operations_of(self, transaction_id: str) -> Tuple[Operation, ...]:
        return self._schedule.operations_of(transaction_id)

    def outcome_of(self, transaction_id: str) -> Optional[OpType]:
        """COMMIT, ABORT, or None if the transaction is still active."""
        return self._outcomes.get(transaction_id)

    # ------------------------------------------------------------------
    # 2PC prepared ledger (durable; see repro.commit.participant)
    # ------------------------------------------------------------------
    def mark_prepared(self, transaction_id: str) -> None:
        self._prepared[transaction_id] = None

    def clear_prepared(self, transaction_id: str) -> None:
        self._prepared.pop(transaction_id, None)

    def is_prepared(self, transaction_id: str) -> bool:
        return transaction_id in self._prepared

    @property
    def prepared_transactions(self) -> Tuple[str, ...]:
        """Prepared-but-undecided transactions, in prepare order."""
        return tuple(self._prepared)

    def __len__(self) -> int:
        return len(self._schedule)

    def __repr__(self) -> str:
        return f"<HistoryLog site={self.site!r} ops={len(self._schedule)}>"
