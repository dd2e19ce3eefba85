"""Timestamp-ordering (TO) local schedulers.

:class:`BasicTimestampOrdering` assigns each transaction a timestamp at
*begin* (so ``ser_k(T) = begin(T)`` is a valid serialization function,
the paper's §2.2 example) and enforces that conflicting operations execute
in timestamp order, rejecting latecomers.

:class:`ConservativeTimestampOrdering` never rejects: an operation that
arrives "too late" is impossible because transactions are admitted
strictly one at a time per conflict — implemented here in the classical
way by delaying operations until no older active transaction can still
issue a conflicting operation.  It exists chiefly as the centralized-DBMS
archetype the paper's Scheme 0 is modeled on.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.exceptions import ProtocolViolation
from repro.lmdbs.protocols.base import Decision, LocalScheduler
from repro.schedules.serialization_functions import BeginSerializationFunction


class BasicTimestampOrdering(LocalScheduler):
    """Basic TO with begin-time timestamps.

    Rules (rts/wts = largest read/write timestamp seen per item):

    - ``r(x)`` by T: reject if ``ts(T) < wts(x)``; else grant and update.
    - ``w(x)`` by T: reject if ``ts(T) < rts(x)`` or ``ts(T) < wts(x)``.
    """

    name = "to"
    serialization_function = BeginSerializationFunction()

    def __init__(self) -> None:
        self._clock = 0
        self._timestamps: Dict[str, int] = {}
        self._read_ts: Dict[str, int] = {}
        self._write_ts: Dict[str, int] = {}
        #: rejections observed (for the §3 motivation experiments)
        self.rejections = 0

    def on_begin(
        self,
        transaction_id: str,
        read_set: Optional[FrozenSet[str]] = None,
        write_set: Optional[FrozenSet[str]] = None,
    ) -> Decision:
        if transaction_id in self._timestamps:
            raise ProtocolViolation(
                f"{transaction_id!r} already active at this site"
            )
        self._clock += 1
        self._timestamps[transaction_id] = self._clock
        return Decision.grant()

    def timestamp_of(self, transaction_id: str) -> int:
        try:
            return self._timestamps[transaction_id]
        except KeyError:
            raise ProtocolViolation(
                f"{transaction_id!r} is not active at this site"
            ) from None

    def on_read(self, transaction_id: str, item: str) -> Decision:
        ts = self.timestamp_of(transaction_id)
        if ts < self._write_ts.get(item, 0):
            self.rejections += 1
            return Decision.kill(
                (transaction_id,),
                f"read of {item!r} too late (ts {ts} < wts "
                f"{self._write_ts[item]})",
            )
        self._read_ts[item] = max(self._read_ts.get(item, 0), ts)
        return Decision.grant()

    def on_write(self, transaction_id: str, item: str) -> Decision:
        ts = self.timestamp_of(transaction_id)
        if ts < self._read_ts.get(item, 0):
            self.rejections += 1
            return Decision.kill(
                (transaction_id,),
                f"write of {item!r} too late (ts {ts} < rts "
                f"{self._read_ts[item]})",
            )
        if ts < self._write_ts.get(item, 0):
            self.rejections += 1
            return Decision.kill(
                (transaction_id,),
                f"write of {item!r} too late (ts {ts} < wts "
                f"{self._write_ts[item]})",
            )
        self._write_ts[item] = ts
        return Decision.grant()

    def on_commit(self, transaction_id: str) -> Decision:
        self.timestamp_of(transaction_id)
        del self._timestamps[transaction_id]
        return Decision.grant()

    def on_abort(self, transaction_id: str) -> Tuple[str, ...]:
        self._timestamps.pop(transaction_id, None)
        return ()


class ConservativeTimestampOrdering(LocalScheduler):
    """Conservative TO: operations are delayed, never rejected.

    Classical conservative TO buffers operations and executes an operation
    of transaction T only when every older active transaction has either
    finished or can no longer submit a conflicting operation.  Our
    transactions do not predeclare per-operation schedules, so we use the
    standard coarse realization: operations execute strictly in timestamp
    order across the whole site — any operation of the oldest active
    transaction runs, all others wait.  This is exactly the per-site FIFO
    behaviour that the paper's Scheme 0 lifts to the GTM level.
    """

    name = "conservative-to"
    serialization_function = BeginSerializationFunction()

    def __init__(self) -> None:
        self._clock = 0
        self._timestamps: Dict[str, int] = {}
        self._order: List[str] = []  # active transactions, oldest first

    def on_begin(
        self,
        transaction_id: str,
        read_set: Optional[FrozenSet[str]] = None,
        write_set: Optional[FrozenSet[str]] = None,
    ) -> Decision:
        if transaction_id in self._timestamps:
            raise ProtocolViolation(
                f"{transaction_id!r} already active at this site"
            )
        self._clock += 1
        self._timestamps[transaction_id] = self._clock
        self._order.append(transaction_id)
        return Decision.grant()

    def _gate(self, transaction_id: str) -> Decision:
        if transaction_id not in self._timestamps:
            raise ProtocolViolation(
                f"{transaction_id!r} is not active at this site"
            )
        if self._order and self._order[0] != transaction_id:
            return Decision.block(
                f"older transaction {self._order[0]!r} still active"
            )
        return Decision.grant()

    def on_read(self, transaction_id: str, item: str) -> Decision:
        return self._gate(transaction_id)

    def on_write(self, transaction_id: str, item: str) -> Decision:
        return self._gate(transaction_id)

    def on_commit(self, transaction_id: str) -> Decision:
        decision = self._gate(transaction_id)
        if decision.verdict is not decision.verdict.GRANT:
            return decision
        return Decision.grant(wake=self._finish(transaction_id))

    def on_abort(self, transaction_id: str) -> Tuple[str, ...]:
        return self._finish(transaction_id)

    def _finish(self, transaction_id: str) -> Tuple[str, ...]:
        self._timestamps.pop(transaction_id, None)
        if transaction_id in self._order:
            self._order.remove(transaction_id)
        return (self._order[0],) if self._order else ()
