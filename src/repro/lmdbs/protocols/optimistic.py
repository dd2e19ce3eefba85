"""Backward-validation optimistic concurrency control (BOCC).

Transactions run without synchronization (reads and writes always GRANT;
writes are buffered in the storage workspace).  At commit the transaction
*validates*: it aborts if any transaction that committed after it began
wrote an item the validating transaction read.  Validation order equals
commit order, so committed transactions serialize in commit order — but,
like SGT, the protocol fixes a transaction's serialization position only
at commit, and *reads-only* conflicts are invisible to the GTM, so global
subtransactions at OCC sites also use tickets.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.exceptions import ProtocolViolation
from repro.lmdbs.protocols.base import Decision, LocalScheduler
from repro.schedules.serialization_functions import TicketSerializationFunction


class OptimisticConcurrencyControl(LocalScheduler):
    """BOCC with per-transaction read/write tracking.

    The validation uses its own bookkeeping (not the storage layer) so the
    protocol stays self-contained: begin snapshots a validation counter;
    commit compares the read set against the write sets of transactions
    validated since the snapshot.
    """

    name = "occ"
    serialization_function = TicketSerializationFunction()
    defers_writes = True

    def __init__(self) -> None:
        #: per committed validation index: (transaction, write set)
        self._validated: List[Tuple[str, FrozenSet[str]]] = []
        self._start_index: Dict[str, int] = {}
        self._read_sets: Dict[str, Set[str]] = {}
        self._write_sets: Dict[str, Set[str]] = {}
        #: transactions that validated early via ``on_prepare`` (2PC):
        #: their commit is a promise-keeping formality, never re-validated
        self._prepared: Set[str] = set()
        #: validation failures (metrics)
        self.rejections = 0

    def on_begin(
        self,
        transaction_id: str,
        read_set: Optional[FrozenSet[str]] = None,
        write_set: Optional[FrozenSet[str]] = None,
    ) -> Decision:
        if transaction_id in self._start_index:
            raise ProtocolViolation(
                f"{transaction_id!r} already active at this site"
            )
        self._start_index[transaction_id] = len(self._validated)
        self._read_sets[transaction_id] = set()
        self._write_sets[transaction_id] = set()
        return Decision.grant()

    def _require_active(self, transaction_id: str) -> None:
        if transaction_id not in self._start_index:
            raise ProtocolViolation(
                f"{transaction_id!r} is not active at this site"
            )

    def on_read(self, transaction_id: str, item: str) -> Decision:
        self._require_active(transaction_id)
        self._read_sets[transaction_id].add(item)
        return Decision.grant()

    def on_write(self, transaction_id: str, item: str) -> Decision:
        self._require_active(transaction_id)
        self._write_sets[transaction_id].add(item)
        return Decision.grant()

    def _validate(self, transaction_id: str) -> Optional[Decision]:
        """Backward validation; a kill Decision on conflict, else None."""
        start = self._start_index[transaction_id]
        read_set = self._read_sets[transaction_id]
        for other, other_writes in self._validated[start:]:
            overlap = read_set & other_writes
            if overlap:
                self.rejections += 1
                self._cleanup(transaction_id)
                return Decision.kill(
                    (transaction_id,),
                    f"validation failed: read {sorted(overlap)} written by "
                    f"concurrently committed {other!r}",
                )
        return None

    def on_commit(self, transaction_id: str) -> Decision:
        self._require_active(transaction_id)
        if transaction_id in self._prepared:
            # validated at prepare time; the write set is already
            # installed — committing keeps the promise, nothing to check
            self._prepared.discard(transaction_id)
            self._cleanup(transaction_id)
            return Decision.grant()
        failure = self._validate(transaction_id)
        if failure is not None:
            return failure
        self._validated.append(
            (transaction_id, frozenset(self._write_sets[transaction_id]))
        )
        self._cleanup(transaction_id)
        return Decision.grant()

    def on_prepare(self, transaction_id: str) -> Decision:
        """2PC phase 1: validation *is* the promise, so it runs here.
        On success the write set is installed immediately — transactions
        validating later must serialize after this one even before the
        commit decision arrives (the in-doubt window)."""
        self._require_active(transaction_id)
        failure = self._validate(transaction_id)
        if failure is not None:
            return failure
        self._validated.append(
            (transaction_id, frozenset(self._write_sets[transaction_id]))
        )
        self._prepared.add(transaction_id)
        return Decision.grant()

    def on_abort(self, transaction_id: str) -> Tuple[str, ...]:
        if transaction_id in self._prepared:
            # a prepared transaction's installed write set is revoked by
            # tombstoning it in place (an empty write set conflicts with
            # nothing); deleting the entry would shift the start indexes
            # other transactions snapshotted
            self._prepared.discard(transaction_id)
            for index in range(len(self._validated) - 1, -1, -1):
                if self._validated[index][0] == transaction_id:
                    self._validated[index] = (transaction_id, frozenset())
                    break
        self._cleanup(transaction_id)
        return ()

    def _cleanup(self, transaction_id: str) -> None:
        self._start_index.pop(transaction_id, None)
        self._read_sets.pop(transaction_id, None)
        self._write_sets.pop(transaction_id, None)
