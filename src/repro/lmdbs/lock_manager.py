"""Lock manager for 2PL-style local schedulers.

Implements a classical lock table with shared (S) and exclusive (X) modes,
FIFO wait queues, lock upgrades, and hooks for the waits-for graph used by
deadlock detection (:mod:`repro.lmdbs.deadlock`).

The lock manager is synchronous: a request either succeeds immediately or
is enqueued and reported as *blocked*; the caller (the local scheduler or
the discrete-event simulator) decides what blocking means operationally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.exceptions import ProtocolViolation


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible_with(self, other: "LockMode") -> bool:
        return self is LockMode.SHARED and other is LockMode.SHARED

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass
class LockRequest:
    transaction_id: str
    mode: LockMode
    #: True once the request holds the lock
    granted: bool = False


@dataclass
class _LockEntry:
    """Lock-table entry for one data item."""

    #: position of the item in the lock table (entries are never removed)
    order: int
    holders: Dict[str, LockMode] = field(default_factory=dict)
    queue: List[LockRequest] = field(default_factory=list)


class LockManager:
    """An S/X lock table with FIFO queuing and upgrade support."""

    def __init__(self) -> None:
        self._table: Dict[str, _LockEntry] = {}
        self._held_by_txn: Dict[str, Set[str]] = {}
        #: the wait index: transaction -> items where it has a queued
        #: request (no empty sets), so release and deadlock detection
        #: visit the contended entries instead of the whole table
        self._queued_at: Dict[str, Set[str]] = {}

    def _entry(self, item: str) -> _LockEntry:
        entry = self._table.get(item)
        if entry is None:
            entry = self._table[item] = _LockEntry(len(self._table))
        return entry

    def _enqueued(self, transaction_id: str, item: str) -> None:
        self._queued_at.setdefault(transaction_id, set()).add(item)

    def _dequeued(
        self, transaction_id: str, item: str, entry: _LockEntry
    ) -> None:
        """One queued request of *transaction_id* left *entry*'s queue;
        a repeated upgrade request may leave another one behind."""
        if any(r.transaction_id == transaction_id for r in entry.queue):
            return
        items = self._queued_at[transaction_id]
        items.discard(item)
        if not items:
            del self._queued_at[transaction_id]

    # ------------------------------------------------------------------
    # acquisition
    # ------------------------------------------------------------------
    def request(
        self, transaction_id: str, item: str, mode: LockMode
    ) -> bool:
        """Request a lock; return True if granted now, False if enqueued.

        Re-requesting a mode already held (or weaker than held) succeeds
        immediately.  An upgrade from S to X succeeds iff the requester is
        the sole holder; otherwise the upgrade waits at the *front* of the
        queue (standard upgrade priority).
        """
        entry = self._entry(item)
        held = entry.holders.get(transaction_id)

        if held is not None:
            if held is LockMode.EXCLUSIVE or mode is LockMode.SHARED:
                return True
            # upgrade S -> X
            if len(entry.holders) == 1:
                entry.holders[transaction_id] = LockMode.EXCLUSIVE
                return True
            request = LockRequest(transaction_id, LockMode.EXCLUSIVE)
            entry.queue.insert(0, request)
            self._enqueued(transaction_id, item)
            return False

        if not entry.queue and all(
            mode.compatible_with(other) for other in entry.holders.values()
        ):
            entry.holders[transaction_id] = mode
            self._held_by_txn.setdefault(transaction_id, set()).add(item)
            return True

        entry.queue.append(LockRequest(transaction_id, mode))
        self._enqueued(transaction_id, item)
        return False

    def try_request(
        self, transaction_id: str, item: str, mode: LockMode
    ) -> bool:
        """Like :meth:`request` but never enqueues (no-wait discipline)."""
        entry = self._entry(item)
        held = entry.holders.get(transaction_id)
        if held is not None:
            if held is LockMode.EXCLUSIVE or mode is LockMode.SHARED:
                return True
            if len(entry.holders) == 1:
                entry.holders[transaction_id] = LockMode.EXCLUSIVE
                return True
            return False
        if not entry.queue and all(
            mode.compatible_with(other) for other in entry.holders.values()
        ):
            entry.holders[transaction_id] = mode
            self._held_by_txn.setdefault(transaction_id, set()).add(item)
            return True
        return False

    # ------------------------------------------------------------------
    # release
    # ------------------------------------------------------------------
    def release(self, transaction_id: str, item: str) -> List[Tuple[str, LockMode]]:
        """Release one lock; returns the requests granted as a result."""
        entry = self._table.get(item)
        if entry is None or transaction_id not in entry.holders:
            raise ProtocolViolation(
                f"{transaction_id!r} does not hold a lock on {item!r}"
            )
        del entry.holders[transaction_id]
        self._held_by_txn.get(transaction_id, set()).discard(item)
        return self._grant_from_queue(item, entry)

    def release_all(self, transaction_id: str) -> List[Tuple[str, str, LockMode]]:
        """Release every lock of *transaction_id* (end of phase two).

        Returns the newly granted (item, transaction, mode) triples.  Also
        removes any queued requests of the transaction (it may have been
        aborted while waiting).
        """
        granted: List[Tuple[str, str, LockMode]] = []
        # sorted: the held-item collection is a set, and grant order here
        # becomes the protocol's wake order — hash order would leak into
        # outcomes and break cross-process replay of seeded runs
        for item in sorted(self._held_by_txn.get(transaction_id, ())):
            for txn, mode in self.release(transaction_id, item):
                granted.append((item, txn, mode))
        self._held_by_txn.pop(transaction_id, None)
        # in lock-table order: grant order here is wake order too
        for item in sorted(
            self._queued_at.pop(transaction_id, ()),
            key=lambda item: self._table[item].order,
        ):
            entry = self._table[item]
            entry.queue = [
                request
                for request in entry.queue
                if request.transaction_id != transaction_id
            ]
            for txn, mode in self._grant_from_queue(item, entry):
                granted.append((item, txn, mode))
        return granted

    def _grant_from_queue(
        self, item: str, entry: _LockEntry
    ) -> List[Tuple[str, LockMode]]:
        granted: List[Tuple[str, LockMode]] = []
        while entry.queue:
            request = entry.queue[0]
            held = entry.holders.get(request.transaction_id)
            if held is not None:
                # pending upgrade: grant iff sole holder
                if len(entry.holders) == 1:
                    entry.holders[request.transaction_id] = request.mode
                    entry.queue.pop(0)
                    self._dequeued(request.transaction_id, item, entry)
                    granted.append((request.transaction_id, request.mode))
                    continue
                break
            if all(
                request.mode.compatible_with(mode)
                for mode in entry.holders.values()
            ):
                entry.holders[request.transaction_id] = request.mode
                self._held_by_txn.setdefault(
                    request.transaction_id, set()
                ).add(item)
                entry.queue.pop(0)
                self._dequeued(request.transaction_id, item, entry)
                granted.append((request.transaction_id, request.mode))
                continue
            break
        return granted

    # ------------------------------------------------------------------
    # inspection (for deadlock detection and tests)
    # ------------------------------------------------------------------
    def holders(self, item: str) -> Dict[str, LockMode]:
        entry = self._table.get(item)
        return dict(entry.holders) if entry else {}

    def waiters(self, item: str) -> Tuple[str, ...]:
        entry = self._table.get(item)
        return (
            tuple(request.transaction_id for request in entry.queue)
            if entry
            else ()
        )

    @staticmethod
    def _blockers(entry: _LockEntry, index: int) -> List[str]:
        """The transactions the *index*-th queued request of *entry*
        waits for: every incompatible current holder and every earlier
        queued request it is incompatible with (FIFO queues mean earlier
        waiters block later ones)."""
        request = entry.queue[index]
        waiter, mode = request.transaction_id, request.mode
        blockers = [
            holder
            for holder, held in entry.holders.items()
            if holder != waiter and not mode.compatible_with(held)
        ]
        for earlier in entry.queue[:index]:
            if earlier.transaction_id != waiter and not (
                mode.compatible_with(earlier.mode)
                and earlier.mode.compatible_with(mode)
            ):
                blockers.append(earlier.transaction_id)
        return blockers

    def blockers_of(self, transaction_id: str) -> Set[str]:
        """The transactions *transaction_id* waits for — the targets of
        its :meth:`waits_for_edges`, read off the wait index."""
        blockers: Set[str] = set()
        for item in self._queued_at.get(transaction_id, ()):
            entry = self._table[item]
            for index, request in enumerate(entry.queue):
                if request.transaction_id == transaction_id:
                    blockers.update(self._blockers(entry, index))
        return blockers

    def waits_for_edges(self) -> Set[Tuple[str, str]]:
        """Edges (waiter, holder) for the waits-for graph, one per pair
        of a queued request and a transaction it waits for."""
        edges: Set[Tuple[str, str]] = set()
        contended = set().union(*self._queued_at.values())
        for item in contended:
            entry = self._table[item]
            for index, request in enumerate(entry.queue):
                for blocker in self._blockers(entry, index):
                    edges.add((request.transaction_id, blocker))
        return edges

    def __repr__(self) -> str:
        locked = sum(1 for e in self._table.values() if e.holders)
        waiting = sum(len(e.queue) for e in self._table.values())
        return f"<LockManager locked_items={locked} waiting={waiting}>"
