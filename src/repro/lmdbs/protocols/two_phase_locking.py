"""Two-phase locking local schedulers.

Two variants are provided:

- :class:`StrictTwoPhaseLocking` — locks acquired on demand (S for reads,
  X for writes), all locks held to end of transaction; deadlocks resolved
  by detection + victim abort.
- :class:`ConservativeTwoPhaseLocking` — all locks acquired atomically at
  begin from the transaction's declared read/write sets; never deadlocks
  and never aborts (the paper's §3 requirement for conservative schemes).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.exceptions import ProtocolViolation
from repro.lmdbs.deadlock import DeadlockDetector
from repro.lmdbs.lock_manager import LockManager, LockMode
from repro.lmdbs.protocols.base import Decision, LocalScheduler
from repro.schedules.serialization_functions import (
    BeginSerializationFunction,
    CommitSerializationFunction,
)


class StrictTwoPhaseLocking(LocalScheduler):
    """Strict 2PL with deadlock detection.

    The lock point of every transaction is its last lock acquisition; all
    locks are released at commit/abort, so commit lies inside the locked
    window and either the lock-point or the commit operation is a
    serialization-function image; the class declares commit.
    """

    name = "strict-2pl"
    serialization_function = CommitSerializationFunction()

    def __init__(self) -> None:
        self._locks = LockManager()
        self._detector = DeadlockDetector(self._locks.waits_for_edges)
        self._active: Set[str] = set()

    # ------------------------------------------------------------------
    def on_begin(
        self,
        transaction_id: str,
        read_set: Optional[FrozenSet[str]] = None,
        write_set: Optional[FrozenSet[str]] = None,
    ) -> Decision:
        if transaction_id in self._active:
            raise ProtocolViolation(
                f"{transaction_id!r} already active at this site"
            )
        self._active.add(transaction_id)
        self._detector.register_begin(transaction_id)
        return Decision.grant()

    def _acquire(
        self, transaction_id: str, item: str, mode: LockMode
    ) -> Decision:
        self._require_active(transaction_id)
        if self._locks.request(transaction_id, item, mode):
            return Decision.grant()
        deadlock = self._detector.check_blocked(
            transaction_id, self._locks.blockers_of
        )
        if deadlock is None:
            return Decision.block(f"waiting for {mode} lock on {item!r}")
        victim, cycle = deadlock
        if victim == transaction_id:
            return Decision.kill(
                (victim,), f"deadlock victim (cycle {' -> '.join(cycle)})"
            )
        # a third party dies; the requester stays blocked until the
        # database processes the victim abort and retries wake-ups.
        return Decision.block(
            f"waiting for {mode} lock on {item!r}", victims=(victim,)
        )

    def on_read(self, transaction_id: str, item: str) -> Decision:
        return self._acquire(transaction_id, item, LockMode.SHARED)

    def on_write(self, transaction_id: str, item: str) -> Decision:
        return self._acquire(transaction_id, item, LockMode.EXCLUSIVE)

    def on_commit(self, transaction_id: str) -> Decision:
        self._require_active(transaction_id)
        return Decision.grant(wake=self._finish(transaction_id))

    def on_abort(self, transaction_id: str) -> Tuple[str, ...]:
        return self._finish(transaction_id)

    def _finish(self, transaction_id: str) -> Tuple[str, ...]:
        self._active.discard(transaction_id)
        self._detector.forget(transaction_id)
        granted = self._locks.release_all(transaction_id)
        # wake each transaction that obtained a lock, once, in grant order
        wake: List[str] = []
        for _item, txn, _mode in granted:
            if txn not in wake:
                wake.append(txn)
        return tuple(wake)

    def _require_active(self, transaction_id: str) -> None:
        if transaction_id not in self._active:
            raise ProtocolViolation(
                f"{transaction_id!r} is not active at this site"
            )

    # inspection helpers used by the GTM ---------------------------------
    def waits_for_edges(self) -> Set[Tuple[str, str]]:
        """(waiter, holder) edges, exposed for global stall analysis."""
        return self._locks.waits_for_edges()

    @property
    def deadlocks_found(self) -> int:
        return self._detector.deadlocks_found


class PreventionTwoPhaseLocking(StrictTwoPhaseLocking):
    """Strict 2PL with timestamp-based deadlock *prevention*.

    Instead of detection + victim selection, lock conflicts are resolved
    by comparing begin timestamps (ages):

    - ``wait-die``: an older requester waits; a younger one dies
      (aborts, to be restarted by its client with its original age in a
      real system — here a restart gets a fresh age, which is still
      deadlock-free, merely less fair);
    - ``wound-wait``: an older requester *wounds* (aborts) the younger
      holders; a younger requester waits.

    Both orders are acyclic in transaction age, so waits-for cycles
    cannot form and no detector is needed.
    """

    def __init__(self, policy: str = "wound-wait") -> None:
        if policy not in ("wound-wait", "wait-die"):
            raise ProtocolViolation(
                f"unknown prevention policy {policy!r}"
            )
        super().__init__()
        self.policy = policy
        self.name = f"{policy}-2pl"
        #: prevention aborts issued (metrics)
        self.prevention_aborts = 0

    def _acquire(
        self, transaction_id: str, item: str, mode: LockMode
    ) -> Decision:
        self._require_active(transaction_id)
        if self._locks.request(transaction_id, item, mode):
            return Decision.grant()
        my_age = self._detector._ages.get(transaction_id, 0)
        holders = [
            holder
            for holder in self._locks.holders(item)
            if holder != transaction_id
        ]
        if self.policy == "wait-die":
            older_than_some_holder = any(
                my_age < self._detector._ages.get(holder, 0)
                for holder in holders
            )
            if older_than_some_holder or not holders:
                return Decision.block(
                    f"waiting (wait-die, older) for {item!r}"
                )
            self.prevention_aborts += 1
            return Decision.kill(
                (transaction_id,),
                f"wait-die: younger requester dies on {item!r}",
            )
        # wound-wait
        younger_holders = tuple(
            holder
            for holder in holders
            if self._detector._ages.get(holder, 0) > my_age
        )
        if younger_holders:
            self.prevention_aborts += len(younger_holders)
            # the holders die; we stay queued and are granted when the
            # database processes their aborts
            return Decision.block(
                f"wounding {younger_holders} for {item!r}",
                victims=younger_holders,
            )
        return Decision.block(f"waiting (wound-wait, younger) for {item!r}")


class ConservativeTwoPhaseLocking(LocalScheduler):
    """Conservative (static) 2PL: predeclared lock sets, atomic acquisition.

    A begin either obtains *all* declared locks at once or blocks; blocked
    begins are retried in FIFO order whenever locks are released.  Since a
    transaction never holds some locks while waiting for others, deadlock
    is impossible and no transaction ever aborts — the protocol family the
    paper's §3 argues GTM-level schemes should resemble.
    """

    name = "conservative-2pl"
    serialization_function = BeginSerializationFunction()

    def __init__(self) -> None:
        self._locks = LockManager()
        self._declared: Dict[str, Dict[str, LockMode]] = {}
        self._waiting: List[str] = []
        self._active: Set[str] = set()
        self._holding: Set[str] = set()

    def on_begin(
        self,
        transaction_id: str,
        read_set: Optional[FrozenSet[str]] = None,
        write_set: Optional[FrozenSet[str]] = None,
    ) -> Decision:
        if read_set is None or write_set is None:
            raise ProtocolViolation(
                "conservative 2PL requires declared read and write sets at "
                "begin"
            )
        if transaction_id in self._active:
            # retry of a previously blocked begin: the wake-up path grants
            # the whole declared lock set atomically before waking us
            if transaction_id in self._holding:
                return Decision.grant()
            if transaction_id in self._waiting:
                return Decision.block("waiting for declared lock set")
            raise ProtocolViolation(
                f"{transaction_id!r} already active at this site"
            )
        self._active.add(transaction_id)
        needed: Dict[str, LockMode] = {
            item: LockMode.SHARED for item in sorted(read_set)
        }
        for item in sorted(write_set):
            needed[item] = LockMode.EXCLUSIVE
        self._declared[transaction_id] = needed
        if self._waiting or not self._try_acquire_all(transaction_id):
            # FIFO fairness: once anyone waits, newcomers wait behind them
            self._waiting.append(transaction_id)
            return Decision.block("waiting for declared lock set")
        self._holding.add(transaction_id)
        return Decision.grant()

    def _try_acquire_all(self, transaction_id: str) -> bool:
        needed = self._declared[transaction_id]
        for item, mode in needed.items():
            if not self._can_grant(transaction_id, item, mode):
                return False
        for item, mode in needed.items():
            granted_now = self._locks.try_request(transaction_id, item, mode)
            if not granted_now:  # pragma: no cover - guarded by _can_grant
                raise ProtocolViolation("atomic acquisition lost a race")
        return True

    def _can_grant(self, transaction_id: str, item: str, mode: LockMode) -> bool:
        holders = self._locks.holders(item)
        holders.pop(transaction_id, None)
        if mode is LockMode.EXCLUSIVE:
            return not holders
        return all(m is LockMode.SHARED for m in holders.values())

    def _retry_waiters(self) -> Tuple[str, ...]:
        woken: List[str] = []
        progress = True
        while progress:
            progress = False
            for transaction_id in list(self._waiting):
                if self._try_acquire_all(transaction_id):
                    self._waiting.remove(transaction_id)
                    self._holding.add(transaction_id)
                    woken.append(transaction_id)
                    progress = True
                else:
                    # strict FIFO: do not let later arrivals jump the queue
                    break
        return tuple(woken)

    def on_read(self, transaction_id: str, item: str) -> Decision:
        return self._access(transaction_id, item, LockMode.SHARED)

    def on_write(self, transaction_id: str, item: str) -> Decision:
        return self._access(transaction_id, item, LockMode.EXCLUSIVE)

    def _access(
        self, transaction_id: str, item: str, mode: LockMode
    ) -> Decision:
        if transaction_id not in self._holding:
            raise ProtocolViolation(
                f"{transaction_id!r} accessed {item!r} before its begin was "
                "granted"
            )
        declared = self._declared[transaction_id].get(item)
        strong_enough = declared is LockMode.EXCLUSIVE or declared is mode
        if not strong_enough:
            raise ProtocolViolation(
                f"{transaction_id!r} accessed undeclared item {item!r} "
                f"({mode})"
            )
        return Decision.grant()

    def on_commit(self, transaction_id: str) -> Decision:
        return Decision.grant(wake=self._finish(transaction_id))

    def on_abort(self, transaction_id: str) -> Tuple[str, ...]:
        return self._finish(transaction_id)

    def _finish(self, transaction_id: str) -> Tuple[str, ...]:
        self._active.discard(transaction_id)
        self._holding.discard(transaction_id)
        if transaction_id in self._waiting:
            self._waiting.remove(transaction_id)
        self._declared.pop(transaction_id, None)
        self._locks.release_all(transaction_id)
        return self._retry_waiters()

    def waits_for_edges(self) -> Set[Tuple[str, str]]:
        """(waiter, holder) edges: each waiting begin waits for every
        incompatible holder of an item it declared."""
        edges: Set[Tuple[str, str]] = set()
        for waiter in self._waiting:
            for item, mode in self._declared.get(waiter, {}).items():
                for holder, held_mode in self._locks.holders(item).items():
                    if holder == waiter:
                        continue
                    if not mode.compatible_with(held_mode):
                        edges.add((waiter, holder))
        return edges
