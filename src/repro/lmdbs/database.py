"""The local DBMS facade.

:class:`LocalDBMS` glues a :class:`~repro.lmdbs.storage.VersionedStore`,
a concurrency-control protocol (:mod:`repro.lmdbs.protocols`), and a
:class:`~repro.lmdbs.history.HistoryLog` into the black box the paper's
GTM talks to: operations are *submitted*, and the site answers each
submission once, through its completion callback — at once when the
operation executes or dies, later when it was blocked.  Aborts are not
submissions: they go through :meth:`LocalDBMS.abort_transaction`, and
every abort at the site (victims included) reaches the abort listeners.

The facade does not distinguish local transactions from global
subtransactions — a paper requirement — and enforces program order: each
transaction may have at most one operation in flight at the site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.exceptions import ProtocolViolation
from repro.lmdbs.history import HistoryLog
from repro.lmdbs.protocols.base import Decision, LocalScheduler, Verdict
from repro.lmdbs.storage import VersionedStore
from repro.schedules.model import Operation, OpType, abort as abort_op

#: Callback invoked when a (possibly previously blocked) operation
#: completes: ``callback(operation, value, aborted)``.
CompletionCallback = Callable[[Operation, Any, bool], None]


@dataclass
class _Pending:
    operation: Operation
    callback: Optional[CompletionCallback]
    read_set: Optional[frozenset] = None
    write_set: Optional[frozenset] = None


class LocalDBMS:
    """One pre-existing local database system of the MDBS."""

    def __init__(
        self,
        site: str,
        protocol: LocalScheduler,
        initial: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.site = site
        self.protocol = protocol
        self.storage = VersionedStore(initial)
        self.history = HistoryLog(site)
        self._pending: Dict[str, _Pending] = {}
        self._active: set = set()
        #: False while the site is crashed (dark); submissions are
        #: negatively acknowledged until :meth:`restart`
        self.available = True
        #: how many times this site has crashed (quarantine input)
        self.crash_count = 0
        #: counts for metrics: how many submissions blocked / aborted
        self.blocked_count = 0
        self.aborted_count = 0
        #: non-forced aborts refused because the target was prepared
        #: (2PC in-doubt transactions die only by coordinator decision)
        self.prepared_abort_refusals = 0
        #: listeners invoked as ``listener(transaction_id, reason)`` on
        #: every transaction abort at this site (the GTM subscribes to
        #: learn about aborts of its subtransactions, e.g. deadlock
        #: victims it did not submit the fatal operation for)
        self.abort_listeners: List[Callable[[str, str], None]] = []
        #: simulation clock used to stamp committed versions (the
        #: simulator wires this to its event loop; None = commit counter)
        self.clock: Optional[Callable[[], float]] = None
        #: listeners invoked as ``listener(transaction_id, write_items,
        #: at)`` after every commit at this site (the replication layer's
        #: CatchupTracker subscribes to clear stale copies)
        self.commit_listeners: List[
            Callable[[str, frozenset, float], None]
        ] = []

    # ------------------------------------------------------------------
    # public interface (what servers see)
    # ------------------------------------------------------------------
    def submit(
        self,
        operation: Operation,
        callback: Optional[CompletionCallback] = None,
        read_set: Optional[frozenset] = None,
        write_set: Optional[frozenset] = None,
    ) -> None:
        """Submit *operation* for execution; *callback* answers it once,
        as ``callback(operation, value, aborted)``.

        ``read_set``/``write_set`` are the declared access sets, consumed
        by conservative protocols at BEGIN and ignored otherwise.
        """
        if not self.available:
            # the site is dark: negative acknowledgement, no state change
            if callback is not None:
                callback(operation, None, True)
            return
        self._validate_submission(operation)
        transaction_id = operation.transaction_id
        decision = self._consult(operation, read_set, write_set)
        if decision.verdict is Verdict.BLOCK:
            # parked *before* the victims die, so their released locks
            # can wake it (wound-wait)
            self.blocked_count += 1
            self._pending[transaction_id] = _Pending(
                operation, callback, read_set, write_set
            )
        for victim in decision.victims:
            if victim != transaction_id:
                self._perform_abort(victim, decision.reason)
        if decision.verdict is Verdict.ABORT:
            if transaction_id not in decision.victims:
                raise ProtocolViolation(
                    "ABORT decision without the requester among victims"
                )
            self._perform_abort(transaction_id, decision.reason)
            self.aborted_count += 1
            if callback is not None:
                callback(operation, None, True)
        elif decision.verdict is Verdict.GRANT:
            value = self._execute(operation)
            if callback is not None:
                callback(operation, value, False)
        self._drain_wakes(decision.wake)

    def abort_transaction(
        self, transaction_id: str, reason: str = "", force: bool = False
    ) -> None:
        """Externally abort a transaction (used by the GTM to kill a
        global subtransaction, e.g. when it aborted at another site).
        ``force`` carries a 2PC coordinator decision: it is the only way
        to abort a *prepared* transaction (see :meth:`_perform_abort`).
        """
        self._perform_abort(
            transaction_id, reason or "external abort", force=force
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _validate_submission(self, operation: Operation) -> None:
        if operation.site is not None and operation.site != self.site:
            raise ProtocolViolation(
                f"operation {operation!r} targets site {operation.site!r}, "
                f"not {self.site!r}"
            )
        transaction_id = operation.transaction_id
        if transaction_id in self._pending:
            raise ProtocolViolation(
                f"{transaction_id!r} already has an operation in flight at "
                f"{self.site!r} (program order violated)"
            )
        if operation.op_type is OpType.BEGIN:
            if transaction_id in self._active:
                raise ProtocolViolation(
                    f"{transaction_id!r} already began at {self.site!r}"
                )
        elif transaction_id not in self._active:
            raise ProtocolViolation(
                f"{transaction_id!r} has not begun at {self.site!r}"
            )

    def _consult(
        self,
        operation: Operation,
        read_set: Optional[frozenset] = None,
        write_set: Optional[frozenset] = None,
    ) -> Decision:
        transaction_id = operation.transaction_id
        if operation.op_type is OpType.BEGIN:
            return self.protocol.on_begin(transaction_id, read_set, write_set)
        if operation.op_type is OpType.READ:
            return self.protocol.on_read(transaction_id, operation.item)
        if operation.op_type is OpType.WRITE:
            return self.protocol.on_write(transaction_id, operation.item)
        if operation.op_type is OpType.COMMIT:
            return self.protocol.on_commit(transaction_id)
        raise ProtocolViolation(f"cannot consult protocol for {operation!r}")

    def _execute(self, operation: Operation) -> Any:
        """Apply a granted operation to storage and the history log."""
        transaction_id = operation.transaction_id
        value: Any = None
        if operation.op_type is OpType.BEGIN:
            self._active.add(transaction_id)
            self.storage.open_workspace(transaction_id)
            self.history.record(operation)
        elif operation.op_type is OpType.READ:
            value = self.storage.read(transaction_id, operation.item)
            self.history.record(operation)
        elif operation.op_type is OpType.WRITE:
            self.storage.write(transaction_id, operation.item, value)
            if not self.protocol.defers_writes:
                self.history.record(operation)
        elif operation.op_type is OpType.COMMIT:
            if self.protocol.defers_writes:
                # install buffered writes in the history at commit time so
                # conflict order matches when they actually took effect
                for txn_operation in self._deferred_writes(transaction_id):
                    self.history.record(txn_operation)
            # the workspace closes on commit, so capture the write set
            # for the commit listeners (replication catch-up) first
            write_items = self.storage.write_set(transaction_id)
            at = self.clock() if self.clock is not None else None
            counter = self.storage.commit(transaction_id, at=at)
            stamp = float(counter) if at is None else at
            self._active.discard(transaction_id)
            self.history.record(operation)
            for listener in self.commit_listeners:
                listener(transaction_id, write_items, stamp)
        else:  # pragma: no cover - aborts go through _perform_abort
            raise ProtocolViolation(f"cannot execute {operation!r}")
        return value

    def write_value(self, transaction_id: str, item: str, value: Any) -> None:
        """Set the buffered value of a prior write (value plumbing used by
        ticket writes: read, compute, then write a concrete value)."""
        self.storage.write(transaction_id, item, value)

    def _deferred_writes(self, transaction_id: str) -> List[Operation]:
        from repro.schedules.model import write as write_op

        return [
            write_op(transaction_id, item, self.site)
            for item in sorted(self.storage.write_set(transaction_id))
        ]

    def _perform_abort(
        self, transaction_id: str, reason: str, force: bool = False
    ) -> None:
        """Abort a transaction: storage, protocol, pending op, history.

        A *prepared* transaction (2PC YES vote on record) is in doubt:
        it promised the coordinator it can commit, so every non-forced
        abort — deadlock victims, watchdog kills, orphan sweeps — is
        refused until a coordinator decision (``force=True``) arrives.
        This is 2PC's blocking window, made explicit.
        """
        if (
            transaction_id not in self._active
            and transaction_id not in self._pending
        ):
            return
        if not force and self.history.is_prepared(transaction_id):
            self.prepared_abort_refusals += 1
            return
        self.history.clear_prepared(transaction_id)
        pending = self._pending.pop(transaction_id, None)
        self.protocol.cancel_waiting(transaction_id)
        wake = self.protocol.on_abort(transaction_id)
        if self.storage.has_workspace(transaction_id):
            self.storage.abort(transaction_id)
        self._active.discard(transaction_id)
        self.history.record(abort_op(transaction_id, self.site))
        if pending is not None and pending.callback is not None:
            pending.callback(pending.operation, None, True)
        self._drain_wakes(wake)
        for listener in self.abort_listeners:
            listener(transaction_id, reason)

    def _drain_wakes(self, wake: Iterable[str]) -> None:
        """Retry pending operations of woken transactions, cascading."""
        queue = list(wake)
        while queue:
            transaction_id = queue.pop(0)
            pending = self._pending.get(transaction_id)
            if pending is None:
                continue
            decision = self._consult(
                pending.operation, pending.read_set, pending.write_set
            )
            for victim in decision.victims:
                if victim != transaction_id:
                    self._perform_abort(victim, decision.reason)
            if decision.verdict is Verdict.BLOCK:
                continue
            del self._pending[transaction_id]
            if decision.verdict is Verdict.ABORT:
                self._perform_abort(transaction_id, decision.reason)
                if pending.callback is not None:
                    pending.callback(pending.operation, None, True)
                continue
            value = self._execute(pending.operation)
            if pending.callback is not None:
                pending.callback(pending.operation, value, False)
            queue.extend(decision.wake)

    # ------------------------------------------------------------------
    # crash / restart (fault injection)
    # ------------------------------------------------------------------
    def crash(self, reason: str = "site crash") -> None:
        """Crash the site: every in-flight transaction (active or
        blocked) is aborted — volatile state is lost — while committed
        storage and the history log survive (they are the durable
        ground truth).  The site answers nothing until :meth:`restart`.

        *Prepared* transactions (2PC) are the exception: their prepared
        record is force-logged, so the crash must not abort them — the
        local recovery that reinstates them from that record is modelled
        as their state simply surviving.  Only their parked operation
        (a blocked commit, necessarily volatile) is dropped; a retried
        decision re-submits it after restart.
        """
        self.crash_count += 1
        self.available = False
        for transaction_id in list(self._pending):
            if self.history.is_prepared(transaction_id):
                self._pending.pop(transaction_id)
                self.protocol.cancel_waiting(transaction_id)
        in_flight = list(self._pending) + [
            transaction_id
            for transaction_id in sorted(self._active)
            if transaction_id not in self._pending
            and not self.history.is_prepared(transaction_id)
        ]
        for transaction_id in in_flight:
            self._perform_abort(transaction_id, reason)

    def restart(self) -> None:
        """Bring a crashed site back; committed state is intact."""
        self.available = True

    def accepts(self, operation: Operation) -> bool:
        """Whether a server delivery of *operation* would be admissible
        right now: the site is up and the operation respects the
        transaction's lifecycle at this site.  Servers consult this
        before submitting so that late/stale deliveries (possible under
        crashes and message faults) become negative acks instead of
        protocol violations."""
        if not self.available:
            return False
        transaction_id = operation.transaction_id
        if operation.op_type is OpType.BEGIN:
            return (
                transaction_id not in self._active
                and transaction_id not in self._pending
            )
        return (
            transaction_id in self._active
            or transaction_id in self._pending
        )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def waits_for_edges(self) -> set:
        """(waiter, holder) edges at this site, when the protocol can
        report them (locking protocols); empty otherwise."""
        return self.protocol.waits_for_edges()

    def is_active(self, transaction_id: str) -> bool:
        return transaction_id in self._active

    def is_blocked(self, transaction_id: str) -> bool:
        return transaction_id in self._pending

    @property
    def active_transactions(self) -> frozenset:
        return frozenset(self._active)

    @property
    def blocked_transactions(self) -> frozenset:
        return frozenset(self._pending)

    def __repr__(self) -> str:
        return (
            f"<LocalDBMS site={self.site!r} protocol={self.protocol.name!r} "
            f"active={len(self._active)}>"
        )
