"""GTM2 journaling and crash recovery.

The paper closes with "further work still remains to be done on making
the developed schemes fault-tolerant."  This module provides the natural
mechanism: GTM2's state is a deterministic function of the sequence of
operations it *processed* (its ``act`` order), so journaling that
sequence — plus the QUEUE insertions — makes the scheduler recoverable:

1. every QUEUE insertion is logged (``log_enqueued``) and stamped with a
   monotonically increasing sequence number, making the log duplicate
   safe (two value-equal records are distinct entries) and letting
   :meth:`Journal.outstanding` run in O(n);
2. every processed operation is logged (``log_processed``), which the
   :class:`~repro.core.engine.Engine` does automatically when a journal
   is attached; value-equal records are matched FIFO, i.e. positionally;
3. transaction purges (the GTM aborting a global transaction and
   dropping its queued/waiting operations) are logged (``log_purged``)
   so that recovery does not resurrect operations of dead incarnations;
4. cond-time state changes are logged too: Scheme 4 *demand-seals* (plans
   a partial batch) inside ``cond_ser``, which the act stream cannot
   reproduce — replaying acts alone would re-buffer the sealed
   transactions, let a later ``act_init`` refill the buffer, and seal a
   batch whose planned order can contradict the ser-operations the
   sites already executed pre-crash.  The engine journals each
   demand-seal (``log_sealed``) at its position in the processed
   sequence so replay reproduces the original batch boundaries;
5. after a crash, :func:`recover_engine` rebuilds a fresh scheme by
   replaying the processed sequence with side effects suppressed (the
   pre-crash submissions already reached the sites), interleaving the
   logged purges and demand-seals at their original positions,
   re-enqueues the logged-but-unprocessed operations, and returns a
   live engine that resumes exactly where the old one stopped.

The replay is sound because every scheme's ``act`` is deterministic
given its input sequence, the journal order *was* a valid processing
order (each ``cond`` held when its ``act`` ran), and the only
``cond``-time mutations any scheme performs are the journaled
demand-seals (themselves deterministic given the state replay has
already rebuilt when they are re-applied).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.engine import AbortHandler, AckHandler, Engine, SubmitHandler
from repro.core.events import Ack, QueueOp, Ser
from repro.core.scheme import ConservativeScheme, SchemeContext
from repro.exceptions import SchedulerError


@dataclass
class Journal:
    """Append-only log of GTM2 activity (stable storage stand-in).

    ``enqueued[i]`` implicitly carries sequence number ``i`` (assigned at
    :meth:`log_enqueued` time); ``processed`` is the act order; ``purges``
    records ``(position_in_processed, transaction_id)`` markers.
    """

    enqueued: List[QueueOp] = field(default_factory=list)
    processed: List[QueueOp] = field(default_factory=list)
    #: ``(processed-position, transaction_id)`` purge markers: the purge
    #: happened after ``processed[:position]`` had been acted on
    purges: List[Tuple[int, str]] = field(default_factory=list)
    #: ``(processed-position, purges-logged, token)`` demand-seal
    #: markers: the scheme planned a batch inside a ``cond`` after
    #: ``processed[:position]`` had been acted on.  ``purges-logged``
    #: snapshots ``len(purges)`` at log time so replay can interleave
    #: the two cond-time streams in their original relative order when
    #: both land between the same pair of acts.
    seals: List[Tuple[int, int, str]] = field(default_factory=list)
    #: 2PC coordinator decision records, in decision order.  Presumed
    #: abort logs *only* COMMIT decisions — the force-write that must
    #: precede any outgoing COMMIT message; an incarnation absent from
    #: this list is presumed aborted (:mod:`repro.commit.coordinator`).
    decisions: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Rebuild the sequence-number index from the (possibly truncated)
        # lists: value-equal records are matched FIFO by position, which
        # is exact because the engine processes each enqueued record at
        # most once and duplicates are themselves distinct enqueues.
        self._unprocessed: Dict[QueueOp, Deque[int]] = {}
        self._pending_seqs: Set[int] = set()
        #: processed records never seen in ``enqueued`` — corruption,
        #: reported lazily by :meth:`outstanding` (matches historical
        #: behaviour of raising at recovery time, not at log time)
        self._orphan_processed: List[QueueOp] = []
        for seq, operation in enumerate(self.enqueued):
            self._unprocessed.setdefault(operation, deque()).append(seq)
            self._pending_seqs.add(seq)
        for operation in self.processed:
            self._consume(operation)
        self._decided: Set[str] = set(self.decisions)

    def _consume(self, operation: QueueOp) -> None:
        bucket = self._unprocessed.get(operation)
        if not bucket:
            self._orphan_processed.append(operation)
            return
        self._pending_seqs.discard(bucket.popleft())

    # ------------------------------------------------------------------
    # logging
    # ------------------------------------------------------------------
    def log_enqueued(self, operation: QueueOp) -> int:
        """Record an insertion; returns its monotonic sequence number."""
        seq = len(self.enqueued)
        self.enqueued.append(operation)
        self._unprocessed.setdefault(operation, deque()).append(seq)
        self._pending_seqs.add(seq)
        return seq

    def log_processed(self, operation: QueueOp) -> None:
        self.processed.append(operation)
        self._consume(operation)

    def log_purged(self, transaction_id: str) -> None:
        """Record that the GTM purged *transaction_id* (all of its
        logged-but-unprocessed operations are dead)."""
        self.purges.append((len(self.processed), transaction_id))

    def log_sealed(self, token: str) -> None:
        """Record that the scheme sealed (planned) a batch *outside* the
        act stream — Scheme 4 demand-seals partial batches inside
        ``cond_ser``.  Size-triggered seals inside ``act_init`` replay
        deterministically from the processed sequence and are not
        logged.  *token* identifies the sealed component to the scheme's
        ``replay_seal`` (Scheme 4 uses the blocked operation's site)."""
        self.seals.append((len(self.processed), len(self.purges), token))

    def log_decision(self, incarnation: str) -> None:
        """Force-log a 2PC COMMIT decision (idempotent).  Presumed
        abort never logs ABORT decisions — absence means abort."""
        if incarnation in self._decided:
            return
        self._decided.add(incarnation)
        self.decisions.append(incarnation)

    # ------------------------------------------------------------------
    # recovery queries
    # ------------------------------------------------------------------
    @property
    def purged_transactions(self) -> frozenset:
        return frozenset(transaction_id for _, transaction_id in self.purges)

    def commit_decisions(self) -> Tuple[str, ...]:
        """All logged COMMIT decisions, in decision order."""
        return tuple(self.decisions)

    def outstanding(self) -> Tuple[QueueOp, ...]:
        """Logged-but-unprocessed operations, in insertion order, with
        operations of purged transactions excluded.  O(n) via the
        sequence numbers assigned at :meth:`log_enqueued`."""
        if self._orphan_processed:
            raise SchedulerError(
                f"journal processed operations never enqueued: "
                f"{self._orphan_processed!r}"
            )
        dead = self.purged_transactions
        return tuple(
            operation
            for seq, operation in enumerate(self.enqueued)
            if seq in self._pending_seqs and operation.transaction_id not in dead
        )

    def __len__(self) -> int:
        return len(self.enqueued)


class _ReplayContext(SchemeContext):
    """Suppresses side effects during replay: pre-crash submissions
    already reached the local DBMSs, acks and aborts already reached
    GTM1, and a replayed abort's purge is re-applied at its journaled
    position."""

    def __init__(self) -> None:
        self.replayed_submissions: List[Ser] = []

    def submit_ser(self, operation: Ser) -> None:
        self.replayed_submissions.append(operation)

    def forward_ack(self, operation: Ack) -> None:
        pass

    def abort_transaction(self, transaction_id: str) -> None:
        pass


def replay_scheme(
    scheme: ConservativeScheme, journal: Journal
) -> ConservativeScheme:
    """Rebuild *scheme*'s data structures by replaying the journal's
    processed sequence (side effects suppressed), applying the logged
    purges and demand-seals at the positions where they originally
    happened — so batch boundaries, and hence the rebuilt plan, match
    the pre-crash ones exactly."""
    context = _ReplayContext()
    scheme.bind(context)
    purge_at: Dict[int, List[Tuple[int, str]]] = {}
    for purge_index, (position, transaction_id) in enumerate(journal.purges):
        purge_at.setdefault(position, []).append(
            (purge_index, transaction_id)
        )
    seal_at: Dict[int, List[Tuple[int, str]]] = {}
    for position, purges_logged, token in journal.seals:
        seal_at.setdefault(position, []).append((purges_logged, token))

    def apply_cond_time_events(position: int) -> None:
        """Re-apply what happened between ``processed[position - 1]``
        and ``processed[position]``: purges and demand-seals, in their
        original relative order (each seal marker carries the purge
        count at its log time)."""
        purges = purge_at.get(position, ())
        seals = seal_at.get(position, ())
        cursor = 0
        for purge_index, transaction_id in purges:
            while cursor < len(seals) and seals[cursor][0] <= purge_index:
                scheme.replay_seal(seals[cursor][1])
                cursor += 1
            scheme.remove_transaction(transaction_id)
        for _, token in seals[cursor:]:
            scheme.replay_seal(token)

    for index, operation in enumerate(journal.processed):
        apply_cond_time_events(index)
        scheme.act(operation)
    apply_cond_time_events(len(journal.processed))
    return scheme


def recover_engine(
    scheme: ConservativeScheme,
    journal: Journal,
    submit_handler: Optional[SubmitHandler] = None,
    ack_handler: Optional[AckHandler] = None,
    abort_handler: Optional[AbortHandler] = None,
) -> Engine:
    """Recover a live GTM2 from *journal*: replay the processed prefix
    into *scheme*, attach the (fresh) scheme to a new engine, and
    re-enqueue everything logged but not yet processed (minus the
    operations of purged transactions).

    The caller supplies a *fresh* scheme instance of the same class and
    configuration as the crashed one.  The recovered engine goes on
    logging to *journal*, so it is itself recoverable.
    """
    replay_scheme(scheme, journal)
    engine = Engine(
        scheme,
        submit_handler=submit_handler,
        ack_handler=ack_handler,
        abort_handler=abort_handler,
        journal=journal,
    )
    # re-binding happened in Engine.__init__; do not double-log the
    # outstanding operations — they are already in the journal
    for operation in journal.outstanding():
        engine._queue.append(operation)
    return engine
