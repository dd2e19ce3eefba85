"""The Basic_Scheme event loop (paper Figure 3).

The engine owns QUEUE and WAIT.  It repeatedly selects the operation at
the front of QUEUE; if the scheme's ``cond`` holds the scheme's ``act``
runs and WAIT is re-examined until no waiting operation is processable;
otherwise the operation joins WAIT.

Re-examining WAIT is where the paper's complexity accounting lives: "the
number of steps required to determine the operations o_l ∈ WAIT for
which cond(o_l) holds due to the execution of act(o_j)".  A naive full
rescan would charge every scheme O(|WAIT|) per action and drown the
analytical differences, so schemes may override ``wake_hints(o)`` —
returning which waiting operations the action could have enabled (e.g.
Scheme 0's ``ack`` enables exactly the new front of one site queue).
The engine keeps WAIT indexed by (kind, site) so targeted re-examination
costs only the operations named by the hints; a scheme without hints
(``wake_hints`` returning ``None``, the default) gets the full rescan.

The engine also implements :class:`~repro.core.scheme.SchemeContext`:
``act`` implementations submit ser-operations and forward acks through
it, a ``cond`` that changes DS requests a rescan or journals a seal
through it, and an abort-based scheme aborts through it.  Handlers
injected at construction decide what submitting, acking and aborting
mean — the trace drivers (:mod:`repro.workloads.traces`) make them
synchronous, the MDBS simulator (:mod:`repro.mdbs.simulator`) makes a
submission an event with latency and an abort a global abort.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.core.events import Ack, QueueOp, Ser
from repro.core.scheme import ConservativeScheme, SchemeContext, WakeHint
from repro.exceptions import SchedulerError

#: Handler invoked when the scheme submits a ser-operation to the sites.
SubmitHandler = Callable[[Ser], None]
#: Handler invoked when the scheme forwards an ack to GTM1.
AckHandler = Callable[[Ack], None]
#: Handler invoked when the scheme aborts a transaction (GTM2 has
#: already forgotten it).
AbortHandler = Callable[[str], None]


def _op_key(operation: QueueOp) -> Tuple[str, Optional[str]]:
    return (operation.kind, operation.site)


def _op_repr(operation: QueueOp) -> str:
    """Compact ``kind(txn@site)`` label for trace attribution."""
    where = "" if operation.site is None else f"@{operation.site}"
    return f"{operation.kind}({operation.transaction_id}{where})"


class Engine(SchemeContext):
    """Figure 3's ``Basic_Scheme`` procedure as an incremental event loop.

    ``run`` processes QUEUE to exhaustion; new operations may be enqueued
    while running (e.g. immediate acks), they are processed in order.
    """

    def __init__(
        self,
        scheme: ConservativeScheme,
        submit_handler: Optional[SubmitHandler] = None,
        ack_handler: Optional[AckHandler] = None,
        abort_handler: Optional[AbortHandler] = None,
        journal=None,
        tracer=None,
    ) -> None:
        """``tracer`` (a :class:`repro.observability.Tracer`, or ``None``)
        records WAIT/GRANT/act decision points as spans; every hook is
        behind a single ``is not None`` check and never influences
        scheduling, so a disabled tracer costs nothing and an enabled
        one changes no decision."""
        self.scheme = scheme
        scheme.bind(self)
        self._submit_handler = submit_handler
        self._ack_handler = ack_handler
        self._abort_handler = abort_handler
        #: transactions the scheme aborted during the current run; an
        #: operation whose own ``cond`` aborted it is dropped, not WAITed
        self._aborted: Set[str] = set()
        #: optional :class:`repro.core.recovery.Journal` for
        #: crash recovery; logs insertions and processed operations
        self.journal = journal
        self._queue: Deque[QueueOp] = deque()
        #: WAIT, keyed by operation identity in insertion order — O(1)
        #: membership and removal where the old list paid O(|WAIT|)
        self._wait: Dict[int, QueueOp] = {}
        self._wait_index: Dict[Tuple[str, Optional[str]], List[QueueOp]] = {}
        self._wait_since: Dict[int, int] = {}
        self._ticks = 0
        #: degree-of-concurrency accounting (§4): the WAIT-set size
        #: sampled once per queue-operation tick — ``wait_area /
        #: wait_samples`` is the run's mean WAIT-set size
        self.wait_area = 0
        self.wait_samples = 0
        self._full_rescan_pending = False
        #: set by :meth:`request_rescan` from inside a ``cond``
        self._rescan_requested = False
        #: wake hints accumulated by targeted purges, consumed on the
        #: next run (see :meth:`purge_transaction`)
        self._purge_worklist: List[WakeHint] = []
        #: optional span tracer (observability layer); ``None`` = off
        self.tracer = tracer
        #: open WAIT span per waiting operation identity
        self._wait_spans: Dict[int, int] = {}
        #: last action description, for GRANT attribution in traces
        self._last_act_repr: Optional[str] = None

    # ------------------------------------------------------------------
    # SchemeContext
    # ------------------------------------------------------------------
    def submit_ser(self, operation: Ser) -> None:
        if self.tracer is not None:
            self.tracer.event(
                "site.submit",
                txn=operation.transaction_id,
                site=operation.site,
            )
        if self._submit_handler is not None:
            self._submit_handler(operation)

    def forward_ack(self, operation: Ack) -> None:
        if self._ack_handler is not None:
            self._ack_handler(operation)

    def abort_transaction(self, transaction_id: str) -> None:
        self.purge_transaction(transaction_id)
        self._aborted.add(transaction_id)
        if self._abort_handler is not None:
            self._abort_handler(transaction_id)

    def request_rescan(self) -> None:
        self._rescan_requested = True

    def log_seal(self, token: str) -> None:
        # sealing inside a cond is invisible to the act stream, so crash
        # recovery needs its own marker to rebuild the same batch
        # boundaries (see repro.core.recovery)
        if self.journal is not None:
            self.journal.log_sealed(token)

    # ------------------------------------------------------------------
    # queue management
    # ------------------------------------------------------------------
    def enqueue(self, operation: QueueOp) -> None:
        if self.journal is not None:
            self.journal.log_enqueued(operation)
        self._queue.append(operation)

    def purge_transaction(self, transaction_id: str) -> None:
        """Forget a transaction the GTM aborted: drop its queued and
        waiting operations and remove it from the scheme's DS.  Removing
        a transaction can enable waiting operations, so WAIT must be
        re-examined on the next run.  Schemes that implement
        ``purge_hints`` bound that re-examination to the operations the
        removal can actually enable (the hints are collected before
        ``remove_transaction``, while the scheme still holds the doomed
        transaction's state); otherwise the engine falls back to a full
        rescan.  The purge is journaled so crash recovery does not
        resurrect operations of dead incarnations."""
        if self.journal is not None:
            self.journal.log_purged(transaction_id)
        if self.tracer is not None:
            self.tracer.event("gtm.purge", txn=transaction_id)
            self._last_act_repr = f"purge({transaction_id})"
        self._queue = deque(
            op for op in self._queue if op.transaction_id != transaction_id
        )
        for operation in list(self._wait.values()):
            if operation.transaction_id == transaction_id:
                self._remove_waiting(operation)
                self._wait_since.pop(id(operation), None)
                if self.tracer is not None:
                    span = self._wait_spans.pop(id(operation), None)
                    if span is not None:
                        self.tracer.end(span, purged=True)
        hints = self.scheme.purge_hints(transaction_id)
        if hints is None:
            self._full_rescan_pending = True
        else:
            self._purge_worklist.extend(hints)
        self.scheme.remove_transaction(transaction_id)

    def _add_waiting(self, operation: QueueOp) -> None:
        self._wait[id(operation)] = operation
        self._wait_index.setdefault(_op_key(operation), []).append(operation)
        self._wait_since[id(operation)] = self._ticks

    def _remove_waiting(self, operation: QueueOp) -> None:
        self._wait.pop(id(operation), None)
        bucket = self._wait_index.get(_op_key(operation))
        if bucket:
            for position, waiting in enumerate(bucket):
                if waiting is operation:
                    del bucket[position]
                    break

    # ------------------------------------------------------------------
    # Figure 3 loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Process QUEUE until empty."""
        if self._full_rescan_pending:
            self._purge_worklist.clear()  # subsumed by the full rescan
            self._drain()
        elif self._purge_worklist:
            worklist = self._purge_worklist
            self._purge_worklist = []
            self._drain(set(worklist))
        while self._queue:
            operation = self._queue.popleft()
            self._ticks += 1
            if self.scheme.cond(operation):
                self._perform(operation)
            else:
                if operation.transaction_id not in self._aborted:
                    self.scheme.metrics.note_waited(operation.kind)
                    self._add_waiting(operation)
                    if self.tracer is not None:
                        self._trace_wait(operation)
                # a cond may mutate scheme state (e.g. an abort-based
                # scheme killing a deadlock victim); honour its request
                # to re-examine WAIT even though nothing was processed
                if self._consume_rescan_request():
                    self._drain()
            self.wait_area += len(self._wait)
            self.wait_samples += 1
        self._aborted.clear()

    def _consume_rescan_request(self) -> bool:
        requested, self._rescan_requested = self._rescan_requested, False
        return requested

    def _act(self, operation: QueueOp) -> None:
        if self.journal is not None:
            self.journal.log_processed(operation)
        if self.tracer is not None:
            self.tracer.event(
                f"gtm.{operation.kind}",
                txn=operation.transaction_id,
                site=operation.site,
            )
            self._last_act_repr = _op_repr(operation)
        self.scheme.act(operation)

    # ------------------------------------------------------------------
    # tracing hooks (all no-ops unless a tracer is attached)
    # ------------------------------------------------------------------
    def _trace_wait(self, operation: QueueOp) -> None:
        """Open a WAIT span, with the scheme's cause attribution for why
        ``cond`` failed (read-only: charges no metric steps)."""
        tracer = self.tracer
        assert tracer is not None
        self._wait_spans[id(operation)] = tracer.begin(
            "gtm.wait",
            txn=operation.transaction_id,
            site=operation.site,
            cause=self.scheme.explain_block(operation),
            kind=operation.kind,
        )

    def _trace_grant(self, operation: QueueOp, waited: int) -> None:
        """Close the WAIT span: cond now holds and act is about to run."""
        tracer = self.tracer
        assert tracer is not None
        span = self._wait_spans.pop(id(operation), None)
        if span is not None:
            tracer.end(
                span, waited=max(waited, 0), after_act=self._last_act_repr
            )

    def _perform(self, operation: QueueOp) -> None:
        """Run ``act`` and re-examine WAIT per the scheme's wake hints."""
        self._act(operation)
        hints = self.scheme.wake_hints(operation)
        if hints is None:
            self._drain()
            return
        worklist: Deque[WakeHint] = deque(hints)
        while worklist:
            kind, txn, site = worklist.popleft()
            for candidate in self._candidates(kind, txn, site):
                if id(candidate) not in self._wait:
                    continue
                if self.scheme.cond(candidate):
                    self._grant(candidate)
                    follow = self.scheme.wake_hints(candidate)
                    if follow is None:
                        self._drain()
                        return
                    worklist.extend(follow)

    def _grant(self, operation: QueueOp) -> None:
        """``cond`` now holds for a waiting operation: take it out of
        WAIT, charge the ticks it waited, close its WAIT span, act."""
        self._remove_waiting(operation)
        waited = self._ticks - self._wait_since.pop(id(operation), self._ticks)
        self.scheme.metrics.wait_ticks += max(waited, 0)
        if self.tracer is not None:
            self._trace_grant(operation, waited)
        self._act(operation)

    def _candidates(
        self, kind: str, txn: Optional[str], site: Optional[str]
    ) -> List[QueueOp]:
        if site is not None or kind in ("fin", "init"):
            # fin/init operations carry no site, so their index key is
            # (kind, None) and the lookup stays O(bucket)
            bucket = list(self._wait_index.get((kind, site), []))
        else:
            bucket = [
                op for op in self._wait.values() if op.kind == kind
            ]
        if txn is not None:
            bucket = [op for op in bucket if op.transaction_id == txn]
        return bucket

    def _drain(self, hints: Optional[Set[WakeHint]] = None) -> None:
        """Re-examine WAIT to fixpoint in insertion order (the literal
        inner while of Figure 3).  Without *hints* it re-examines all of
        WAIT, so it covers every earlier purge (it clears the pending
        full rescan) and honours a ``cond``'s rescan request at the
        fixpoint.  With *hints* (a targeted post-purge drain) it
        re-examines only the operations a hint matches — a set probed by
        the four wildcard masks of the (kind, txn, site) key — adding
        each grant's wake hints, and counts the skipped ones, whose
        ``cond`` the purge cannot have changed, as
        ``wake_retries_skipped``; a grant without wake hints or with a
        rescan request restarts the walk as a full drain."""
        if hints is None:
            self._full_rescan_pending = False
        progress = True
        while progress:
            progress = False
            for operation in list(self._wait.values()):
                if id(operation) not in self._wait:
                    continue  # purged by a reentrant abort
                if hints is not None and not self._matches(operation, hints):
                    self.scheme.metrics.wake_retries_skipped += 1
                    continue
                if not self.scheme.cond(operation):
                    continue
                self._grant(operation)
                progress = True
                if hints is not None:
                    follow = self.scheme.wake_hints(operation)
                    if follow is None or self._consume_rescan_request():
                        hints = None
                        self._full_rescan_pending = False
                        break
                    hints.update(follow)
            if not progress and hints is None and self._consume_rescan_request():
                progress = True

    @staticmethod
    def _matches(operation: QueueOp, hints: "Set[WakeHint]") -> bool:
        """Whether any hint covers the operation: a hint's None fields
        are wildcards, so the operation's key can only be matched by one
        of its four masked variants."""
        kind = operation.kind
        site = operation.site
        transaction_id = operation.transaction_id
        return (
            (kind, transaction_id, site) in hints
            or (kind, transaction_id, None) in hints
            or (kind, None, site) in hints
            or (kind, None, None) in hints
        )

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def assert_drained(self) -> None:
        """Raise if operations are stuck in QUEUE or WAIT (a liveness
        failure of the scheme under test)."""
        if self._queue or self._wait:
            raise SchedulerError(
                f"scheme {self.scheme.name!r} stalled: queue="
                f"{list(self._queue)!r} wait={list(self._wait.values())!r}"
            )

    def __repr__(self) -> str:
        return (
            f"<Engine scheme={self.scheme.name!r} queue={len(self._queue)} "
            f"wait={len(self._wait)}>"
        )
