"""The site-side 2PC participant.

One :class:`CommitParticipant` wraps each
:class:`~repro.lmdbs.database.LocalDBMS` and owns the participant half
of presumed-abort two-phase commit:

- **PREPARE** (:meth:`on_prepare`) — consult the local protocol's
  ``on_prepare`` hook; on GRANT, durably mark the transaction prepared
  in the :class:`~repro.lmdbs.history.HistoryLog` (the force-written
  prepared record) and vote YES.  Anything else — validation failure,
  a transaction the site no longer knows, a duplicate of an already
  decided transaction — votes NO, which presumed abort makes safe:
  before it is prepared a participant may abort unilaterally.
- **in doubt** — after a YES vote the transaction is *blocked in doubt*:
  it holds its locks and may be resolved only by a decision.  Non-forced
  aborts are refused by the database (the prepared guard), and site
  crashes preserve prepared transactions (their prepared record is
  durable).
- **DECIDE** (:meth:`on_decide`) — idempotently apply the coordinator's
  decision: COMMIT submits the local commit (acknowledged when it
  executes), ABORT force-aborts and clears the prepared mark.
- **termination protocol** — when the decision does not arrive within
  the policy's in-doubt window, the participant runs *cooperative
  termination*: it asks the participants at the transaction's sites
  (any one that executed the decision resolves it), then every entry
  of its ``resolvers`` — the coordinator (answered from the decision
  log under presumed abort) in plain 2PC, each replica of the
  coordinator *group* otherwise, so that any surviving replica
  terminates the participant and the in-doubt window no longer depends
  on one process staying up.  On restart after a crash the recovered
  prepared records trigger an immediate termination round — the
  recovery inquiry.  With a group, YES votes are additionally broadcast
  to it (``vote_broadcast``) so a replica recovery round can compute
  the decision from the quorum-logged votes.

Every inquiry and reply is one message through the injected ``send`` on
the participant's own site channel, so loss, duplication, and delay
apply to the termination traffic exactly as to everything else.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.commit.model import CommitPolicy, CommitStats
from repro.lmdbs.database import LocalDBMS
from repro.lmdbs.protocols.base import Verdict
from repro.schedules.model import Operation, OpType, commit as commit_op

#: Decision acknowledgement: ``ack(applied)`` — False means the
#: participant could not honour the decision (a protocol soundness
#: violation for COMMIT; surfaced, never silently swallowed).
DecisionAck = Callable[[bool], None]
#: An in-doubt inquiry: ``resolve(incarnation)`` is True/False once the
#: answerer knows the decision, None when it cannot tell (yet).
Resolve = Callable[[str], Optional[bool]]


class CommitParticipant:
    """Participant role of one site in presumed-abort 2PC."""

    def __init__(
        self,
        site: str,
        db: LocalDBMS,
        loop,
        policy: CommitPolicy,
        stats: CommitStats,
        send: Callable[[Callable[[], None], str], None],
        resolvers: Sequence[Tuple[str, Resolve]],
        peers: Optional[Callable[[str], Sequence["CommitParticipant"]]] = None,
        on_yes_vote: Optional[Callable[[str, int], None]] = None,
        site_up: Optional[Callable[[], bool]] = None,
        vote_broadcast: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.site = site
        self.db = db
        self.loop = loop
        self.policy = policy
        self.stats = stats
        #: sends one message on a channel (the plane's ``send``): inquiries
        #: and replies are messages, the lookups they carry are synchronous
        self.send = send
        #: ``(source, resolve)`` asked after the peers in a termination
        #: round: ``("coordinator", …)`` in plain 2PC, one
        #: ``("replica-<rank>", …)`` per replica of a coordinator group
        self.resolvers = tuple(resolvers)
        #: coordinator-group mode: broadcast this site's YES vote to the
        #: replica quorum (re-run on restart for surviving prepared
        #: records)
        self.vote_broadcast = vote_broadcast
        #: fault-point hook: called after each YES vote with the site's
        #: running YES count (drives ``FaultPlan.crash_after_prepare``)
        self.on_yes_vote = on_yes_vote
        #: ``peers(incarnation)``: the participants at the incarnation's
        #: own sites, asked first in a termination round
        self.peers = peers or (lambda incarnation: ())
        #: in-doubt entry times, and the resolved window lengths (E11)
        self._in_doubt_since: Dict[str, float] = {}
        self.in_doubt_times: List[float] = []
        self._termination_timers: Dict[str, object] = {}
        self._termination_attempts: Dict[str, int] = {}
        #: COMMIT decisions currently applying (volatile — a crash
        #: forgets them and a redelivered decision re-applies)
        self._committing: Set[str] = set()
        self._commit_waiters: Dict[str, List[DecisionAck]] = {}
        self._yes_votes = 0
        #: the consolidated availability check (repro.faults.site_up);
        #: the simulator wires injector down-windows in, the default
        #: sees only DBMS availability
        self.site_up: Callable[[], bool] = (
            site_up if site_up is not None else (lambda: self.db.available)
        )

    # ------------------------------------------------------------------
    # phase 1: PREPARE
    # ------------------------------------------------------------------
    def on_prepare(self, incarnation: str) -> bool:
        """Vote on *incarnation*; True = YES (prepared record written)."""
        outcome = self.db.history.outcome_of(incarnation)
        if outcome is OpType.COMMIT:
            return True  # already decided and applied; the ack was lost
        if outcome is OpType.ABORT:
            return False
        if self.db.history.is_prepared(incarnation):
            return True  # duplicate PREPARE: the promise stands
        if not self.db.is_active(incarnation) or self.db.is_blocked(
            incarnation
        ):
            # never began here, wiped by a crash, or an operation is
            # still in flight: refuse — safe, because a participant may
            # abort unilaterally at any point before it votes YES
            self.stats.votes_no += 1
            return False
        decision = self.db.protocol.on_prepare(incarnation)
        if decision.verdict is not Verdict.GRANT:
            # validation failure (OCC) or any other refusal: the vote is
            # NO and the subtransaction dies here and now
            self.stats.votes_no += 1
            self.db.abort_transaction(
                incarnation, decision.reason or "prepare refused"
            )
            return False
        self.db.history.mark_prepared(incarnation)
        self.stats.votes_yes += 1
        self._enter_in_doubt(incarnation)
        self._yes_votes += 1
        if self.on_yes_vote is not None:
            self.on_yes_vote(self.site, self._yes_votes)
        if self.vote_broadcast is not None:
            self.vote_broadcast(incarnation)
        return True

    # ------------------------------------------------------------------
    # phase 2: DECIDE
    # ------------------------------------------------------------------
    def on_decide(self, incarnation: str, commit: bool, ack: DecisionAck) -> None:
        """Apply the coordinator's decision, idempotently."""
        self.stats.decides_delivered += 1
        outcome = self.db.history.outcome_of(incarnation)
        if not commit:
            if (
                self.db.history.is_prepared(incarnation)
                or self.db.is_active(incarnation)
                or self.db.is_blocked(incarnation)
            ):
                self.db.abort_transaction(
                    incarnation, "coordinator decided abort", force=True
                )
            self._leave_in_doubt(incarnation)
            ack(True)
            return
        if outcome is OpType.COMMIT:
            ack(True)  # decision already applied; re-acknowledge
            return
        if outcome is OpType.ABORT or not self.db.history.is_prepared(
            incarnation
        ):
            # a COMMIT decision reached a participant that is not
            # prepared — impossible in a sound run; nack so the
            # violation is surfaced (check_atomicity sees the ground
            # truth) instead of retried forever
            ack(False)
            return
        self._commit_waiters.setdefault(incarnation, []).append(ack)
        if incarnation in self._committing:
            return  # a commit is already applying; all acks share it
        self._committing.add(incarnation)

        def applied(op: Operation, value, aborted: bool) -> None:
            self._committing.discard(incarnation)
            if not aborted:
                self.db.history.clear_prepared(incarnation)
                self._leave_in_doubt(incarnation)
            for waiter in self._commit_waiters.pop(incarnation, []):
                waiter(not aborted)

        self.db.submit(commit_op(incarnation, self.site), callback=applied)

    def local_outcome(self, incarnation: str) -> Optional[bool]:
        """Peer-inquiry answer: True/False when this site saw the
        decision (its durable history has a COMMIT/ABORT), None when it
        has no information (or is dark)."""
        if not self.site_up():
            return None
        outcome = self.db.history.outcome_of(incarnation)
        if outcome is OpType.COMMIT:
            return True
        if outcome is OpType.ABORT:
            return False
        return None

    # ------------------------------------------------------------------
    # in-doubt bookkeeping + termination protocol
    # ------------------------------------------------------------------
    def _enter_in_doubt(self, incarnation: str) -> None:
        self._in_doubt_since[incarnation] = self.loop.now
        self._arm_termination(incarnation)

    def _leave_in_doubt(self, incarnation: str) -> None:
        since = self._in_doubt_since.pop(incarnation, None)
        if since is not None:
            self.in_doubt_times.append(self.loop.now - since)
            self.stats.in_doubt_resolved += 1
        timer = self._termination_timers.pop(incarnation, None)
        if timer is not None:
            timer.cancel()
        self._termination_attempts.pop(incarnation, None)

    def _arm_termination(self, incarnation: str) -> None:
        attempt = self._termination_attempts.get(incarnation, 0) + 1
        self._termination_attempts[incarnation] = attempt
        delay = min(
            self.policy.decision_timeout
            * self.policy.backoff_factor ** (attempt - 1),
            self.policy.max_timeout,
        )
        self._termination_timers[incarnation] = self.loop.schedule(
            delay, lambda: self._run_termination(incarnation)
        )

    def _run_termination(self, incarnation: str) -> None:
        """One termination round: ask the incarnation's peers, then every
        resolver; the first definite answer resolves the in-doubt txn."""
        if incarnation not in self._in_doubt_since:
            return
        if not self.site_up():
            self._arm_termination(incarnation)
            return  # we are dark; try again after the next backoff
        self.stats.termination_rounds += 1
        for peer in self.peers(incarnation):
            if peer is not self:
                self._inquire(incarnation, peer.local_outcome, "peer")
        for source, resolve in self.resolvers:
            self._inquire(incarnation, resolve, source)
        self._arm_termination(incarnation)

    def _inquire(self, incarnation: str, resolve: Resolve, source: str) -> None:
        """One inquiry: the question travels to *source*, is answered
        there by *resolve* (None — unreachable or undecided — sends no
        reply; a later round asks again), and a definite answer travels
        back."""

        def answer() -> None:
            if incarnation not in self._in_doubt_since:
                return
            verdict = resolve(incarnation)
            if verdict is not None:
                self.send(
                    lambda: self._resolve_in_doubt(incarnation, verdict, source),
                    self.site,
                )

        self.send(answer, self.site)

    def _resolve_in_doubt(
        self, incarnation: str, commit: bool, source: str
    ) -> None:
        if incarnation not in self._in_doubt_since:
            return  # the real decision (or another reply) got here first
        if not self.site_up():
            return  # crashed while the reply was in flight
        if source == "peer":
            self.stats.resolved_by_peer += 1
        elif source == "coordinator":
            self.stats.resolved_by_coordinator += 1
        else:
            self.stats.resolved_by_replica += 1
        self.on_decide(incarnation, commit, lambda ok: None)

    # ------------------------------------------------------------------
    # crash / restart
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """The site crashed: volatile participant state (in-flight
        decision applications, pending acks, timers) is lost; the
        durable prepared records and the in-doubt entry times (metrics
        measure the full blocked window, across the crash) survive."""
        self._committing.clear()
        self._commit_waiters.clear()
        for timer in self._termination_timers.values():
            timer.cancel()
        self._termination_timers.clear()
        self._termination_attempts.clear()

    def on_restart(self) -> None:
        """Recovery inquiry: every prepared record found in the durable
        log re-enters the in-doubt ledger and immediately runs a
        termination round against the peers and the resolvers."""
        for incarnation in sorted(self.db.history.prepared_transactions):
            if incarnation not in self._in_doubt_since:
                self._in_doubt_since[incarnation] = self.loop.now
            timer = self._termination_timers.pop(incarnation, None)
            if timer is not None:
                timer.cancel()
            if self.vote_broadcast is not None:
                # the quorum may never have heard this vote (we crashed
                # mid-broadcast): re-announce from the durable record
                self.vote_broadcast(incarnation)
            self._run_termination(incarnation)

    def open_in_doubt(self, now: float) -> Tuple[float, ...]:
        """Still-open in-doubt windows measured up to *now*, in
        incarnation order — flushed into the in-doubt metrics at
        simulation end so a run that finishes with a blocked participant
        reports the window it is actually measuring."""
        return tuple(
            now - since
            for _, since in sorted(self._in_doubt_since.items())
        )

    def __repr__(self) -> str:
        return (
            f"<CommitParticipant site={self.site!r} "
            f"in_doubt={len(self._in_doubt_since)}>"
        )
