"""The GTM-side presumed-abort 2PC coordinator.

State machine per global transaction (one incarnation at a time):

``voting`` → (all YES) → ``committed`` — the only transition that writes
to stable storage: the COMMIT decision is made durable *before* any
participant is told, so a GTM2 crash can never forget a commit a
participant already applied.

``voting`` → (any NO / timeout / local abort) → ``aborted`` — nothing is
logged.  Forgetting *is* the abort decision: any inquiry about a
transaction with no commit record and no open voting round is answered
ABORT (the "presumed abort" rule), which is exactly why abort decisions
need neither log writes nor acknowledgements.

Where "durable" lives is the decision log the coordinator is built over:

- :class:`JournalDecisionLog` — the PR 2 behaviour: a force-write to the
  local :class:`~repro.core.recovery.Journal`, synchronously durable,
  blocking every in-doubt participant if the GTM is down;
- :class:`~repro.commit.group.QuorumDecisionLog` — the decision is one
  consensus instance over a replicated coordinator group; durability
  arrives asynchronously (a quorum round-trip later), and — because a
  surviving replica may have terminated the transaction first — the
  chosen value can *differ* from the GTM's verdict.  ``decide_commit`` /
  ``decide_abort`` therefore report the chosen value through
  ``on_durable`` and the caller acts on that, not on its own proposal.

After a GTM2 crash, :meth:`TwoPhaseCoordinator.recover` rebuilds the
decided-commit set from the backend's decision records; the caller
(GTM1, whose bookkeeping survives — see ``docs/fault_model.md``)
re-opens the voting rounds of its still-live incarnations so in-doubt
inquiries made *during* an open round are answered "undecided" rather
than prematurely presumed aborted.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from repro.commit.model import CommitStats


class JournalDecisionLog:
    """The single-coordinator backend: decisions are force-logged to a
    local :class:`repro.core.recovery.Journal` (or anything with
    ``log_decision``/``commit_decisions``) and durable the moment the
    call returns."""

    def __init__(self, journal) -> None:
        self.journal = journal

    def log_commit(
        self, incarnation: str, on_durable: Callable[[bool], None]
    ) -> None:
        self.journal.log_decision(incarnation)
        on_durable(True)

    def log_abort(
        self, incarnation: str, on_durable: Callable[[bool], None]
    ) -> None:
        # presumed abort: nothing written, immediately "durable"
        on_durable(False)

    def commit_decisions(self):
        return self.journal.commit_decisions()

    def outcome(self, incarnation: str) -> Optional[bool]:
        # the journal records commits only; absence is not knowledge
        return None


class TwoPhaseCoordinator:
    """Presumed-abort commit coordinator over a durable decision log
    (:class:`JournalDecisionLog` or
    :class:`~repro.commit.group.QuorumDecisionLog`)."""

    def __init__(
        self,
        decision_log,
        stats: Optional[CommitStats] = None,
    ) -> None:
        self.decision_log = decision_log
        self.stats = stats or CommitStats()
        self._commits: Set[str] = set(self.decision_log.commit_decisions())
        #: incarnations with an open voting round: inquiries about them
        #: are answered "undecided" instead of presumed-abort
        self._voting: Set[str] = set()

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def begin_voting(self, incarnation: str) -> None:
        self._voting.add(incarnation)

    def decide_commit(
        self,
        incarnation: str,
        on_durable: Optional[Callable[[bool], None]] = None,
    ) -> None:
        """All participants voted YES: make the decision durable, then
        remember.  The durability callback precedes every outgoing
        COMMIT message — the presumed-abort invariant that makes
        recovery sound.  ``on_durable`` receives the *chosen* value:
        True almost always, False when a replicated backend reports the
        group already durably presumed abort (the caller must then treat
        the transaction as aborted)."""
        self._decide(incarnation, self.decision_log.log_commit, on_durable)

    def decide_abort(
        self,
        incarnation: str,
        on_durable: Optional[Callable[[bool], None]] = None,
    ) -> None:
        """Abort decision: close the voting round and forget.  With the
        journal backend nothing is logged and nothing awaited — absence
        means abort.  A replicated backend must still run consensus (an
        explicit abort record), because a surviving replica may already
        have durably chosen COMMIT from a complete quorum-logged vote
        set; ``on_durable`` then reports True and the caller must
        deliver commits, not aborts."""
        self._decide(incarnation, self.decision_log.log_abort, on_durable)

    def _decide(
        self,
        incarnation: str,
        log: Callable[[str, Callable[[bool], None]], None],
        on_durable: Optional[Callable[[bool], None]],
    ) -> None:
        """The one decision path: *log* the verdict, then record and
        report whatever value became durable.  A decided commit is
        final, so it is reported again without touching the log."""

        def durable(chosen_commit: bool) -> None:
            # the voting round stays open until here so inquiries made
            # while durability is in flight are answered "ask again",
            # never prematurely presumed abort
            self._voting.discard(incarnation)
            if chosen_commit:
                self._record_commit(incarnation)
            else:
                self._record_abort(incarnation)
            if on_durable is not None:
                on_durable(chosen_commit)

        if incarnation in self._commits:
            durable(True)
        else:
            log(incarnation, durable)

    def _record_commit(self, incarnation: str) -> None:
        if incarnation in self._commits:
            return
        self._commits.add(incarnation)
        self.stats.commit_decisions += 1

    def _record_abort(self, incarnation: str) -> None:
        self.stats.abort_decisions += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def resolve(self, incarnation: str) -> Optional[bool]:
        """Answer an in-doubt participant's inquiry: True = COMMIT,
        False = ABORT (presumed), None = still voting, ask again."""
        self.stats.inquiries += 1
        outcome = self.decision_log.outcome(incarnation)
        if incarnation in self._commits or outcome is True:
            answer: Optional[bool] = True
        elif outcome is False:
            answer = False
        elif incarnation in self._voting:
            answer = None
        else:
            answer = False
        return answer

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        decision_log,
        stats: Optional[CommitStats] = None,
    ) -> "TwoPhaseCoordinator":
        """Rebuild after a GTM2 crash: the durable COMMIT decisions are
        replayed from the decision log; everything else is presumed
        aborted until the caller re-opens its surviving voting rounds
        via :meth:`begin_voting`."""
        coordinator = cls(decision_log, stats)
        coordinator.stats.coordinator_recoveries += 1
        return coordinator

    def __repr__(self) -> str:
        return (
            f"<TwoPhaseCoordinator commits={len(self._commits)} "
            f"voting={len(self._voting)}>"
        )
