"""The atomic-commitment driver beside GTM1 (:mod:`repro.commit`).

Presumed-abort 2PC: the plan's per-site commits travel as PREPARE votes
(the kernel sends them through :attr:`CommitDriver.participants`), and
once GTM1 has finished an incarnation — every site voted YES, or GTM1
gave up on it — this driver makes the decision durable and delivers it.
With ``group_size >= 1`` the decision log is a replicated coordinator
group: durability lands a quorum round-trip later and the group may
already have chosen the *other* value, which then wins ("overruled").
Built only when the simulator runs with ``atomic_commit``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.commit import (
    CommitParticipant,
    CommitPolicy,
    CommitStats,
    CoordinatorGroup,
    JournalDecisionLog,
    QuorumDecisionLog,
    TwoPhaseCoordinator,
)
from repro.core.gtm import logical_id
from repro.core.recovery import Journal
from repro.lmdbs.database import LocalDBMS
from repro.mdbs.fault_scheduler import FaultScheduler
from repro.mdbs.server import MessagePlane


class CommitDriver:
    """Coordinator, participants and (optionally) the coordinator group
    of one run, plus the delivery of their decisions."""

    def __init__(
        self,
        plane: MessagePlane,
        sites: Mapping[str, LocalDBMS],
        policy: CommitPolicy,
        journal: Journal,
        group_size: int,
        faults: Optional[FaultScheduler],
        *,
        is_up: Callable[[str], bool],
        purge_gtm2: Callable[[str], None],
        record_commit: Callable[[str], None],
    ) -> None:
        self._sites = sites
        self._plane = plane
        self._loop = plane.loop
        self._is_up = is_up
        self._purge_gtm2 = purge_gtm2
        self._record_commit = record_commit
        self.stats = CommitStats()
        #: replicated decision log (repro.commit.group): size 0 keeps the
        #: single-coordinator journal backend; size >= 1 routes every
        #: decision through quorum consensus and in-doubt termination
        #: through the replicas
        self.group_size = group_size
        self.group: Optional[CoordinatorGroup] = None
        if group_size >= 1:
            group = self.group = CoordinatorGroup(
                group_size, self._loop, plane.send, retry=plane.retry
            )
            if faults is not None:
                # fault points: a replica crashes keyed to its vote-log
                # progress (the window between a YES vote landing and the
                # decision round); the acting leader and the GTM drop to
                # the minority side once *count* votes are quorum-durable,
                # so in-doubt participants must terminate through a
                # takeover
                group.on_vote_logged = lambda rank, count: faults.at_progress(
                    "crash_coordinator_replica",
                    (rank, count),
                    partial(self._crash_replica, rank),
                )
                group.on_quorum_vote = lambda count: faults.at_progress(
                    "vote_decide_partitions", (count,), group.partition_leader
                )
            # an in-doubt participant asks every replica after its peers
            resolvers = tuple(
                (group.channel(rank), partial(group.inquire, rank))
                for rank in range(group_size)
            )
            self._decision_log = QuorumDecisionLog(group)
        else:
            # ...or the coordinator, through self: it is rebuilt after a
            # GTM2 crash, over the same (durable) decision log
            resolvers = (
                ("coordinator", lambda inc: self.coordinator.resolve(inc)),
            )
            self._decision_log = JournalDecisionLog(journal)
        self.coordinator = TwoPhaseCoordinator(self._decision_log, self.stats)
        self.participants: Dict[str, CommitParticipant] = {
            site: CommitParticipant(
                site,
                db,
                self._loop,
                policy=policy,
                stats=self.stats,
                send=plane.send,
                resolvers=resolvers,
                # a termination round asks only the incarnation's sites
                peers=lambda inc: [
                    self.participants[s] for s in self._incarnation_sites.get(inc, ())
                ],
                # fault point: the site goes dark in the window between
                # its YES vote and the decision
                on_yes_vote=(
                    partial(faults.crash_site_at, "crash_after_prepare")
                    if faults is not None
                    else None
                ),
                site_up=partial(is_up, site),
                vote_broadcast=(
                    (lambda inc, s=site: self.broadcast_vote(inc, s))
                    if self.group is not None
                    else None
                ),
            )
            for site, db in sites.items()
        }
        #: durable incarnation → expected-site record: outlives the
        #: kernel's runtime entry so a restarted participant's vote
        #: re-broadcast still announces the full site set (a takeover
        #: quorum that never learns it would presume abort on a
        #: fully-voted txn)
        self._incarnation_sites: Dict[str, Tuple[str, ...]] = {}
        #: decision phase in flight: incarnation -> sites not yet acked
        self._deciding: Dict[str, Set[str]] = {}
        #: decide-commit → all-sites-acked latencies of committed
        #: globals (E11)
        self.commit_latencies: List[float] = []

    def _crash_replica(self, rank: int, downtime: float) -> None:
        if self.group.crash_replica(rank):
            self._loop.schedule(
                downtime, lambda: self.group.restart_replica(rank)
            )

    # ------------------------------------------------------------------
    # voting
    # ------------------------------------------------------------------
    def begin_voting(self, incarnation: str, sites: Tuple[str, ...]) -> None:
        """GTM1 started *incarnation* over *sites*: open its round."""
        self._incarnation_sites[incarnation] = sites
        self.coordinator.begin_voting(incarnation)

    def gtm2_recovered(self, live: Iterable[str]) -> None:
        """The coordinator's volatile state died with GTM2; rebuild the
        decided-commit set from the decision log — the local journal's
        force-logged records, or (group mode) the replicas' chosen
        ledger, which lives outside the GTM and survives untouched —
        then re-open the voting rounds of the *live* incarnations GTM1
        still tracks (its bookkeeping survives) so in-doubt inquiries
        made mid-vote are not prematurely presumed abort."""
        self.coordinator = TwoPhaseCoordinator.recover(
            self._decision_log, self.stats
        )
        for incarnation in live:
            self.coordinator.begin_voting(incarnation)

    def broadcast_vote(self, incarnation: str, site: str) -> None:
        """Multi-shot commit: fan a participant's YES vote out to every
        coordinator replica so the vote is quorum-logged, not held by a
        single coordinator."""
        # the durable record, not the kernel's live runtime: a restarted
        # participant re-broadcasts after GTM1 finished the incarnation,
        # and the replicas still need the full expected set
        self.group.broadcast_vote(
            incarnation,
            site,
            self._incarnation_sites.get(incarnation, ()),
            origin_up=partial(self._is_up, site),
        )

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def decide_commit(
        self,
        incarnation: str,
        sites: Tuple[str, ...],
        overruled: Callable[[], None],
    ) -> None:
        """Phase 2 of 2PC (commit side): make the decision durable, then
        deliver it to every participant; the global transaction is
        recorded committed when all sites acknowledged.  With the
        journal backend durability is synchronous; with a commit group
        it lands a quorum round-trip later — and may come back ABORT
        when a surviving replica terminated the transaction first (a
        recovery round presumed abort for votes it could not see).  The
        chosen value is the truth: *overruled* then aborts and restarts
        the incarnation (GTM2 already processed its Fin)."""
        started = self._loop.now

        def durable(chosen_commit: bool) -> None:
            if chosen_commit:
                self._deliver_commit_decides(incarnation, sites, started)
                return
            self.group.stats.commits_overruled += 1
            overruled()

        self.coordinator.decide_commit(incarnation, on_durable=durable)

    def decide_abort(
        self,
        incarnation: str,
        sites: Tuple[str, ...],
        aborted: Callable[[], None],
    ) -> None:
        """Presumed abort: close the voting round, then let the kernel
        finish the abort (*aborted*).  With the journal backend the
        abort is durable synchronously; with a commit group the proposal
        may instead discover that a takeover already durably chose
        COMMIT from the quorum-logged votes — the chosen value wins, so
        the commit is completed rather than double-decided."""

        def durable(chosen_commit: bool) -> None:
            if not chosen_commit:
                aborted()
                return
            self.group.stats.aborts_overruled += 1
            self._purge_gtm2(incarnation)
            self._deliver_commit_decides(incarnation, sites, self._loop.now)

        self.coordinator.decide_abort(incarnation, on_durable=durable)

    def _deliver_commit_decides(
        self, incarnation: str, sites: Tuple[str, ...], started: float
    ) -> None:
        pending: Set[str] = set(sites)
        self._deciding[incarnation] = pending
        for site in sites:

            def completion(ok: bool, site: str = site) -> None:
                if self._deciding.get(incarnation) is not pending:
                    return  # stale ack from a superseded decide round
                if not ok:
                    # a participant could not apply a COMMIT decision —
                    # a soundness violation check_atomicity will surface
                    # from the ground-truth histories
                    self.stats.decide_commit_nacks += 1
                pending.discard(site)
                if not pending:
                    del self._deciding[incarnation]
                    self._record_commit(logical_id(incarnation))
                    self.commit_latencies.append(self._loop.now - started)

            self._plane.server(incarnation, self._sites[site]).decide(
                self.participants[site], True, completion
            )

    def send_abort_decisions(
        self, incarnation: str, sites: Iterable[str]
    ) -> None:
        """Fire-and-forget ABORT decisions: presumed abort awaits no
        ack, so one faulty send per site suffices — the termination
        protocol (prepared sites) and the orphan sweep (unprepared
        leftovers) mop up after a lost copy."""
        for site in sites:

            def deliver(site: str = site) -> None:
                if self._is_up(site):
                    self.abort_at(site, incarnation)
                # else the crash wiped it; recovery inquiry covers us

            self._plane.send(deliver, site)

    def abort_at(self, site: str, incarnation: str) -> None:
        """Apply an ABORT decision at *site* through its participant, so
        even a prepared leftover is resolved force-aborted."""
        self.participants[site].on_decide(incarnation, False, lambda ok: None)

    # ------------------------------------------------------------------
    # site crash / restart (subscribed by the kernel)
    # ------------------------------------------------------------------
    def on_site_crash(self, site: str) -> None:
        # volatile participant state dies with the site; prepared
        # records survive
        self.participants[site].on_crash()

    def on_site_restart(self, site: str) -> None:
        # recovery inquiry: prepared records found in the durable log
        # immediately run a termination round
        self.participants[site].on_restart()

    def report_fields(self) -> Dict[str, Any]:
        """The :class:`SimulationReport` fields this component owns."""
        # the database-side refusal counters live with the sites; fold
        # them into the commit stats at report time
        self.stats.prepared_abort_refusals = sum(
            db.prepared_abort_refusals for db in self._sites.values()
        )
        by_site = [self.participants[site] for site in sorted(self.participants)]
        resolved = [window for p in by_site for window in p.in_doubt_times]
        # flush still-open windows: a run that ends with a blocked
        # participant must report the window it is measuring, not
        # silently under-report it
        now = self._loop.now
        open_windows = [window for p in by_site for window in p.open_in_doubt(now)]
        self.stats.in_doubt_open_at_end = len(open_windows)
        return dict(
            atomic_commit=True,
            commit_stats=self.stats,
            commit_latencies=tuple(self.commit_latencies),
            in_doubt_times=tuple(resolved + open_windows),
            commit_group=self.group.stats if self.group is not None else None,
            commit_group_size=self.group_size,
        )
