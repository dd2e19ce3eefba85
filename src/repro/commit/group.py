"""Replicated commit coordination: a quorum-logged decision service.

PR 2's presumed-abort 2PC inherits the protocol's classic weakness — a
coordinator crash between PREPARE and DECIDE leaves every YES-voting
participant in doubt until the coordinator restarts.  This module
removes that window by replicating the *decision log* across a
:class:`CoordinatorGroup` of ``2f+1`` :class:`CoordinatorReplica` ranks,
in the style of Paxos Commit / multi-shot commit:

- participants broadcast their YES **votes** to every replica; a vote is
  *quorum-logged* (durable) once a majority of replicas acknowledged it;
- the commit **decision** is one single-decree consensus instance per
  incarnation: the GTM proposes its verdict, any replica that can see a
  quorum of promises may run a recovery round, and a value is *chosen*
  once a quorum accepted it under one ballot;
- an in-doubt participant terminates through **any** reachable replica:
  the lowest-ranked reachable replica that is asked about an undecided
  transaction runs a takeover round that either adopts a previously
  accepted value or computes one from the quorum-visible votes — all
  expected sites quorum-logged YES ⇒ COMMIT, anything missing ⇒ the
  presumed-abort rule (ABORT).

Ballot numbering makes proposers collision-free: proposer class 0 is the
GTM, class ``r + 1`` is a takeover by replica ``r``, and attempt ``n``
of class ``c`` uses ballot ``n * (size + 1) + c``.  The GTM's very first
ballot is therefore 0, which skips the prepare phase (no competing
proposer can hold a promise below it) — the fast path costs exactly one
quorum round-trip between the decision and its durability.

Every quorum — vote durability, promises, accepts — is counted in one
place, :meth:`CoordinatorGroup._quorum_round`, by distinct replica rank.
Every message is one call of the injected ``send`` (the message plane's)
on the channel of the replica at the other end, and all timing flows
through the simulator's deterministic event loop, so group runs replay
byte-identically from a seed; runs without a group never construct one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, ClassVar, Dict, List, Optional, Sequence, Set, Tuple,
)

from repro.commit.model import CommitProtocolError
from repro.faults.model import RetryPolicy

#: A phase-1 promise: the replica's accepted ``(ballot, value)`` (if
#: any), its logged YES votes, and the site set those votes announced.
Promise = Tuple[Optional[Tuple[int, bool]], Set[str], Tuple[str, ...]]


@dataclass
class CommitGroupStats:
    """What the coordinator group actually did during one run."""

    metric_prefix: ClassVar[str] = "commit_group"

    #: YES votes participants started broadcasting to the group
    votes_broadcast: int = 0
    #: vote records newly written at individual replicas
    votes_logged: int = 0
    #: votes that reached quorum durability
    vote_quorums: int = 0
    #: vote broadcasts re-sent after an unacknowledged round
    vote_retries: int = 0
    #: consensus proposals started (GTM verdicts + takeover rounds)
    proposals: int = 0
    #: proposal rounds re-run after timeout or lost quorum
    proposal_retries: int = 0
    #: decisions that reached quorum durability (chosen values)
    decision_quorums: int = 0
    #: learn records re-sent to replicas that missed the decision
    learn_retransmits: int = 0
    #: takeover recovery rounds run by a surviving replica
    takeovers: int = 0
    #: recovery rounds that presumed abort for incomplete vote sets
    presumed_aborts: int = 0
    #: GTM COMMIT verdicts overruled by an already-chosen ABORT
    commits_overruled: int = 0
    #: GTM ABORT verdicts overruled by an already-chosen COMMIT
    aborts_overruled: int = 0
    #: in-doubt inquiries answered (or refused) by replicas
    replica_inquiries: int = 0
    #: coordinator-replica crashes injected
    replica_crashes: int = 0
    #: vote/decision partitions injected
    partitions: int = 0
    #: two different values chosen for one incarnation — consensus
    #: safety violated; must stay 0 (check_decision_uniqueness)
    decision_conflicts: int = 0
    #: wall-clock (simulated) quorum round-trips: decision/vote start →
    #: quorum durability
    quorum_rtts: List[float] = field(
        default_factory=list, metadata={"metric": "commit_group.quorum_rtt"}
    )


class CoordinatorReplica:
    """One rank of the coordinator group: a durable vote/decision log
    plus a single-decree acceptor.

    The maps model the replica's *stable storage* — a crash makes the
    replica unreachable for its downtime but loses nothing it already
    acknowledged (that is what the acknowledgement promised)."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        #: reachable unless crashed (partitions are tracked group-side)
        self.up = True
        #: highest ballot promised per incarnation (acceptor phase 1)
        self.promised: Dict[str, int] = {}
        #: highest (ballot, value) accepted per incarnation (phase 2)
        self.accepted: Dict[str, Tuple[int, bool]] = {}
        #: chosen values this replica has learned
        self.learned: Dict[str, bool] = {}
        #: quorum-logged YES votes: incarnation → sites heard from
        self.votes: Dict[str, Set[str]] = {}
        #: the full site set each vote broadcast announced
        self.expected: Dict[str, Tuple[str, ...]] = {}
        #: vote records written (drives vote-keyed replica crashes)
        self.votes_logged = 0

    # -- vote log -------------------------------------------------------
    def log_vote(
        self, incarnation: str, site: str, sites: Sequence[str]
    ) -> bool:
        """Record one site's YES vote; returns True when newly written."""
        if sites and incarnation not in self.expected:
            self.expected[incarnation] = tuple(sites)
        logged = self.votes.setdefault(incarnation, set())
        if site in logged:
            return False
        logged.add(site)
        self.votes_logged += 1
        return True

    # -- single-decree acceptor ----------------------------------------
    def on_prepare(
        self, incarnation: str, ballot: int
    ) -> Optional[Promise]:
        """Phase 1: promise not to accept below *ballot*.  The promise
        carries this replica's accepted value (if any) plus its vote log
        so a recovery round can compute the verdict."""
        if ballot < self.promised.get(incarnation, 0):
            return None
        self.promised[incarnation] = ballot
        return (
            self.accepted.get(incarnation),
            set(self.votes.get(incarnation, ())),
            self.expected.get(incarnation, ()),
        )

    def on_accept(self, incarnation: str, ballot: int, value: bool) -> bool:
        """Phase 2: accept unless a higher ballot was promised."""
        if ballot < self.promised.get(incarnation, 0):
            return False
        self.promised[incarnation] = ballot
        self.accepted[incarnation] = (ballot, value)
        return True

    def on_learn(self, incarnation: str, value: bool) -> None:
        self.learned.setdefault(incarnation, value)

    def __repr__(self) -> str:
        return (
            f"<CoordinatorReplica rank={self.rank} up={self.up} "
            f"votes={self.votes_logged} learned={len(self.learned)}>"
        )


class CoordinatorGroup:
    """``2f+1`` coordinator replicas with majority-quorum durability.

    ``send(action, channel)`` sends one message on a replica's
    :meth:`channel`: *action* runs once per delivered copy, possibly
    never.  Timers run on the shared event loop, so group traffic
    interleaves deterministically with the rest of the simulation.
    """

    def __init__(
        self,
        size: int,
        loop,
        send: Callable[[Callable[[], None], str], None],
        stats: Optional[CommitGroupStats] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if size < 1:
            raise CommitProtocolError(
                f"commit group size must be >= 1, got {size}"
            )
        self.size = size
        self.quorum = size // 2 + 1
        self.loop = loop
        self.send = send
        self.stats = stats or CommitGroupStats()
        self.retry = retry or RetryPolicy()
        self.replicas = [CoordinatorReplica(rank) for rank in range(size)]
        #: ground truth: values durably chosen by consensus.  Written
        #: only at quorum acceptance; ``check_decision_uniqueness``
        #: audits every replica's learned log against it.
        self.chosen: Dict[str, bool] = {}
        #: (incarnation, site) votes that reached quorum durability
        self._vote_durable: Set[Tuple[str, str]] = set()
        #: incarnations with a takeover round in flight
        self._recovering: Set[str] = set()
        #: per-replica partition horizon (vote/decision partitions)
        self._partitioned_until: Dict[int, float] = {}
        #: while set, the GTM itself is on the minority side and cannot
        #: drive proposals — the takeover path must terminate for it
        self._gtm_partitioned_until = 0.0
        #: group-wide count of quorum-durable votes (partition trigger)
        self._quorum_votes = 0
        #: hook(rank, votes_logged_at_rank) — fires when a replica writes
        #: a new vote record; drives ``FaultPlan.crash_coordinator_replica``
        self.on_vote_logged: Optional[Callable[[int, int], None]] = None
        #: hook(total_quorum_votes) — fires when a vote becomes quorum
        #: durable; drives ``FaultPlan.vote_decide_partitions``
        self.on_quorum_vote: Optional[Callable[[int], None]] = None

    # ------------------------------------------------------------------
    # reachability
    # ------------------------------------------------------------------
    @staticmethod
    def channel(rank: int) -> str:
        """Replica *rank*'s message channel (and resolver name)."""
        return f"replica-{rank}"

    def reachable(self, rank: int) -> bool:
        replica = self.replicas[rank]
        return replica.up and self.loop.now >= self._partitioned_until.get(
            rank, 0.0
        )

    def acting_leader(self) -> Optional[int]:
        """Lowest-ranked reachable replica (None if the group is dark)."""
        for replica in self.replicas:
            if self.reachable(replica.rank):
                return replica.rank
        return None

    # ------------------------------------------------------------------
    # the quorum rule
    # ------------------------------------------------------------------
    def _quorum_round(
        self,
        request: Callable[[CoordinatorReplica], Any],
        counting: Callable[[], bool],
        on_quorum: Callable[[List[Any]], None],
    ) -> None:
        """The group's only quorum count.  One request goes to every
        replica; a reachable replica handles it once however many copies
        arrive, and ``request(replica)`` returns its reply (None: no
        reply).  Replies count by *distinct replica rank* while
        ``counting()`` holds — the network may duplicate any leg, and
        two copies of one replica's reply must never pass for two
        replicas — and ``on_quorum(replies in arrival order)`` fires
        once, when a majority has replied."""
        handled: Set[int] = set()
        replies: Dict[int, Any] = {}
        for replica in self.replicas:

            def deliver(replica: CoordinatorReplica = replica) -> None:
                if not self.reachable(replica.rank) or replica.rank in handled:
                    return
                handled.add(replica.rank)
                reply = request(replica)
                if reply is None:
                    return

                def arrived(rank: int = replica.rank) -> None:
                    if rank in replies or not counting():
                        return
                    replies[rank] = reply
                    if len(replies) == self.quorum:
                        on_quorum(list(replies.values()))

                self.send(arrived, self.channel(replica.rank))

            self.send(deliver, self.channel(replica.rank))

    # ------------------------------------------------------------------
    # vote broadcast: participant YES votes → quorum durability
    # ------------------------------------------------------------------
    def broadcast_vote(
        self,
        incarnation: str,
        site: str,
        sites: Sequence[str],
        origin_up: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Fan one site's YES vote out to every replica, retrying with
        capped backoff until a quorum acknowledged it (or the decision
        was chosen anyway, or the voting site went down — its restart
        re-broadcasts from the durable prepared records).  Retries stop
        after ``retry.max_attempts``: an undurable vote is safe (a
        recovery round presumes abort for it), so votes need not chase
        durability forever the way commit decisions do."""
        key = (incarnation, site)
        if key in self._vote_durable:
            return
        self.stats.votes_broadcast += 1
        site_list = tuple(sites)

        def attempt(number: int) -> None:
            if key in self._vote_durable or incarnation in self.chosen:
                return
            if origin_up is not None and not origin_up():
                return
            started = self.loop.now

            def log(replica: CoordinatorReplica) -> bool:
                if replica.log_vote(incarnation, site, site_list):
                    self.stats.votes_logged += 1
                    if self.on_vote_logged is not None:
                        self.on_vote_logged(replica.rank, replica.votes_logged)
                return True  # logged now or before: acknowledge either way

            def durable(acks: List[bool]) -> None:
                self._vote_durable.add(key)
                self.stats.vote_quorums += 1
                self.stats.quorum_rtts.append(self.loop.now - started)
                self._quorum_votes += 1
                if self.on_quorum_vote is not None:
                    self.on_quorum_vote(self._quorum_votes)

            self._quorum_round(
                log, lambda: key not in self._vote_durable, durable
            )
            if number + 1 >= self.retry.max_attempts:
                return

            def recheck() -> None:
                if key in self._vote_durable or incarnation in self.chosen:
                    return
                self.stats.vote_retries += 1
                attempt(number + 1)

            self.loop.schedule(self.retry.timeout_for(number + 1), recheck)

        attempt(0)

    # ------------------------------------------------------------------
    # consensus: one single-decree instance per incarnation
    # ------------------------------------------------------------------
    def propose(
        self,
        incarnation: str,
        decision: Optional[bool],
        on_chosen: Optional[Callable[[bool], None]] = None,
        proposer_rank: Optional[int] = None,
    ) -> None:
        """Drive the incarnation's consensus instance to a chosen value.

        ``proposer_rank`` None is the GTM (proposer class 0) pushing its
        own verdict — it never gives up, because a commit that might
        already be applied somewhere must become durable.  A replica
        rank ``r`` (proposer class ``r + 1``) runs a takeover with
        ``decision=None``: the value is whatever the quorum's promises
        force — a previously accepted value, else COMMIT when every
        expected vote is quorum-visible, else presumed ABORT."""
        self.stats.proposals += 1
        proposer_class = 0 if proposer_rank is None else proposer_rank + 1
        ctx = {"notified": False}

        def notify(value: bool) -> None:
            if ctx["notified"]:
                return
            ctx["notified"] = True
            if proposer_rank is not None:
                self._recovering.discard(incarnation)
            if on_chosen is not None:
                on_chosen(value)

        def proposer_ok() -> bool:
            if proposer_rank is not None:
                return self.reachable(proposer_rank)
            return self.loop.now >= self._gtm_partitioned_until

        def attempt(number: int) -> None:
            if ctx["notified"]:
                return
            if incarnation in self.chosen:
                notify(self.chosen[incarnation])
                return
            if proposer_rank is not None and not self.reachable(
                proposer_rank
            ):
                # the recovering replica died or was partitioned away:
                # abandon so another replica (or the GTM) can drive it
                self._recovering.discard(incarnation)
                return
            if proposer_ok():
                ballot = number * (self.size + 1) + proposer_class
                self._round(
                    incarnation, ballot, decision, proposer_ok, notify
                )
            # arm the retry even when partitioned: the GTM re-enters the
            # race as soon as the partition heals
            base = self.retry.timeout_for(
                min(number + 1, self.retry.max_attempts)
            )
            stagger = (
                1.0 if proposer_rank is None else 1.0 + 0.25 * proposer_rank
            )

            def recheck() -> None:
                if ctx["notified"]:
                    return
                if incarnation in self.chosen:
                    notify(self.chosen[incarnation])
                    return
                self.stats.proposal_retries += 1
                attempt(number + 1)

            self.loop.schedule(base * stagger, recheck)

        attempt(0)

    def _round(
        self,
        incarnation: str,
        ballot: int,
        decision: Optional[bool],
        proposer_ok: Callable[[], bool],
        notify: Callable[[bool], None],
    ) -> None:
        started = self.loop.now
        if ballot == 0 and decision is not None:
            # the GTM's first ballot: no proposer can hold a promise
            # below 0, so phase 1 is skipped — decision to durability in
            # one quorum round-trip
            self._accept_round(
                incarnation, ballot, decision, started, proposer_ok, notify
            )
            return

        def quorum_promised(promises: List[Promise]) -> None:
            value = self._select_value(incarnation, decision, promises)
            self._accept_round(
                incarnation, ballot, value, started, proposer_ok, notify
            )

        self._quorum_round(
            lambda replica: replica.on_prepare(incarnation, ballot),
            proposer_ok,
            quorum_promised,
        )

    def _select_value(
        self,
        incarnation: str,
        decision: Optional[bool],
        promises: Sequence[Promise],
    ) -> bool:
        accepted = [entry[0] for entry in promises if entry[0] is not None]
        if accepted:
            # consensus safety: adopt the value of the highest ballot
            # any promiser already accepted
            return max(accepted)[1]
        if decision is not None:
            return decision
        # recovery round with a clean slate: compute the verdict from
        # the quorum-visible vote log
        votes: Set[str] = set()
        expected: Tuple[str, ...] = ()
        for _, logged, announced in promises:
            votes |= logged
            if announced and not expected:
                expected = announced
        if expected and votes >= set(expected):
            return True
        self.stats.presumed_aborts += 1
        return False

    def _accept_round(
        self,
        incarnation: str,
        ballot: int,
        value: bool,
        started: float,
        proposer_ok: Callable[[], bool],
        notify: Callable[[bool], None],
    ) -> None:
        def accepted(acks: List[bool]) -> None:
            self._choose(incarnation, value, started)
            # the authoritative outcome: _choose keeps an earlier chosen
            # value, so never hand on_durable this round's losing proposal
            notify(self.chosen[incarnation])

        self._quorum_round(
            lambda replica: replica.on_accept(incarnation, ballot, value) or None,
            proposer_ok,
            accepted,
        )

    def _choose(
        self, incarnation: str, value: bool, started: float
    ) -> None:
        if incarnation in self.chosen:
            if self.chosen[incarnation] != value:
                # must be unreachable (ballot ordering forbids it);
                # surfaced loudly by check_decision_uniqueness
                self.stats.decision_conflicts += 1
            return
        self.chosen[incarnation] = value
        self.stats.decision_quorums += 1
        self.stats.quorum_rtts.append(self.loop.now - started)
        for replica in self.replicas:

            def deliver(replica: CoordinatorReplica = replica) -> None:
                if self.reachable(replica.rank):
                    replica.on_learn(incarnation, value)

            self.send(deliver, self.channel(replica.rank))

    # ------------------------------------------------------------------
    # in-doubt termination through the group
    # ------------------------------------------------------------------
    def maybe_takeover(self, rank: int, incarnation: str) -> bool:
        """Start a recovery round at replica *rank* for an undecided
        incarnation — only if *rank* is the lowest reachable rank (the
        next-in-line leader) and no takeover is already in flight."""
        if incarnation in self.chosen or incarnation in self._recovering:
            return False
        if not self.reachable(rank):
            return False
        for lower in range(rank):
            if self.reachable(lower):
                return False
        self._recovering.add(incarnation)
        self.stats.takeovers += 1
        self.propose(incarnation, None, proposer_rank=rank)
        return True

    def inquire(self, rank: int, incarnation: str) -> Optional[bool]:
        """One replica's answer to an in-doubt participant: the learned
        decision, or None (unreachable / still undecided — in which
        case the replica may launch a takeover so a later inquiry can be
        answered)."""
        self.stats.replica_inquiries += 1
        if not self.reachable(rank):
            return None
        replica = self.replicas[rank]
        if incarnation in replica.learned:
            return replica.learned[incarnation]
        if incarnation in self.chosen:
            # chosen, but this replica missed the learn message:
            # retransmit so the participant's next round is answered
            value = self.chosen[incarnation]
            self.stats.learn_retransmits += 1

            def deliver() -> None:
                if self.reachable(rank):
                    replica.on_learn(incarnation, value)

            self.send(deliver, self.channel(rank))
            return None
        self.maybe_takeover(rank, incarnation)
        return None

    # ------------------------------------------------------------------
    # fault hooks
    # ------------------------------------------------------------------
    def crash_replica(self, rank: int) -> bool:
        """Crash one replica: unreachable until restarted; its durable
        maps (promises, accepted values, votes, learned decisions)
        survive — that is what its past acknowledgements promised."""
        replica = self.replicas[rank]
        if not replica.up:
            return False
        replica.up = False
        self.stats.replica_crashes += 1
        return True

    def restart_replica(self, rank: int) -> None:
        replica = self.replicas[rank]
        if replica.up:
            return
        replica.up = True

    def partition_leader(self, duration: float) -> Optional[int]:
        """The vote/decision partition: the acting leader *and* the GTM
        land on the minority side for *duration*, so termination must
        flow through the takeover path of the surviving majority."""
        rank = self.acting_leader()
        if rank is None:
            return None
        until = self.loop.now + duration
        self._partitioned_until[rank] = max(
            self._partitioned_until.get(rank, 0.0), until
        )
        self._gtm_partitioned_until = max(self._gtm_partitioned_until, until)
        self.stats.partitions += 1
        return rank

    def __repr__(self) -> str:
        return (
            f"<CoordinatorGroup size={self.size} quorum={self.quorum} "
            f"chosen={len(self.chosen)}>"
        )


class QuorumDecisionLog:
    """Decision-log backend replicating decisions through a
    :class:`CoordinatorGroup` (plugs into
    :class:`~repro.commit.coordinator.TwoPhaseCoordinator`)."""

    def __init__(self, group: CoordinatorGroup) -> None:
        self.group = group

    def log_commit(
        self, incarnation: str, on_durable: Callable[[bool], None]
    ) -> None:
        self.group.propose(incarnation, True, on_chosen=on_durable)

    def log_abort(
        self, incarnation: str, on_durable: Callable[[bool], None]
    ) -> None:
        self.group.propose(incarnation, False, on_chosen=on_durable)

    def commit_decisions(self) -> Tuple[str, ...]:
        return tuple(
            sorted(
                incarnation
                for incarnation, value in self.group.chosen.items()
                if value
            )
        )

    def outcome(self, incarnation: str) -> Optional[bool]:
        return self.group.chosen.get(incarnation)
