"""The MDBS discrete-event simulator.

Ties together local DBMSs, per-transaction-per-site servers with message
and service latencies, an event-driven GTM1, the GTM2 scheme under test,
and a stream of *local* transactions submitted directly to the sites —
the source of the indirect conflicts the GTM never sees (paper §1).

Timing model (all latencies configurable):

- a submitted operation reaches its site after ``message_delay``;
- once granted it occupies the site for ``service_time``;
- the acknowledgement returns after another ``message_delay``;
- GTM1 issues the next operation of a transaction only after the
  previous acknowledgement (paper §2.3);
- a watchdog aborts and restarts any global transaction that has made no
  progress for ``stall_timeout`` time units (cross-site blocking cycles
  are invisible to the local deadlock detectors).

Fault injection (paper §8's future-work direction): pass a
:class:`~repro.faults.injector.FaultInjector` and the simulator becomes
fault-tolerant — GTM2 crashes are recovered from the journal
(:mod:`repro.core.recovery`), site crashes abort in-flight
subtransactions and restart after a downtime, messages are lost,
duplicated, and delayed, submissions are retried with backoff through
:class:`~repro.mdbs.server.ResilientServer`, restarted incarnations skip
sites where the logical transaction already committed (exactly-once
commits without 2PC), orphaned subtransactions are reaped, and sites
that crash repeatedly are quarantined.  Without an injector none of
these paths are taken.

Collected metrics: throughput, per-transaction response times, global
aborts, local aborts, scheme step counts, WAIT statistics, and — under
fault injection — crash/retry/recovery counters.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import astuple, dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.commit import (
    CommitGroupStats,
    CommitParticipant,
    CommitPolicy,
    CommitStats,
    CoordinatorGroup,
    QuorumDecisionLog,
    TwoPhaseCoordinator,
)
from repro.core.engine import Engine
from repro.core.events import Ack, Fin, Init, Ser
from repro.core.gtm import (
    Access,
    GlobalProgram,
    PlannedOp,
    STRATEGY_BY_PROTOCOL,
    incarnation_id,
    logical_id,
    plan_program,
    site_components,
)
from repro.core.recovery import Journal, recover_engine
from repro.core.scheme import ConservativeScheme
from repro.exceptions import ProtocolViolation, SchedulerError
from repro.faults.injector import FaultInjector, site_up
from repro.faults.model import FaultStats, RetryPolicy, SiteCrash
from repro.lmdbs.database import LocalDBMS
from repro.mdbs.events import EventLoop, SimulationError
from repro.mdbs.server import Latencies, MessagePlane, Server
from repro.replication import (
    CatchupTracker,
    LogicalProgram,
    ReplicaMap,
    ReplicationStats,
)
from repro.schedules.global_schedule import (
    GlobalSchedule,
    SerOperation,
    SerSchedule,
)
from repro.schedules.model import (
    Operation,
    OpType,
    begin as begin_op,
    commit as commit_op,
    read as read_op,
    write as write_op,
)
from repro.workloads.generator import LocalProgram


@dataclass
class SimulationConfig:
    """Timing and policy knobs of one simulation run."""

    latencies: Latencies = field(default_factory=Latencies)
    #: no-progress window after which a global transaction is restarted
    stall_timeout: float = 200.0
    #: delay before a restarted incarnation re-enters the system
    restart_backoff: float = 5.0
    max_restarts: int = 25
    #: hard stop for the event loop
    horizon: float = 1_000_000.0
    #: ack-timeout/backoff policy of the resilient servers (fault mode)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: a site crashing this many times is quarantined: new incarnations
    #: touching it fail fast instead of stalling (graceful degradation)
    quarantine_after_crashes: int = 3
    #: how long after a global abort the orphan sweep waits before
    #: reaping the incarnation's leftovers at the sites (covers the
    #: in-flight abort messages); None = max(4 * message_delay, 10)
    orphan_grace: Optional[float] = None
    #: participant-side 2PC timing (in-doubt window, termination
    #: backoff); consulted only when ``atomic_commit`` is enabled
    commit: CommitPolicy = field(default_factory=CommitPolicy)

    def validate(self) -> None:
        if self.latencies.message_delay < 0:
            raise SimulationError("message_delay must be >= 0")
        if self.latencies.service_time < 0:
            raise SimulationError("service_time must be >= 0")
        if self.stall_timeout <= 0:
            raise SimulationError("stall_timeout must be > 0")
        if self.restart_backoff < 0:
            raise SimulationError("restart_backoff must be >= 0")
        if self.max_restarts < 0:
            raise SimulationError("max_restarts must be >= 0")
        if self.horizon <= 0:
            raise SimulationError("horizon must be > 0")
        if self.quarantine_after_crashes < 1:
            raise SimulationError("quarantine_after_crashes must be >= 1")
        if self.orphan_grace is not None and self.orphan_grace < 0:
            raise SimulationError("orphan_grace must be >= 0")
        self.retry.validate()
        self.commit.validate()

    @property
    def effective_orphan_grace(self) -> float:
        if self.orphan_grace is not None:
            return self.orphan_grace
        return max(4 * self.latencies.message_delay, 10.0)


@dataclass
class TransactionStats:
    submitted_at: float
    committed_at: Optional[float] = None
    restarts: int = 0

    @property
    def response_time(self) -> Optional[float]:
        if self.committed_at is None:
            return None
        return self.committed_at - self.submitted_at


@dataclass
class SimulationReport:
    """Aggregate outcome of one run."""

    duration: float
    committed_global: int
    failed_global: int
    global_aborts: int
    committed_local: int
    local_aborts: int
    response_times: Tuple[float, ...]
    scheme_steps: int
    scheme_waits: int
    #: global aborts triggered by the no-progress watchdog
    watchdog_aborts: int = 0
    #: fault-injection outcome (zeros / None without an injector)
    gtm_crashes: int = 0
    site_crashes: int = 0
    quarantined_sites: Tuple[str, ...] = ()
    fault_stats: Optional[FaultStats] = None
    #: atomic-commitment outcome (defaults without ``atomic_commit``)
    atomic_commit: bool = False
    commit_stats: Optional[CommitStats] = None
    #: decide-commit → all-sites-acked latencies, per committed global
    commit_latencies: Tuple[float, ...] = ()
    #: in-doubt window lengths across all participants (E11/E13):
    #: resolved windows first, then — flushed at simulation end — the
    #: partial lengths of windows still open when the run stopped
    in_doubt_times: Tuple[float, ...] = ()
    #: coordinator-group outcome (None / 0 without a commit group)
    commit_group: Optional[CommitGroupStats] = None
    commit_group_size: int = 0
    # -- scheduling-cost attribution (see docs/performance.md) ---------
    #: structural graph/index mutations: scheme-level (TSGD, ser_bef
    #: index) plus per-site incremental serialization graphs
    graph_ops: int = 0
    #: DFS / scan work the incremental structures did not re-execute,
    #: estimated against a restart-from-scratch search
    dfs_steps_avoided: int = 0
    #: waiting operations the targeted post-purge drain never re-examined
    wake_retries_skipped: int = 0
    #: events executed by the simulation loop
    events_executed: int = 0
    # -- degree of concurrency (§4): WAIT-set size integrated over
    # -- queue-operation ticks — mean WAIT-set size is area/samples ----
    wait_area: int = 0
    wait_samples: int = 0
    # -- replication (None / zeros without a replica map) --------------
    #: what the replication layer did (see repro.replication.model)
    replication: Optional[ReplicationStats] = None
    #: read-only logical transactions served from the committed
    #: multiversion snapshot (never entered the GTM wait machinery)
    snapshot_committed: int = 0
    snapshot_failed: int = 0
    #: snapshot-transaction response times
    snapshot_read_times: Tuple[float, ...] = ()
    #: closed per-site outage windows: (site, went_down, came_up)
    availability_windows: Tuple[Tuple[str, float, float], ...] = ()

    @property
    def throughput(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.committed_global / self.duration

    @property
    def mean_response_time(self) -> float:
        if not self.response_times:
            return 0.0
        return statistics.fmean(self.response_times)

    @property
    def mean_wait_set(self) -> float:
        """Mean WAIT-set size over queue-operation ticks (degree of
        concurrency, §4): lower means the scheme blocked less."""
        if self.wait_samples == 0:
            return 0.0
        return self.wait_area / self.wait_samples


@dataclass
class _GlobalRuntime:
    program: GlobalProgram
    incarnation: str
    plan: List[PlannedOp]
    cursor: int = 0
    acks_outstanding: Set[str] = field(default_factory=set)
    fin_enqueued: bool = False
    ticket_values: Dict[str, int] = field(default_factory=dict)
    last_progress: float = 0.0
    done: bool = False


class MDBSSimulator:
    """Event-driven MDBS with a pluggable GTM2 scheme."""

    def __init__(
        self,
        sites: Dict[str, LocalDBMS],
        scheme: ConservativeScheme,
        config: Optional[SimulationConfig] = None,
        seed: int = 0,
        injector: Optional[FaultInjector] = None,
        scheme_factory: Optional[Callable[[], ConservativeScheme]] = None,
        atomic_commit: bool = False,
        tracer=None,
        replica_map: Optional[ReplicaMap] = None,
        commit_group_size: int = 0,
    ) -> None:
        self.sites = dict(sites)
        self.scheme = scheme
        self.config = config or SimulationConfig()
        self.config.validate()
        self.loop = EventLoop()
        self.rng = random.Random(seed)
        #: optional :class:`repro.observability.Tracer`; spans are
        #: stamped with the event loop's simulated time and recording
        #: never influences scheduling or fault decisions
        self.tracer = tracer
        if tracer is not None:
            tracer.bind_clock(lambda: self.loop.now)
        #: fault injection: when present, submissions go through resilient
        #: servers, GTM2 keeps a journal, and the plan's crash schedule is
        #: executed
        self.injector = injector
        #: the message plane every GTM↔site exchange goes through — the
        #: seam :mod:`repro.transport` owns (each parallel shard gets its
        #: own plane over its own loop and injector)
        self.plane = MessagePlane(
            self.loop, self.config.latencies, injector, retry=self.config.retry
        )
        #: presumed-abort 2PC (repro.commit): per-site commits become
        #: PREPARE votes and the coordinator issues logged decisions;
        #: when False every 2PC path is skipped
        self.atomic_commit = atomic_commit
        self._scheme_factory = scheme_factory or (lambda: type(scheme)())
        self._journal = (
            Journal() if (injector is not None or atomic_commit) else None
        )
        self.engine = Engine(
            scheme,
            submit_handler=self._execute_ser,
            ack_handler=self._on_gtm1_ack,
            journal=self._journal,
            tracer=tracer,
        )
        self._runtimes: Dict[str, _GlobalRuntime] = {}
        #: durable incarnation → expected-site record: outlives the
        #: runtime entry so a restarted participant's vote re-broadcast
        #: still announces the full site set (a takeover quorum that
        #: never learns it would presume abort on a fully-voted txn)
        self._incarnation_sites: Dict[str, Tuple[str, ...]] = {}
        self._stats: Dict[str, TransactionStats] = {}
        self._restart_count: Dict[str, int] = {}
        self._programs: Dict[str, GlobalProgram] = {}
        #: site -> index of its component in ``site_components`` of the
        #: program table, for the watchdog; None after a write of the
        #: table (see :meth:`_site_partition`)
        self._partition: Optional[Dict[str, int]] = None
        self.ser_schedule = SerSchedule()
        self.committed_global: List[str] = []
        self.failed_global: List[str] = []
        self.global_aborts = 0
        self.committed_local = 0
        self.local_aborts = 0
        self._local_counter = 0
        self._watchdog_armed = False
        self.watchdog_aborts = 0
        #: sites removed from service after repeated crashes
        self.quarantined: Set[str] = set()
        #: logical txn -> sites where a COMMIT already acked (restarted
        #: incarnations skip these: exactly-once commits without 2PC)
        self._committed_sites: Dict[str, Set[str]] = {}
        #: incarnation -> abort time, for the orphan sweep
        self._aborted_at: Dict[str, float] = {}
        self._faults_scheduled = False
        #: wall-clock GTM2 recovery times (seconds), for benchmarks
        self.gtm_recovery_times: List[float] = []
        #: per-site monotone ticket counters (release order is
        #: authoritative under the one-outstanding-per-site rule)
        self._ticket_counters: Dict[str, int] = {}
        # --- atomic-commitment layer (repro.commit) ---
        self.commit_stats = CommitStats() if atomic_commit else None
        #: replicated decision log (repro.commit.group): size 0 keeps the
        #: single-coordinator journal backend; size >= 1 routes every
        #: decision through quorum consensus and in-doubt termination
        #: through the replicas
        self.commit_group_size = commit_group_size if atomic_commit else 0
        self.commit_group: Optional[CoordinatorGroup] = None
        self.commit_group_stats: Optional[CommitGroupStats] = None
        fate = (
            self.injector.message_fate
            if self.injector is not None
            else None
        )
        if atomic_commit and self.commit_group_size >= 1:
            self.commit_group_stats = CommitGroupStats()
            self.commit_group = CoordinatorGroup(
                self.commit_group_size,
                self.loop,
                message_delay=self.config.latencies.message_delay,
                fate=fate,
                stats=self.commit_group_stats,
                tracer=tracer,
                retry=self.config.retry,
            )
            # fault points: a replica crashes keyed to its vote-log
            # progress (the window between a YES vote landing and the
            # decision round); the acting leader and the GTM drop to the
            # minority side once *count* votes are quorum-durable, so
            # in-doubt participants must terminate through a takeover
            self.commit_group.on_vote_logged = (
                lambda rank, count: self._at_progress(
                    "crash_coordinator_replica",
                    (rank, count),
                    partial(self._crash_coordinator_replica, rank),
                )
            )
            self.commit_group.on_quorum_vote = (
                lambda count: self._at_progress(
                    "vote_decide_partitions",
                    (count,),
                    self.commit_group.partition_leader,
                )
            )
        self.coordinator = (
            self._build_coordinator(TwoPhaseCoordinator)
            if atomic_commit
            else None
        )
        self.participants: Dict[str, CommitParticipant] = {}
        if atomic_commit:
            replica_resolvers = None
            vote_broadcast = None
            if self.commit_group is not None:
                replica_resolvers = tuple(
                    (
                        f"replica-{rank}",
                        lambda inc, r=rank: self.commit_group.inquire(
                            r, inc
                        ),
                    )
                    for rank in range(self.commit_group_size)
                )
            for site, db in self.sites.items():
                if self.commit_group is not None:
                    vote_broadcast = (
                        lambda inc, s=site: self._broadcast_vote(inc, s)
                    )
                self.participants[site] = CommitParticipant(
                    site,
                    db,
                    self.loop,
                    policy=self.config.commit,
                    stats=self.commit_stats,
                    coordinator_resolver=self._resolve_inquiry,
                    message_delay=self.config.latencies.message_delay,
                    fate=fate,
                    # fault point: the site goes dark in the window
                    # between its YES vote and the decision
                    on_yes_vote=lambda site, count: self._at_progress(
                        "crash_after_prepare",
                        (site, count),
                        partial(self._crash_site_now, site),
                    ),
                    tracer=tracer,
                    site_up=(
                        lambda d=db: site_up(
                            d, self.injector, self.loop.now
                        )
                    ),
                    replica_resolvers=replica_resolvers,
                    vote_broadcast=vote_broadcast,
                )
            for participant in self.participants.values():
                participant.peers = self.participants
        #: decision phase in flight: incarnation -> sites not yet acked
        self._deciding: Dict[str, Set[str]] = {}
        #: decide-commit latencies of committed globals (E11)
        self.commit_latencies: List[float] = []
        #: (plan list, index) of progress-keyed fault scenarios already
        #: injected (see :meth:`_at_progress`)
        self._progress_faults_fired: Set[Tuple[str, int]] = set()
        # --- available-copies replication (repro.replication) ---
        #: item → copies; None = the paper's single-copy model, every
        #: replication path skipped
        self.replica_map = replica_map
        self.replication = (
            ReplicationStats() if replica_map is not None else None
        )
        self.catchup = (
            CatchupTracker(
                replica_map, lambda: self.loop.now, self.replication
            )
            if replica_map is not None
            else None
        )
        #: logical (site-free) programs, re-routed at every incarnation
        self._logical_programs: Dict[str, LogicalProgram] = {}
        #: per-item rotation counters for read-one routing (deterministic
        #: — the workload RNG is never consulted)
        self._route_rotation: Dict[str, int] = {}
        #: read-only snapshot transactions (kept out of _programs so
        #: exactly-once/atomicity checks see only read-write globals)
        self.snapshot_committed: List[str] = []
        self.snapshot_failed: List[str] = []
        self.snapshot_read_times: List[float] = []
        #: per-site counts of executed global writes of replicated items
        #: (drives FaultPlan.crash_after_writes)
        self._replicated_writes: Dict[str, int] = {}
        if replica_map is not None:
            for site, db in self.sites.items():
                db.clock = lambda: self.loop.now
                db.commit_listeners.append(
                    lambda txn, items, at, s=site: self.catchup.on_commit(
                        s, items
                    )
                )
        # learn about local aborts of our subtransactions even when they
        # had no operation in flight at the aborting site (e.g. wounded
        # as an active lock holder under wound-wait)
        for db in self.sites.values():
            db.abort_listeners.append(self._on_local_abort)

    def _on_local_abort(self, transaction_id: str, reason: str) -> None:
        runtime = self._runtimes.get(transaction_id)
        if runtime is not None and not runtime.done:
            self._abort_global(
                transaction_id, f"aborted locally: {reason}"
            )

    # ------------------------------------------------------------------
    # workload admission
    # ------------------------------------------------------------------
    def submit_global(self, program: GlobalProgram, at: float = 0.0) -> None:
        logical = program.transaction_id
        if logical in self._programs:
            raise ProtocolViolation(
                f"global transaction {logical!r} submitted twice"
            )
        self._programs[logical] = program
        self._partition = None
        self._restart_count[logical] = 0
        self._stats[logical] = TransactionStats(submitted_at=at)
        self.loop.schedule_at(at, lambda: self._start_incarnation(logical))

    def submit_local(self, program: LocalProgram, at: float = 0.0) -> None:
        self.loop.schedule_at(at, lambda: self._run_local(program, 0))

    def submit_logical(self, program: LogicalProgram, at: float = 0.0) -> None:
        """Admit a site-free global transaction (requires a replica map).

        Read-write programs are routed by the available-copies rule at
        every incarnation start (writes to all up copies, reads to one
        read-eligible copy) and then run through the normal GTM path.
        Read-only programs never touch the GTM: they execute against the
        committed multiversion snapshot as of their start time."""
        if self.replica_map is None:
            raise ProtocolViolation(
                "submit_logical requires a replica map; use submit_global"
            )
        logical = program.transaction_id
        if logical in self._programs or logical in self._logical_programs:
            raise ProtocolViolation(
                f"global transaction {logical!r} submitted twice"
            )
        self._logical_programs[logical] = program
        self._restart_count[logical] = 0
        self._stats[logical] = TransactionStats(submitted_at=at)
        if program.is_read_only:
            self.loop.schedule_at(at, lambda: self._run_snapshot(logical))
            return
        self.loop.schedule_at(at, lambda: self._start_incarnation(logical))

    # ------------------------------------------------------------------
    # replica routing (available-copies rule)
    # ------------------------------------------------------------------
    def _eligible_read_copies(self, item: str) -> List[str]:
        """Copies of *item* a read may be routed to right now: up, not
        quarantined, and past catch-up for this item."""
        return [
            site
            for site in self.replica_map.sites_of(item)
            if site not in self.quarantined
            and site_up(self.sites[site], self.injector, self.loop.now)
            and self.catchup.read_eligible(site, item)
        ]

    def _route(self, program: LogicalProgram) -> Optional[GlobalProgram]:
        """Map logical accesses to concrete per-site accesses, or None
        when some access has no routable copy right now (the caller
        backs off and retries — re-routing around the outage).

        Writes fan out to every up copy; a copy that is dark at routing
        time is simply skipped (its catch-up quarantine covers the
        missed write), but one that dies *after* routing makes the
        prepare fail and the 2PC vote abort the writer."""
        accesses: List[Access] = []
        for access in program.accesses:
            if access.kind == "w":
                targets = [
                    site
                    for site in self.replica_map.sites_of(access.item)
                    if site not in self.quarantined
                    and site_up(
                        self.sites[site], self.injector, self.loop.now
                    )
                ]
                if not targets:
                    self.replication.route_retries += 1
                    return None
                self.replication.writes_fanout += len(targets)
                for site in targets:
                    accesses.append(Access(site, "w", access.item))
                if self.tracer is not None:
                    self.tracer.event(
                        "replica_route",
                        txn=program.transaction_id,
                        kind="w",
                        item=access.item,
                        targets=sorted(targets),
                    )
            else:
                copy = self._pick_read_copy(
                    program.transaction_id, access.item
                )
                if copy is None:
                    return None
                accesses.append(Access(copy, "r", access.item))
        return GlobalProgram(program.transaction_id, tuple(accesses))

    def _pick_read_copy(self, logical: str, item: str) -> Optional[str]:
        """One read-eligible copy of *item*, rotating deterministically
        across calls so load spreads without touching any RNG."""
        eligible = self._eligible_read_copies(item)
        if not eligible:
            if any(
                not self.catchup.read_eligible(site, item)
                and site_up(self.sites[site], self.injector, self.loop.now)
                for site in self.replica_map.sites_of(item)
            ):
                # a copy is up but recovering: the available-copies rule
                # refuses the stale read rather than serve missed writes
                self.replication.stale_reads_refused += 1
                if self.tracer is not None:
                    self.tracer.event(
                        "replica_route",
                        txn=logical,
                        kind="r",
                        item=item,
                        cause={
                            "type": "replica-recovering",
                            "item": item,
                            "sites": sorted(
                                self.catchup.recovering_sites
                            ),
                        },
                    )
            self.replication.route_retries += 1
            return None
        turn = self._route_rotation.get(item, 0)
        self._route_rotation[item] = turn + 1
        copy = eligible[turn % len(eligible)]
        self.replication.reads_routed += 1
        if self.tracer is not None:
            self.tracer.event(
                "replica_route", txn=logical, kind="r", item=item, site=copy
            )
        return copy

    # ------------------------------------------------------------------
    # read-only snapshot transactions (never enter the GTM)
    # ------------------------------------------------------------------
    def _run_snapshot(self, logical: str, attempt: int = 0) -> None:
        """Execute a read-only logical program against the committed
        multiversion snapshot as of now: each read is served by one
        read-eligible copy via ``get_committed_version_at`` — no GTM
        admission, no ser-operations, no WAIT, no 2PC."""
        program = self._logical_programs[logical]
        snapshot_ts = self.loop.now
        per_read = (
            2 * self.config.latencies.message_delay
            + self.config.latencies.service_time
        )
        accesses = list(program.accesses)
        values: Dict[str, Any] = {}

        def retry() -> None:
            if attempt < self.config.max_restarts:
                self.loop.schedule(
                    self.config.restart_backoff,
                    lambda: self._run_snapshot(logical, attempt + 1),
                )
            else:
                self.snapshot_failed.append(logical)

        def step(index: int) -> None:
            if index >= len(accesses):
                self.snapshot_committed.append(logical)
                self._stats[logical].committed_at = self.loop.now
                self.snapshot_read_times.append(
                    self.loop.now - self._stats[logical].submitted_at
                )
                return
            item = accesses[index].item
            copy = self._pick_read_copy(logical, item)
            if copy is None:
                retry()
                return
            version = self.sites[copy].storage.get_committed_version_at(
                item, snapshot_ts
            )
            values[item] = version.value if version is not None else None
            self.replication.snapshot_reads += 1
            self.loop.schedule(per_read, lambda: step(index + 1))

        step(0)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self) -> SimulationReport:
        self._schedule_faults()
        self._arm_watchdog()
        self.loop.run(until=self.config.horizon)
        responses = tuple(
            stats.response_time
            for stats in self._stats.values()
            if stats.response_time is not None
        )
        stats = self.injector.stats if self.injector is not None else None
        in_doubt: Tuple[float, ...] = ()
        if self.commit_stats is not None:
            # the database-side refusal counters live with the sites;
            # fold them into the commit stats at report time
            self.commit_stats.prepared_abort_refusals = sum(
                db.prepared_abort_refusals for db in self.sites.values()
            )
            resolved = [
                window
                for site in sorted(self.participants)
                for window in self.participants[site].in_doubt_times
            ]
            # flush still-open windows: a run that ends with a blocked
            # participant must report the window it is measuring, not
            # silently under-report it
            open_windows = [
                window
                for site in sorted(self.participants)
                for window in self.participants[site].open_in_doubt(
                    self.loop.now
                )
            ]
            self.commit_stats.in_doubt_open_at_end = len(open_windows)
            in_doubt = tuple(resolved + open_windows)
        site_graph_ops = sum(
            getattr(db.protocol, "graph_ops", 0)
            for db in self.sites.values()
        )
        site_dfs_avoided = sum(
            getattr(db.protocol, "dfs_steps_avoided", 0)
            for db in self.sites.values()
        )
        return SimulationReport(
            duration=self.loop.now,
            committed_global=len(self.committed_global),
            failed_global=len(self.failed_global),
            global_aborts=self.global_aborts,
            committed_local=self.committed_local,
            local_aborts=self.local_aborts,
            response_times=responses,
            scheme_steps=self.scheme.metrics.steps,
            scheme_waits=self.scheme.metrics.total_waited,
            watchdog_aborts=self.watchdog_aborts,
            gtm_crashes=stats.gtm_crashes if stats else 0,
            site_crashes=stats.site_crashes if stats else 0,
            quarantined_sites=tuple(sorted(self.quarantined)),
            fault_stats=stats,
            atomic_commit=self.atomic_commit,
            commit_stats=self.commit_stats,
            commit_latencies=tuple(self.commit_latencies),
            in_doubt_times=in_doubt,
            commit_group=self.commit_group_stats,
            commit_group_size=self.commit_group_size,
            graph_ops=self.scheme.metrics.graph_ops + site_graph_ops,
            dfs_steps_avoided=(
                self.scheme.metrics.dfs_steps_avoided + site_dfs_avoided
            ),
            wake_retries_skipped=(
                self.scheme.metrics.wake_retries_skipped
            ),
            events_executed=self.loop.executed,
            wait_area=self.engine.wait_area,
            wait_samples=self.engine.wait_samples,
            replication=self.replication,
            snapshot_committed=len(self.snapshot_committed),
            snapshot_failed=len(self.snapshot_failed),
            snapshot_read_times=tuple(self.snapshot_read_times),
            availability_windows=(
                tuple(self.injector.availability_windows)
                if self.injector is not None
                else ()
            ),
        )

    def _watchdog_interval(self) -> float:
        """Recomputed at every re-arm so mid-run changes to
        ``stall_timeout`` take effect at the next tick."""
        return self.config.stall_timeout / 2

    def _site_partition(self) -> Dict[str, int]:
        """Each site's index among the site components of the workload,
        recomputed only after the program table was written.  A live
        runtime runs its table entry or, after commit-site resumption, a
        subset of that entry's sites, so the runtimes never link sites
        the table does not."""
        if self._partition is None:
            self._partition = {
                site: index
                for index, component in enumerate(
                    site_components(self.sites, self._programs.values())
                )
                for site in component
            }
        return self._partition

    def _arm_watchdog(self) -> None:
        if self._watchdog_armed:
            return
        self._watchdog_armed = True

        def tick() -> None:
            now = self.loop.now
            if self.injector is not None:
                self._reap_orphans(now)
            stalled = [
                runtime
                for runtime in self._runtimes.values()
                if not runtime.done
                and now - runtime.last_progress >= self.config.stall_timeout
            ]
            # one victim per *site component of the workload*: stalls in
            # disjoint components cannot be one deadlock, so a single
            # victim per tick would only stagger independent recoveries.
            # On a partitionable workload this matches the per-shard
            # watchdogs of the parallel transport — each shard is one
            # component.
            if stalled:
                component_of = self._site_partition()
                candidates: Dict[int, List[_GlobalRuntime]] = {}
                for runtime in stalled:
                    # a program's sites all lie in one component
                    if runtime.program.sites:
                        candidates.setdefault(
                            component_of[runtime.program.sites[0]], []
                        ).append(runtime)
                # components are numbered in partition order
                for component in sorted(candidates):
                    victim = min(
                        candidates[component],
                        key=lambda r: (r.last_progress, r.incarnation),
                    )
                    self.watchdog_aborts += 1
                    self._abort_global(
                        victim.incarnation, "watchdog: no progress"
                    )
            if self._runtimes or self.loop.pending:
                self.loop.schedule(self._watchdog_interval(), tick)
            else:
                # nothing left to watch; a later run() arms a new one
                self._watchdog_armed = False

        self.loop.schedule(self._watchdog_interval(), tick)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def _schedule_faults(self) -> None:
        """Schedule the plan's GTM and site crashes (once per run)."""
        if self.injector is None or self._faults_scheduled:
            return
        self._faults_scheduled = True
        for at in self.injector.plan.gtm_crashes:
            if at >= self.loop.now:
                self.loop.schedule_at(at, self._crash_gtm)
        for crash in self.injector.plan.site_crashes:
            if crash.at >= self.loop.now and crash.site in self.sites:
                self.loop.schedule_at(
                    crash.at, lambda c=crash: self._crash_site(c)
                )

    def _crash_gtm(self) -> None:
        """Crash GTM2 (the conservative scheduler) and recover it from
        the journal.  GTM1's bookkeeping — plans, cursors, outstanding
        acks — lives in the simulator and survives; only the scheme and
        its engine state are wiped and rebuilt (paper Figure 3's
        component, made recoverable)."""
        if self.injector is None or self._journal is None:
            return
        self.injector.stats.gtm_crashes += 1
        if self.tracer is not None:
            self.tracer.event("gtm.crash_recovery")
        started = time.perf_counter()
        fresh = self._scheme_factory()
        self.engine = recover_engine(
            fresh,
            self._journal,
            submit_handler=self._execute_ser,
            ack_handler=self._on_gtm1_ack,
            new_journal=self._journal,
            tracer=self.tracer,
        )
        # no wait-area carry-over: recover_engine's journal replay
        # re-accumulates the pre-crash WAIT history in the fresh engine
        self.scheme = fresh
        if self.coordinator is not None:
            # the coordinator's volatile state dies with GTM2; rebuild
            # the decided-commit set from the decision log — the local
            # journal's force-logged records, or (group mode) the
            # replicas' chosen ledger, which lives outside the GTM and
            # survives untouched — then re-open the voting rounds of
            # incarnations GTM1 still tracks (its bookkeeping survives)
            # so in-doubt inquiries made mid-vote are not prematurely
            # presumed abort
            self.coordinator = self._build_coordinator(
                TwoPhaseCoordinator.recover
            )
            for incarnation in self._runtimes:
                self.coordinator.begin_voting(incarnation)
        self.gtm_recovery_times.append(time.perf_counter() - started)
        # outstanding (logged-but-unprocessed) operations were re-queued
        # by recovery with side effects suppressed; process them live now
        self.engine.run()

    def _build_coordinator(self, build) -> TwoPhaseCoordinator:
        """The 2PC coordinator over this simulator's decision log — the
        local journal, or the commit group's quorum log; *build* is the
        constructor (fresh) or ``TwoPhaseCoordinator.recover``."""
        return build(
            self._journal,
            self.commit_stats,
            tracer=self.tracer,
            decision_log=(
                QuorumDecisionLog(self.commit_group)
                if self.commit_group is not None
                else None
            ),
        )

    def _crash_site_now(self, site: str, downtime: float) -> None:
        self._crash_site(
            SiteCrash(site=site, at=self.loop.now, downtime=downtime)
        )

    def _crash_coordinator_replica(self, rank: int, downtime: float) -> None:
        if self.commit_group.crash_replica(rank):
            self.loop.schedule(
                downtime,
                lambda: self.commit_group.restart_replica(rank),
            )

    def _at_progress(
        self,
        scenarios: str,
        reached: Tuple,
        inject: Callable[[float], None],
    ) -> None:
        """Fault points keyed to protocol progress instead of time.
        *scenarios* names a ``FaultPlan`` list whose entries are
        ``(progress key..., how long)`` records; each entry whose key
        equals *reached* is injected — ``inject(how_long)`` as its own
        event, right after the step that got there — exactly once."""
        if self.injector is None:
            return
        for index, scenario in enumerate(
            getattr(self.injector.plan, scenarios)
        ):
            if (scenarios, index) in self._progress_faults_fired:
                continue
            *key, how_long = astuple(scenario)
            if tuple(key) == reached:
                self._progress_faults_fired.add((scenarios, index))
                self.loop.schedule(0.0, partial(inject, how_long))

    def _crash_site(self, crash: SiteCrash) -> None:
        """Crash one site: every in-flight transaction there aborts (the
        abort listeners tell the GTM), the site refuses submissions for
        the downtime, then restarts empty."""
        if self.injector is None:
            return
        db = self.sites[crash.site]
        self.injector.stats.site_crashes += 1
        if self.tracer is not None:
            self.tracer.event("site.crash", site=crash.site)
        self.injector.mark_down(
            crash.site, self.loop.now + crash.downtime, since=self.loop.now
        )
        db.crash(f"site {crash.site!r} crashed")
        if self.catchup is not None:
            self.catchup.on_crash(crash.site)
        if self.atomic_commit:
            # volatile participant state and in-flight control
            # executions die with the site; prepared records survive
            self.participants[crash.site].on_crash()
            self.injector.channel(crash.site).on_crash()
        if db.crash_count >= self.config.quarantine_after_crashes:
            self._quarantine(crash.site)
        self.loop.schedule(
            crash.downtime, lambda: self._restart_site(crash.site)
        )

    def _restart_site(self, site: str) -> None:
        self.sites[site].restart()
        if self.injector is not None:
            self.injector.mark_up(site, at=self.loop.now)
        if self.catchup is not None:
            # catch-up mode: the site's replicated copies are stale
            # (reads refused) until a fresh committed write reaches them
            self.catchup.on_restart(site)
            if self.tracer is not None:
                self.tracer.event(
                    "site.catchup_enter",
                    site=site,
                    stale=sorted(self.catchup.stale_items(site)),
                )
        if self.atomic_commit:
            # recovery inquiry: prepared records found in the durable
            # log immediately run a termination round
            self.participants[site].on_restart()

    def _quarantine(self, site: str) -> None:
        """Take a repeatedly-crashing site out of service: abort the
        in-flight incarnations touching it and fail fast any restart or
        new admission that needs it (graceful degradation)."""
        if site in self.quarantined:
            return
        self.quarantined.add(site)
        for runtime in list(self._runtimes.values()):
            if not runtime.done and site in runtime.program.sites:
                self._abort_global(
                    runtime.incarnation, f"site {site!r} quarantined"
                )

    def _reap_orphans(self, now: float) -> None:
        """Abort site-side leftovers of incarnations the GTM already
        aborted — the backstop for lost abort messages (an orphan holding
        locks would otherwise stall the site until the watchdog killed
        its victims one by one)."""
        grace = self.config.effective_orphan_grace
        for db in self.sites.values():
            if not site_up(db, self.injector, now):
                continue
            leftovers = db.active_transactions | db.blocked_transactions
            for transaction_id in sorted(leftovers):
                aborted_at = self._aborted_at.get(transaction_id)
                if aborted_at is None or transaction_id in self._runtimes:
                    continue
                if now - aborted_at >= grace:
                    if self.atomic_commit:
                        # the GTM aborted this incarnation, so the
                        # coordinator's decision *is* abort (presumed);
                        # deliver it through the participant so even a
                        # prepared leftover is resolved force-aborted
                        self.participants[db.site].on_decide(
                            transaction_id, False, lambda ok: None
                        )
                    else:
                        db.abort_transaction(transaction_id, "orphan sweep")
                    self.injector.stats.orphans_reaped += 1

    # ------------------------------------------------------------------
    # GTM1 (event-driven)
    # ------------------------------------------------------------------
    def _strategy_for(self, site: str) -> str:
        protocol = self.sites[site].protocol.name
        return STRATEGY_BY_PROTOCOL[protocol]

    def _committed_sites_of(self, logical: str) -> Set[str]:
        """Sites where an earlier incarnation of *logical* committed.
        Besides the acks the GTM saw, a restart performs a *recovery
        inquiry* against each site's durable history — the authority on
        whether a commit executed whose ack was lost before the
        incarnation was aborted (the uncertainty window that would
        otherwise duplicate effects)."""
        committed = set(self._committed_sites.get(logical, set()))
        if self.injector is None and not self.atomic_commit:
            return committed
        incarnations = [
            incarnation_id(logical, attempt)
            for attempt in range(self._restart_count[logical] + 1)
        ]
        for site, db in self.sites.items():
            if site in committed:
                continue
            if any(
                db.history.outcome_of(incarnation) is OpType.COMMIT
                for incarnation in incarnations
            ):
                committed.add(site)
        return committed

    def _start_incarnation(self, logical: str) -> None:
        logical_program = self._logical_programs.get(logical)
        if logical_program is not None:
            # replicated admission: (re-)route the logical program by
            # the available-copies rule — a restart after a site crash
            # routes around the dead copy instead of stalling behind it
            routed = self._route(logical_program)
            if routed is None:
                # no routable copy right now: back off and retry the
                # admission (graceful degradation, not a stall)
                self._restart_or_fail(logical)
                return
            self._programs[logical] = routed
            self._partition = None
        program = self._programs[logical]
        committed_sites = self._committed_sites_of(logical)
        if committed_sites:
            # commit-site resumption: the logical transaction already
            # committed at these sites in an earlier incarnation, so the
            # restart must not re-apply its effects there
            remaining = tuple(
                access
                for access in program.accesses
                if access.site not in committed_sites
            )
            if not remaining:
                self.committed_global.append(logical)
                self._stats[logical].committed_at = self.loop.now
                return
            program = GlobalProgram(logical, remaining)
        if any(site in self.quarantined for site in program.sites):
            # graceful degradation: don't stall behind a dead site
            self.failed_global.append(logical)
            return
        count = self._restart_count[logical]
        incarnation = incarnation_id(logical, count)
        runtime = _GlobalRuntime(
            program=program,
            incarnation=incarnation,
            plan=plan_program(
                program,
                incarnation,
                self._strategy_for,
                atomic_commit=self.atomic_commit,
            ),
            acks_outstanding=set(program.sites),
            last_progress=self.loop.now,
        )
        self._runtimes[incarnation] = runtime
        self._incarnation_sites[incarnation] = program.sites
        self._stats[logical].restarts = count
        if self.coordinator is not None:
            self.coordinator.begin_voting(incarnation)
        self.engine.enqueue(Init(incarnation, sites=program.sites))
        self.engine.run()
        self._issue_next(runtime)

    def _issue_next(self, runtime: _GlobalRuntime) -> None:
        if runtime.done:
            return
        if runtime.cursor >= len(runtime.plan):
            self._maybe_complete(runtime)
            return
        planned = runtime.plan[runtime.cursor]
        if planned.is_ser_image:
            self.engine.enqueue(
                Ser(runtime.incarnation, site=planned.operation.site)
            )
            self.engine.run()
        else:
            self._submit_through_server(runtime, planned)

    def _submit_through_server(
        self, runtime: _GlobalRuntime, planned: PlannedOp
    ) -> None:
        if planned.is_prepare:
            self._send_prepare(runtime, planned)
            return
        incarnation = runtime.incarnation

        def completion(operation: Operation, value: Any, aborted: bool) -> None:
            self._on_completion(incarnation, operation, value, aborted)

        server = self._make_server(runtime, planned)
        server.submit(
            planned.operation,
            completion,
            read_set=planned.read_set,
            write_set=planned.write_set,
        )

    def _make_server(
        self, runtime: _GlobalRuntime, planned: PlannedOp
    ) -> Server:
        incarnation = runtime.incarnation
        db = self.sites[planned.operation.site]

        def still_wanted() -> bool:
            # the GTM cares about this submission only while the
            # incarnation is alive and still at this plan step
            return (
                not runtime.done
                and runtime.cursor < len(runtime.plan)
                and runtime.plan[runtime.cursor].operation
                is planned.operation
            )

        return self.plane.server(incarnation, db, still_wanted=still_wanted)

    def _send_prepare(
        self, runtime: _GlobalRuntime, planned: PlannedOp
    ) -> None:
        """Phase 1 of 2PC: the plan's final per-site COMMIT travels as a
        PREPARE request; the vote flows back through the normal
        completion path (NO = the subtransaction aborted there)."""
        incarnation = runtime.incarnation
        participant = self.participants[planned.operation.site]
        server = self._make_server(runtime, planned)

        def completion(vote: bool) -> None:
            self._on_completion(
                incarnation, planned.operation, None, not vote
            )

        server.prepare(participant, completion)

    def _execute_ser(self, ser: Ser) -> None:
        """GTM2 released a ser-operation: submit it through the server."""
        runtime = self._runtimes.get(ser.transaction_id)
        if runtime is None or runtime.done:
            return
        planned = runtime.plan[runtime.cursor]
        if not planned.is_ser_image or planned.operation.site != ser.site:
            raise SchedulerError(
                f"GTM2 released {ser!r} but cursor is at "
                f"{planned.operation!r}"
            )
        self.ser_schedule.append(SerOperation(ser.transaction_id, ser.site))
        self._submit_through_server(runtime, planned)

    def _on_completion(
        self,
        incarnation: str,
        operation: Operation,
        value: Any,
        aborted: bool,
    ) -> None:
        runtime = self._runtimes.get(incarnation)
        if runtime is None or runtime.done:
            return
        if aborted:
            self._abort_global(
                incarnation, f"subtransaction aborted at {operation.site!r}"
            )
            return
        planned = runtime.plan[runtime.cursor]
        if planned.operation is not operation:
            return  # stale completion from a purged incarnation
        runtime.last_progress = self.loop.now
        if (
            self.injector is not None
            and operation.op_type is OpType.COMMIT
            and not planned.is_prepare
        ):
            # remember where the logical transaction has committed so a
            # restarted incarnation never re-applies its effects there
            # (a prepare completion is only a YES vote, not a commit —
            # under 2PC the decide phase records the committed sites)
            self._committed_sites.setdefault(
                logical_id(incarnation), set()
            ).add(operation.site)
        if (
            self.replica_map is not None
            and operation.op_type is OpType.WRITE
            and self.replica_map.is_replicated(operation.item)
        ):
            # fault point: crash-between-replica-writes (the window
            # where a partial fan-out must abort, not commit)
            count = self._replicated_writes.get(operation.site, 0) + 1
            self._replicated_writes[operation.site] = count
            self._at_progress(
                "crash_after_writes",
                (operation.site, count),
                partial(self._crash_site_now, operation.site),
            )
        if planned.is_ticket_read:
            # the value written back is monotone per site; GTM2's
            # one-outstanding-per-site rule makes the release order
            # authoritative even when an uncommitted predecessor's
            # ticket write is not yet visible to this read
            counter = self._ticket_counters.get(operation.site, 0)
            runtime.ticket_values[operation.site] = max(
                (value or 0) + 1, counter + 1
            )
            self._ticket_counters[operation.site] = (
                runtime.ticket_values[operation.site]
            )
        if planned.is_ticket_write:
            self.sites[operation.site].write_value(
                incarnation,
                operation.item,
                runtime.ticket_values.get(operation.site, 1),
            )
        runtime.cursor += 1
        if planned.is_ticket_read:
            # the ticket pair is one ser unit: the write follows the
            # read back-to-back; the ack goes out when the write lands
            self._submit_through_server(
                runtime, runtime.plan[runtime.cursor]
            )
            return
        if planned.is_ser_image or planned.is_ticket_write:
            self.engine.enqueue(Ack(incarnation, site=operation.site))
            self.engine.run()
        self._issue_next(runtime)

    def _on_gtm1_ack(self, ack: Ack) -> None:
        runtime = self._runtimes.get(ack.transaction_id)
        if runtime is None or runtime.done:
            return
        runtime.acks_outstanding.discard(ack.site)
        if not runtime.acks_outstanding and not runtime.fin_enqueued:
            runtime.fin_enqueued = True
            self.engine.enqueue(Fin(ack.transaction_id))

    def _maybe_complete(self, runtime: _GlobalRuntime) -> None:
        if runtime.acks_outstanding:
            return
        runtime.done = True
        del self._runtimes[runtime.incarnation]
        if self.coordinator is not None:
            # every site voted YES: enter the decision phase; the
            # transaction counts as committed the moment the decision is
            # logged, but the stats close only when every site acked
            self._begin_decide_commit(runtime)
            return
        logical = logical_id(runtime.incarnation)
        self.committed_global.append(logical)
        self._stats[logical].committed_at = self.loop.now

    def _begin_decide_commit(self, runtime: _GlobalRuntime) -> None:
        """Phase 2 of 2PC (commit side): make the decision durable, then
        deliver it to every participant; the global transaction is
        reported committed when all sites acknowledged.  With the
        journal backend durability is synchronous; with a commit group
        it lands a quorum round-trip later — and may come back ABORT
        when a surviving replica terminated the transaction first (a
        recovery round presumed abort for votes it could not see), in
        which case the incarnation is overruled and restarted."""
        incarnation = runtime.incarnation
        started = self.loop.now

        def durable(chosen_commit: bool) -> None:
            if chosen_commit:
                self._deliver_commit_decides(runtime, started)
            else:
                self._decision_overruled(runtime)

        self.coordinator.decide_commit(incarnation, on_durable=durable)

    def _deliver_commit_decides(
        self, runtime: _GlobalRuntime, started: float
    ) -> None:
        incarnation = runtime.incarnation
        pending: Set[str] = set(runtime.program.sites)
        self._deciding[incarnation] = pending
        logical = logical_id(incarnation)
        for site in runtime.program.sites:

            def completion(ok: bool, site: str = site) -> None:
                if self._deciding.get(incarnation) is not pending:
                    return  # stale ack from a superseded decide round
                if ok:
                    self._committed_sites.setdefault(logical, set()).add(
                        site
                    )
                else:
                    # a participant could not apply a COMMIT decision —
                    # a soundness violation check_atomicity will surface
                    # from the ground-truth histories
                    self.commit_stats.decide_commit_nacks += 1
                pending.discard(site)
                if not pending:
                    del self._deciding[incarnation]
                    self.committed_global.append(logical)
                    self._stats[logical].committed_at = self.loop.now
                    self.commit_latencies.append(self.loop.now - started)

            self._send_decide(incarnation, site, True, completion)

    def _decision_overruled(self, runtime: _GlobalRuntime) -> None:
        """The GTM wanted COMMIT but the group had already durably
        chosen ABORT (a takeover presumed abort before every vote was
        quorum-visible).  The chosen value is the truth — deliver ABORT
        to the sites and restart the logical transaction.  The engine
        already processed this incarnation's Fin, so only the decision
        delivery and the restart tail remain."""
        incarnation = runtime.incarnation
        self.commit_group_stats.commits_overruled += 1
        self.global_aborts += 1
        self._aborted_at[incarnation] = self.loop.now
        if self.tracer is not None:
            self.tracer.event(
                "commit.group.overruled",
                txn=incarnation,
                verdict="COMMIT",
                chosen="ABORT",
            )
        for site in runtime.program.sites:
            self._send_abort_decision(incarnation, site)
        self._restart_or_fail(logical_id(incarnation))

    def _send_decide(
        self,
        incarnation: str,
        site: str,
        commit: bool,
        completion: Callable[[bool], None],
    ) -> None:
        participant = self.participants[site]
        db = self.sites[site]
        server = self.plane.server(incarnation, db)
        server.decide(participant, commit, completion)

    def _abort_global(self, incarnation: str, reason: str) -> None:
        runtime = self._runtimes.pop(incarnation, None)
        if runtime is None or runtime.done:
            return
        runtime.done = True
        if self.coordinator is None:
            self._finish_abort(runtime, reason)
            return

        # presumed abort: close the voting round and tell the
        # participants best-effort; a lost decision is covered by the
        # termination protocol (prepared sites) and the orphan sweep
        # (unprepared leftovers).  With the journal backend the abort
        # is durable synchronously; with a commit group the proposal may
        # instead discover that a takeover already durably chose COMMIT
        # from the quorum-logged votes — the chosen value wins, so the
        # GTM completes the commit rather than double-deciding.
        def durable(chosen_commit: bool) -> None:
            if chosen_commit:
                self.commit_group_stats.aborts_overruled += 1
                if self.tracer is not None:
                    self.tracer.event(
                        "commit.group.overruled",
                        txn=incarnation,
                        verdict="ABORT",
                        chosen="COMMIT",
                    )
                self._purge_gtm2(incarnation)
                self._deliver_commit_decides(runtime, self.loop.now)
            else:
                self._finish_abort(runtime, reason)

        self.coordinator.decide_abort(incarnation, on_durable=durable)

    def _finish_abort(self, runtime: _GlobalRuntime, reason: str) -> None:
        incarnation = runtime.incarnation
        self.global_aborts += 1
        self._aborted_at[incarnation] = self.loop.now
        if self.coordinator is not None:
            for site in runtime.program.sites:
                self._send_abort_decision(incarnation, site)
        else:
            for site in runtime.program.sites:
                # abort messages ride the same faulty network; a lost
                # one leaves an orphan for the sweep to reap
                self.plane.server(incarnation, self.sites[site]).abort(reason)
        self._purge_gtm2(incarnation)
        self._restart_or_fail(logical_id(incarnation))

    def _purge_gtm2(self, incarnation: str) -> None:
        """Remove an incarnation GTM1 gave up on from GTM2's queue, wait
        set and the scheme's data structures (the fault-handling hook
        the paper defers to future work), then let the operations it
        was blocking proceed.  Goes through the engine so the purge is
        journaled and the WAIT index stays consistent."""
        self.engine.purge_transaction(incarnation)
        remover = getattr(self.scheme, "remove_transaction", None)
        if remover is not None:
            remover(incarnation)
        self.engine.run()

    def _restart_or_fail(self, logical: str) -> None:
        """Spend one unit of *logical*'s restart budget: re-admit it as
        a fresh incarnation after the backoff, or report it failed once
        the budget is gone."""
        self._restart_count[logical] += 1
        if self._restart_count[logical] <= self.config.max_restarts:
            self.loop.schedule(
                self.config.restart_backoff,
                lambda: self._start_incarnation(logical),
            )
        else:
            self.failed_global.append(logical)

    # ------------------------------------------------------------------
    # atomic-commitment plumbing (repro.commit)
    # ------------------------------------------------------------------
    def _send_abort_decision(self, incarnation: str, site: str) -> None:
        """Fire-and-forget ABORT decision: presumed abort awaits no ack,
        so one faulty send suffices — the termination protocol and the
        orphan sweep mop up after a lost copy."""
        participant = self.participants[site]
        db = self.sites[site]
        fates = self.plane.message_fates(site)

        def deliver() -> None:
            if not site_up(db, self.injector, self.loop.now):
                return  # the crash wiped it; recovery inquiry covers us
            participant.on_decide(incarnation, False, lambda ok: None)

        for extra in fates:
            self.loop.schedule(
                self.config.latencies.message_delay + extra, deliver
            )

    def _resolve_inquiry(self, incarnation: str) -> Optional[bool]:
        """Coordinator half of an in-doubt participant's inquiry."""
        return self.coordinator.resolve(incarnation)

    def _broadcast_vote(self, incarnation: str, site: str) -> None:
        """Multi-shot commit: fan a participant's YES vote out to every
        coordinator replica so the vote is quorum-logged, not held by a
        single coordinator."""
        # the durable record, not the live runtime: a restarted
        # participant re-broadcasts after _maybe_complete removed the
        # runtime, and the replicas still need the full expected set
        sites = self._incarnation_sites.get(incarnation, ())
        self.commit_group.broadcast_vote(
            incarnation,
            site,
            sites,
            origin_up=lambda s=site: site_up(
                self.sites[s], self.injector, self.loop.now
            ),
        )

    # ------------------------------------------------------------------
    # local transactions (invisible to the GTM)
    # ------------------------------------------------------------------
    def _run_local(self, program: LocalProgram, attempt: int) -> None:
        db = self.sites[program.site]
        incarnation = incarnation_id(program.transaction_id, attempt)
        operations: List[Operation] = [begin_op(incarnation, program.site)]
        for kind, item in program.accesses:
            maker = read_op if kind == "r" else write_op
            operations.append(maker(incarnation, item, program.site))
        operations.append(commit_op(incarnation, program.site))
        server = Server(incarnation, db, self.loop, self.config.latencies)
        cursor = {"index": 0}

        def completion(operation: Operation, value: Any, aborted: bool) -> None:
            if aborted:
                self.local_aborts += 1
                if attempt < self.config.max_restarts:
                    self.loop.schedule(
                        self.config.restart_backoff,
                        lambda: self._run_local(program, attempt + 1),
                    )
                return
            cursor["index"] += 1
            if cursor["index"] >= len(operations):
                self.committed_local += 1
                return
            server.submit(
                operations[cursor["index"]],
                completion,
                read_set=program.read_set(),
                write_set=program.write_set(),
            )

        server.submit(
            operations[0],
            completion,
            read_set=program.read_set(),
            write_set=program.write_set(),
        )

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def incarnations(self) -> Dict[str, str]:
        """Every incarnation id any admitted global transaction may have
        run under so far, mapped to its logical id."""
        return {
            incarnation_id(logical, attempt): logical
            for logical, count in self._restart_count.items()
            for attempt in range(count + 1)
        }

    def global_schedule(self) -> GlobalSchedule:
        """The executed global schedule, from the local history logs."""
        return GlobalSchedule(
            {
                site: db.history.committed_schedule()
                for site, db in self.sites.items()
            },
            global_transaction_ids=set(self.incarnations()),
        )

    def verify_serializable(self) -> Tuple[str, ...]:
        """Assert global serializability from the ground-truth histories;
        returns a witness serial order."""
        return self.global_schedule().assert_globally_serializable()

    def _claimed_outcomes(self) -> Dict[str, Any]:
        """What the GTM claims happened, beside the ground truth it is
        checked against — the arguments of ``check_exactly_once``."""
        return dict(
            global_schedule=self.global_schedule(),
            reported_committed=self.committed_global,
            program_sites={
                logical: program.sites
                for logical, program in self._programs.items()
            },
            reported_failed=self.failed_global,
        )

    def exactly_once_report(self):
        """No-lost/no-duplicated global commits, from ground truth (see
        :func:`repro.mdbs.verification.check_exactly_once`)."""
        from repro.mdbs.verification import check_exactly_once

        return check_exactly_once(**self._claimed_outcomes())

    def replicas_report(self):
        """One-copy-serializability evidence over replicated items (see
        :func:`repro.mdbs.verification.check_replicas`); requires a
        replica map."""
        from repro.mdbs.verification import check_replicas

        if self.replica_map is None:
            raise ProtocolViolation(
                "replicas_report requires a replica map"
            )
        return check_replicas(
            {site: db.storage for site, db in self.sites.items()},
            self.replica_map,
        )

    def decision_uniqueness_report(self):
        """Commit-group safety evidence: every replica learned the same
        decision per incarnation, and no participant history contradicts
        the quorum-chosen value (see
        :func:`repro.mdbs.verification.check_decision_uniqueness`);
        requires a commit group."""
        from repro.mdbs.verification import check_decision_uniqueness

        if self.commit_group is None:
            raise ProtocolViolation(
                "decision_uniqueness_report requires a commit group "
                "(commit_group_size >= 1 with atomic_commit)"
            )
        return check_decision_uniqueness(
            self.commit_group,
            {site: db.history for site, db in self.sites.items()},
        )

    def atomicity_report(self):
        """Atomicity verdict from ground truth: with ``atomic_commit``
        enabled, partial commits are hard violations (see
        :func:`repro.mdbs.verification.check_atomicity`)."""
        from repro.mdbs.verification import check_atomicity

        return check_atomicity(
            **self._claimed_outcomes(), atomic_commit=self.atomic_commit
        )


class GTMSystem(MDBSSimulator):
    """GTM1 + GTM2 over concrete local DBMSs with no network: the
    simulator at zero message and service latency and without faults,
    so a run is decided by operation order alone.  Cross-site blocking
    cycles are still broken by the stall watchdog — in simulated time,
    which costs nothing here — and a transaction that can never finish
    is reported ``failed`` once its *max_restarts* fresh incarnations
    are spent."""

    def __init__(
        self,
        sites: Dict[str, LocalDBMS],
        scheme: ConservativeScheme,
        max_restarts: int = 10,
    ) -> None:
        super().__init__(
            sites,
            scheme,
            SimulationConfig(
                latencies=Latencies(0.0, 0.0), max_restarts=max_restarts
            ),
        )

    def submit_global(self, program: GlobalProgram) -> None:
        """Admit a global transaction now; :meth:`run` does the work."""
        super().submit_global(program, at=self.loop.now)

    @property
    def committed(self) -> List[str]:
        """Logical ids that committed (``committed_global``)."""
        return self.committed_global

    @property
    def failed(self) -> List[str]:
        """Logical ids that permanently failed (``failed_global``)."""
        return self.failed_global
