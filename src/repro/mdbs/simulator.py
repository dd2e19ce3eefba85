"""The MDBS discrete-event simulator: GTM1 and its composition.

:class:`MDBSSimulator` is the paper's GTM1 (§2.1, §2.3) over the GTM2
scheme under test: it inserts ``init``/``ser`` through
:class:`repro.core.gtm.GTM1` (which adds ``fin``), submits operations to
per-site servers with message and service latencies — a completion's
``ack`` enters QUEUE — and issues the next operation of a transaction
only after the previous acknowledgement.  A stream of
*local* transactions goes directly to the sites — the source of the
indirect conflicts the GTM never sees (paper §1).

Timing model (all latencies configurable):

- a submitted operation reaches its site after ``message_delay``;
- once granted it occupies the site for ``service_time``;
- the acknowledgement returns after another ``message_delay``.

Everything beyond the paper is a component beside GTM1, built by
``MDBSSimulator.__init__`` only for the configuration that uses it: the
stall :mod:`~repro.mdbs.watchdog` (always), the
:mod:`~repro.mdbs.fault_scheduler` (with an ``injector``), the 2PC
:mod:`~repro.mdbs.commit_driver` (with ``atomic_commit``) and the
replica :mod:`~repro.mdbs.router` (with a ``replica_map``).  With an
injector or ``atomic_commit`` GTM2 also keeps a journal
(:mod:`repro.core.recovery`).  In every configuration a restarted
incarnation skips the sites where its logical transaction already
committed (exactly-once commits): a global aborted after it committed
at one site — by a local abort elsewhere, or by the stall watchdog —
commits there once.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, ClassVar, Dict, List, Optional, Set, Tuple

from repro.commit import CommitGroupStats, CommitPolicy, CommitStats
from repro.core.engine import Engine
from repro.core.events import Ack, Init, Ser
from repro.core.gtm import (
    GTM1,
    GlobalProgram,
    PlannedOp,
    incarnation_id,
    logical_id,
    plan_program,
)
from repro.core.metrics import SchemeMetrics
from repro.core.recovery import Journal, recover_engine
from repro.core.scheme import ConservativeScheme
from repro.exceptions import ProtocolViolation, SchedulerError
from repro.faults.injector import FaultInjector, site_up
from repro.faults.model import FaultStats, RetryPolicy
from repro.lmdbs.database import LocalDBMS
from repro.mdbs.commit_driver import CommitDriver
from repro.mdbs.events import EventLoop, SimulationError
from repro.mdbs.fault_scheduler import FaultScheduler
from repro.mdbs.router import ReplicaRouter
from repro.mdbs.server import Latencies, MessagePlane, Server
from repro.mdbs.verification import (
    check_atomicity,
    check_decision_uniqueness,
    check_replicas,
)
from repro.mdbs.watchdog import Watchdog
from repro.replication import LogicalProgram, ReplicaMap, ReplicationStats
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
from repro.schedules.serialization_functions import SerializationFunction
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
        self.retry.validate()
        self.commit.validate()


@dataclass
class TransactionStats:
    submitted_at: float
    committed_at: Optional[float] = None
    #: fresh incarnations started after the first (the restart budget
    #: spent so far)
    restarts: int = 0

    @property
    def response_time(self) -> Optional[float]:
        if self.committed_at is None:
            return None
        return self.committed_at - self.submitted_at


@dataclass
class SimulationReport:
    """Aggregate outcome of one run.  The registry image of every field
    is derived from its declaration here (``sim.<field>`` unless the
    ``metric`` metadata says otherwise — see
    :func:`repro.observability.export.publish`)."""

    metric_prefix: ClassVar[str] = "sim"

    duration: float = field(metadata={"gauge": float})
    committed_global: int
    failed_global: int
    global_aborts: int
    committed_local: int
    local_aborts: int
    response_times: Tuple[float, ...] = field(
        metadata={"metric": "sim.response_time"}
    )
    #: the GTM2 scheme's own step and wait record; ``graph_ops`` and
    #: ``dfs_steps_avoided`` are published from the totals below, which
    #: add the sites' share
    scheme: SchemeMetrics = field(
        metadata={"skip": ("graph_ops", "dfs_steps_avoided")}
    )
    #: global aborts triggered by the no-progress watchdog
    watchdog_aborts: int = 0
    #: fault-injection outcome (empty / None without an injector)
    quarantined_sites: Tuple[str, ...] = field(
        default=(), metadata={"gauge": len}
    )
    fault_stats: Optional[FaultStats] = None
    #: atomic-commitment outcome (defaults without ``atomic_commit``)
    atomic_commit: bool = field(default=False, metadata={"metric": None})
    commit_stats: Optional[CommitStats] = None
    #: decide-commit → all-sites-acked latencies, per committed global
    commit_latencies: Tuple[float, ...] = field(
        default=(), metadata={"metric": "commit.latency_ms"}
    )
    #: in-doubt window lengths across all participants (E11/E13):
    #: resolved windows first, then — flushed at simulation end — the
    #: partial lengths of windows still open when the run stopped; the
    #: worst one is also a gauge (gauge merge keeps the max), so CI can
    #: compare group sizes head-to-head from parsed text
    in_doubt_times: Tuple[float, ...] = field(
        default=(),
        metadata={"metric": "commit.indoubt_ms", "peak": "commit.indoubt_max"},
    )
    #: coordinator-group outcome (None / 0 without a commit group)
    commit_group: Optional[CommitGroupStats] = None
    commit_group_size: int = field(
        default=0, metadata={"metric": "commit_group.size", "gauge": int}
    )
    # -- scheduling-cost attribution (see docs/performance.md) ---------
    #: structural graph/index mutations: scheme-level (TSGD, ser_bef
    #: index) plus per-site incremental serialization graphs
    graph_ops: int = field(default=0, metadata={"metric": "gtm.graph_ops"})
    #: DFS / scan work the incremental structures did not re-execute,
    #: estimated against a restart-from-scratch search
    dfs_steps_avoided: int = field(
        default=0, metadata={"metric": "gtm.dfs_steps_avoided"}
    )
    #: events executed by the simulation loop
    events_executed: int = 0
    # -- degree of concurrency (§4): WAIT-set size integrated over
    # -- queue-operation ticks — mean WAIT-set size is area/samples ----
    wait_area: int = field(default=0, metadata={"metric": "gtm.wait_area"})
    wait_samples: int = field(
        default=0, metadata={"metric": "gtm.wait_samples"}
    )
    # -- replication (None / zeros without a replica map) --------------
    #: what the replication layer did (see repro.replication.model)
    replication: Optional[ReplicationStats] = None
    #: read-only logical transactions served from the committed
    #: multiversion snapshot (never entered the GTM wait machinery)
    snapshot_committed: int = field(
        default=0, metadata={"metric": "replication.snapshot_committed"}
    )
    snapshot_failed: int = field(
        default=0, metadata={"metric": "replication.snapshot_failed"}
    )
    #: snapshot-transaction response times
    snapshot_read_times: Tuple[float, ...] = field(
        default=(), metadata={"metric": "replication.snapshot_time"}
    )
    #: closed per-site outage windows: (site, went_down, came_up)
    availability_windows: Tuple[Tuple[str, float, float], ...] = field(
        default=(), metadata={"metric": None}
    )

    @property
    def scheme_steps(self) -> int:
        return self.scheme.steps

    @property
    def scheme_waits(self) -> int:
        return self.scheme.total_waited

    @property
    def wake_retries_skipped(self) -> int:
        """Waiting operations the targeted post-purge drain never
        re-examined."""
        return self.scheme.wake_retries_skipped

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
    ticket_values: Dict[str, int] = field(default_factory=dict)
    last_progress: float = 0.0
    done: bool = False


class MDBSSimulator:
    """Event-driven GTM1 with a pluggable GTM2 scheme, plus the
    components its configuration calls for (see the module docstring)."""

    #: the components beside GTM1, set by ``__init__`` when the
    #: configuration uses them; None = every path through it is skipped
    faults: Optional[FaultScheduler] = None
    commit: Optional[CommitDriver] = None
    router: Optional[ReplicaRouter] = None

    def __init__(
        self,
        sites: Dict[str, LocalDBMS],
        scheme: ConservativeScheme,
        config: Optional[SimulationConfig] = None,
        injector: Optional[FaultInjector] = None,
        atomic_commit: bool = False,
        replica_map: Optional[ReplicaMap] = None,
        commit_group_size: int = 0,
    ) -> None:
        if scheme.aborts_at_fin:
            raise SchedulerError(
                f"scheme {scheme.name!r} is refused: it can abort a "
                "transaction at fin, after its subtransactions committed"
            )
        self.sites = dict(sites)
        self.scheme = scheme
        self.config = config or SimulationConfig()
        self.config.validate()
        self.loop = EventLoop()
        self.injector = injector
        #: the message plane every GTM↔site exchange goes through — the
        #: seam :mod:`repro.transport` owns (each parallel shard gets its
        #: own plane over its own loop and injector); with an injector
        #: its links are resilient servers
        self.plane = MessagePlane(
            self.loop, self.config.latencies, injector, retry=self.config.retry
        )
        #: GTM1's side of QUEUE; its servers are this simulator's
        #: message plane, and a GTM2 abort, which GTM2 already forgot,
        #: aborts the incarnation globally at once
        self.gtm1 = GTM1(
            self._execute_ser,
            on_abort=partial(self._abort_global, reason="aborted by GTM2", purge=False),
        )
        self.gtm1.engine = Engine(
            scheme,
            # GTM2 is recoverable, and 2PC decisions are force-logged
            journal=Journal() if injector is not None or atomic_commit else None,
            **self.gtm1.handlers,
        )
        #: the incarnation table: live incarnation -> its runtime
        self._runtimes: Dict[str, _GlobalRuntime] = {}
        self._stats: Dict[str, TransactionStats] = {}
        self._programs: Dict[str, GlobalProgram] = {}
        self.ser_schedule = SerSchedule()
        self.committed_global: List[str] = []
        self.failed_global: List[str] = []
        self.global_aborts = 0
        self.committed_local = 0
        self.local_aborts = 0
        #: per-site monotone ticket counters (release order is
        #: authoritative under the one-outstanding-per-site rule)
        self._ticket_counters: Dict[str, int] = {}
        if injector is not None:
            self.faults = FaultScheduler(
                self.loop, self.sites, injector, self.config, self._runtimes,
                is_up=self.is_up, abort_global=self._abort_global,
                abort_orphan=self._abort_orphan, recover_gtm2=self._recover_gtm2,
            )
        if atomic_commit:
            self.commit = CommitDriver(
                self.plane, self.sites, self.config.commit,
                self.gtm1.engine.journal, commit_group_size, self.faults,
                is_up=self.is_up, purge_gtm2=self.gtm1.purge,
                record_commit=self._record_commit,
            )
        if replica_map is not None:
            self.router = ReplicaRouter(
                self.loop, self.sites, self.config, replica_map, self.faults,
                is_up=self.is_up,
            )
        if self.faults is not None:
            # "site crashed / site restarted": catch-up state first,
            # then the participant's recovery inquiry
            self.faults.site_listeners.extend(
                c for c in (self.router, self.commit) if c is not None
            )
        self.watchdog = Watchdog(
            self.loop, self.sites, self.config.stall_timeout,
            self._programs, self._runtimes, self._abort_global,
            sweep=self.faults.reap_orphans if self.faults is not None else None,
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

    def is_up(self, site: str) -> bool:
        """Whether *site* can answer right now."""
        return site_up(self.sites[site], self.injector, self.loop.now)

    # ------------------------------------------------------------------
    # workload admission
    # ------------------------------------------------------------------
    def _admit(self, logical: str, at: float) -> None:
        if logical in self._stats:
            raise ProtocolViolation(
                f"global transaction {logical!r} submitted twice"
            )
        self._stats[logical] = TransactionStats(submitted_at=at)

    def admitted(self) -> Set[str]:
        """Every logical id ever submitted, global or logical."""
        return set(self._stats)

    def transaction_stats(self, logical: str) -> TransactionStats:
        """Submission/commit times and restart count of *logical*."""
        return self._stats[logical]

    def submit_global(self, program: GlobalProgram, at: float = 0.0) -> None:
        logical = program.transaction_id
        self._admit(logical, at)
        self._programs[logical] = program
        self.watchdog.programs_changed()
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
        if self.router is None:
            raise ProtocolViolation(
                "submit_logical requires a replica map; use submit_global"
            )
        logical = program.transaction_id
        self._admit(logical, at)
        self.router.programs[logical] = program
        if program.is_read_only:
            stats = self._stats[logical]
            self.loop.schedule_at(
                at, lambda: self.router.run_snapshot(logical, stats)
            )
            return
        self.loop.schedule_at(at, lambda: self._start_incarnation(logical))

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self) -> SimulationReport:
        if self.faults is not None:
            self.faults.schedule()
        self.watchdog.arm()
        self.loop.run(until=self.config.horizon)
        responses = tuple(
            stats.response_time
            for stats in self._stats.values()
            if stats.response_time is not None
        )
        site_graph_ops = sum(db.protocol.graph_ops for db in self.sites.values())
        site_dfs_avoided = sum(
            db.protocol.dfs_steps_avoided for db in self.sites.values()
        )
        # each component fills in the fields it owns; the report's
        # defaults stand for the components this run did not build
        owned: Dict[str, Any] = {}
        for component in (self.faults, self.commit, self.router):
            if component is not None:
                owned.update(component.report_fields())
        return SimulationReport(
            duration=self.loop.now,
            committed_global=len(self.committed_global),
            failed_global=len(self.failed_global),
            global_aborts=self.global_aborts,
            committed_local=self.committed_local,
            local_aborts=self.local_aborts,
            response_times=responses,
            scheme=self.scheme.metrics,
            watchdog_aborts=self.watchdog.aborts,
            graph_ops=self.scheme.metrics.graph_ops + site_graph_ops,
            dfs_steps_avoided=(
                self.scheme.metrics.dfs_steps_avoided + site_dfs_avoided
            ),
            events_executed=self.loop.executed,
            wait_area=self.gtm1.engine.wait_area,
            wait_samples=self.gtm1.engine.wait_samples,
            **owned,
        )

    def _recover_gtm2(self) -> float:
        """GTM2 (the conservative scheduler) crashed: recover it from
        the journal and return the wall-clock seconds the rebuild took.
        GTM1's bookkeeping — plans, cursors, awaited acks — lives
        here and in :attr:`gtm1` and survives; only the scheme and its
        engine state are wiped and rebuilt (paper Figure 3's component,
        made recoverable)."""
        started = time.perf_counter()
        fresh = type(self.scheme)()
        gtm1 = self.gtm1
        gtm1.engine = recover_engine(fresh, gtm1.engine.journal, **gtm1.handlers)
        # no wait-area carry-over: recover_engine's journal replay
        # re-accumulates the pre-crash WAIT history in the fresh engine
        self.scheme = fresh
        if self.commit is not None:
            self.commit.gtm2_recovered(self._runtimes)
        elapsed = time.perf_counter() - started
        # outstanding (logged-but-unprocessed) operations were re-queued
        # by recovery with side effects suppressed; process them live now
        gtm1.engine.run()
        return elapsed

    # ------------------------------------------------------------------
    # GTM1 (event-driven)
    # ------------------------------------------------------------------
    def _strategy_for(self, site: str) -> SerializationFunction:
        return self.sites[site].protocol.serialization_function

    def _committed_sites_of(self, logical: str) -> Set[str]:
        """Sites where an earlier incarnation of *logical* committed: every
        restart performs a *recovery inquiry* against each site's
        durable history — the authority on whether a commit executed.
        Without faults or 2PC an incarnation is aborted after committing
        at one site when another site aborts it or the watchdog finds it
        stalled; with them, also when the commit's ack was lost (the
        uncertainty window).  Either way a restart that re-ran the
        committed sites would apply the effects twice."""
        incarnations = [
            incarnation_id(logical, attempt)
            for attempt in range(self._stats[logical].restarts + 1)
        ]
        return {
            site
            for site, db in self.sites.items()
            if any(
                db.history.outcome_of(incarnation) is OpType.COMMIT
                for incarnation in incarnations
            )
        }

    def _record_commit(self, logical: str) -> None:
        self.committed_global.append(logical)
        self._stats[logical].committed_at = self.loop.now

    def _start_incarnation(self, logical: str) -> None:
        if self.router is not None and logical in self.router.programs:
            # replicated admission: (re-)route the logical program by
            # the available-copies rule — a restart after a site crash
            # routes around the dead copy instead of stalling behind it
            routed = self.router.route(logical)
            if routed is None:
                # no routable copy right now: back off and retry the
                # admission (graceful degradation, not a stall)
                self._restart_or_fail(logical)
                return
            self._programs[logical] = routed
            self.watchdog.programs_changed()
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
                self._record_commit(logical)
                return
            program = GlobalProgram(logical, remaining)
        if self.faults is not None and not self.faults.quarantined.isdisjoint(
            program.sites
        ):
            # graceful degradation: don't stall behind a dead site
            self.failed_global.append(logical)
            return
        count = self._stats[logical].restarts
        incarnation = incarnation_id(logical, count)
        runtime = _GlobalRuntime(
            program=program,
            incarnation=incarnation,
            plan=plan_program(
                program,
                incarnation,
                self._strategy_for,
                atomic_commit=self.commit is not None,
            ),
            last_progress=self.loop.now,
        )
        self._runtimes[incarnation] = runtime
        if self.commit is not None:
            self.commit.begin_voting(incarnation, program.sites)
        self.gtm1.insert(Init(incarnation, sites=program.sites))
        self._issue_next(runtime)

    def _issue_next(self, runtime: _GlobalRuntime) -> None:
        if runtime.done:
            return
        if runtime.cursor >= len(runtime.plan):
            self._maybe_complete(runtime)
            return
        planned = runtime.plan[runtime.cursor]
        if planned.is_ser_image:
            self.gtm1.insert(Ser(runtime.incarnation, site=planned.operation.site))
        else:
            self._submit_through_server(runtime, planned)

    def _submit_through_server(
        self, runtime: _GlobalRuntime, planned: PlannedOp
    ) -> None:
        incarnation = runtime.incarnation
        operation = planned.operation

        def still_wanted() -> bool:
            # the GTM cares about this submission only while the
            # incarnation is alive and still at this plan step
            return (
                not runtime.done
                and runtime.cursor < len(runtime.plan)
                and runtime.plan[runtime.cursor].operation is operation
            )

        server = self.plane.server(
            incarnation, self.sites[operation.site], still_wanted=still_wanted
        )
        if planned.is_prepare:
            # Phase 1 of 2PC: the plan's final per-site COMMIT travels as
            # a PREPARE request; the vote flows back through the normal
            # completion path (NO = the subtransaction aborted there)
            server.prepare(
                self.commit.participants[operation.site],
                lambda vote: self._on_completion(
                    incarnation, operation, None, not vote
                ),
            )
            return
        server.submit(
            operation,
            partial(self._on_completion, incarnation),
            read_set=planned.read_set,
            write_set=planned.write_set,
        )

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
        if self.router is not None and operation.op_type is OpType.WRITE:
            self.router.wrote(operation.site, operation.item)
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
            self.gtm1.engine.enqueue(Ack(incarnation, site=operation.site))
            self.gtm1.engine.run()
        self._issue_next(runtime)

    def _maybe_complete(self, runtime: _GlobalRuntime) -> None:
        if self.gtm1.awaits(runtime.incarnation):
            return
        runtime.done = True
        self.gtm1.forget(runtime.incarnation)
        del self._runtimes[runtime.incarnation]
        if self.commit is None:
            self._record_commit(logical_id(runtime.incarnation))
            return
        # every site voted YES: the scheduler is finished with this
        # incarnation and the commit service decides it; it is recorded
        # committed when every site acked the decision — or aborted
        # after all when the coordinator group overrules the commit
        self.commit.decide_commit(
            runtime.incarnation,
            runtime.program.sites,
            overruled=partial(
                self._finish_abort, runtime, "commit overruled", purge=False
            ),
        )

    def _abort_global(self, incarnation: str, reason: str, purge: bool = True) -> None:
        runtime = self._runtimes.pop(incarnation, None)
        if runtime is None or runtime.done:
            return
        runtime.done = True
        self.gtm1.forget(runtime.incarnation)
        finish = partial(self._finish_abort, runtime, reason, purge=purge)
        if self.commit is None:
            finish()
            return
        self.commit.decide_abort(
            incarnation, runtime.program.sites, aborted=finish
        )

    def _finish_abort(
        self, runtime: _GlobalRuntime, reason: str, purge: bool = True
    ) -> None:
        """Count the abort, tell the sites, and spend a restart.  GTM2
        is purged unless it is already done with the incarnation
        (``purge=False``: GTM2 aborted it itself, or it processed the
        Fin of a commit the coordinator group overruled)."""
        incarnation = runtime.incarnation
        self.global_aborts += 1
        if self.faults is not None:
            self.faults.note_abort(incarnation)
        if self.commit is not None:
            self.commit.send_abort_decisions(incarnation, runtime.program.sites)
        else:
            for site in runtime.program.sites:
                # abort messages ride the same faulty network; a lost
                # one leaves an orphan for the sweep to reap
                self.plane.server(incarnation, self.sites[site]).abort(reason)
        if purge:
            self.gtm1.purge(incarnation)
        self._restart_or_fail(logical_id(incarnation))

    def _abort_orphan(self, site: str, incarnation: str) -> None:
        """Abort a site-side leftover of an incarnation GTM1 already
        aborted (the fault scheduler's orphan sweep found it)."""
        if self.commit is not None:
            # the GTM aborted this incarnation, so the coordinator's
            # decision *is* abort (presumed)
            self.commit.abort_at(site, incarnation)
        else:
            self.sites[site].abort_transaction(incarnation, "orphan sweep")

    def _restart_or_fail(self, logical: str) -> None:
        """Spend one unit of *logical*'s restart budget: re-admit it as
        a fresh incarnation after the backoff, or report it failed once
        the budget is gone."""
        stats = self._stats[logical]
        stats.restarts += 1
        if stats.restarts <= self.config.max_restarts:
            self.loop.schedule(
                self.config.restart_backoff,
                lambda: self._start_incarnation(logical),
            )
        else:
            self.failed_global.append(logical)

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
        # a local client's link is reliable: it never draws a fate
        plane = MessagePlane(self.loop, self.config.latencies)
        server = Server(incarnation, db, plane)
        remaining = iter(operations)

        def advance(operation: Any = None, value: Any = None, aborted=False) -> None:
            if aborted:
                self.local_aborts += 1
                if attempt < self.config.max_restarts:
                    self.loop.schedule(
                        self.config.restart_backoff,
                        lambda: self._run_local(program, attempt + 1),
                    )
                return
            following = next(remaining, None)
            if following is None:
                self.committed_local += 1
                return
            server.submit(
                following,
                advance,
                read_set=program.read_set(),
                write_set=program.write_set(),
            )

        advance()

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def incarnations(self) -> Dict[str, str]:
        """Every incarnation id any admitted global transaction may have
        run under so far, mapped to its logical id."""
        return {
            incarnation_id(logical, attempt): logical
            for logical, stats in self._stats.items()
            for attempt in range(stats.restarts + 1)
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

    def replicas_report(self):
        """One-copy-serializability evidence over replicated items (see
        :func:`repro.mdbs.verification.check_replicas`); requires a
        replica map."""
        if self.router is None:
            raise ProtocolViolation(
                "replicas_report requires a replica map"
            )
        return check_replicas(
            {site: db.storage for site, db in self.sites.items()},
            self.router.replica_map,
        )

    def decision_uniqueness_report(self):
        """Commit-group safety evidence: every replica learned the same
        decision per incarnation, and no participant history contradicts
        the quorum-chosen value (see
        :func:`repro.mdbs.verification.check_decision_uniqueness`);
        requires a commit group."""
        if self.commit is None or self.commit.group is None:
            raise ProtocolViolation(
                "decision_uniqueness_report requires a commit group "
                "(commit_group_size >= 1 with atomic_commit)"
            )
        return check_decision_uniqueness(
            self.commit.group,
            {site: db.history for site, db in self.sites.items()},
        )

    def atomicity_report(
        self, global_schedule: Optional[GlobalSchedule] = None
    ):
        """What the GTM claims happened, checked against the ground truth
        (*global_schedule*, built here unless the caller already has it):
        the no-lost/no-duplicated commit report, as ``.exactly_once``,
        and the atomicity verdict over it — with ``atomic_commit``
        enabled, partial commits are hard violations (see
        :func:`repro.mdbs.verification.check_atomicity`)."""
        if global_schedule is None:
            global_schedule = self.global_schedule()
        return check_atomicity(
            global_schedule,
            reported_committed=self.committed_global,
            program_sites={
                logical: program.sites
                for logical, program in self._programs.items()
            },
            reported_failed=self.failed_global,
            atomic_commit=self.commit is not None,
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
