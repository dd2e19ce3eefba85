"""The transport abstraction: who runs a simulation, and where.

A :class:`SimulationJob` is a complete, picklable run specification —
sites with their protocols, the GTM2 scheduler (any name
:func:`~repro.core.make_scheme` resolves), the workload, the fault plan,
the commit layer and the replica map — and :func:`build_simulator` is
the one code path in ``src/repro`` that assembles a simulator.  A
:class:`Transport` turns a job into a :class:`TransportResult`: the
merged :class:`~repro.mdbs.simulator.SimulationReport`, the executed
global schedule, ``ser(S)``, the shard count and timings, and every
verdict the run promises, from ground truth.  :meth:`Transport.run` is
the only code that runs and judges a job.

Two transports exist:

- :class:`~repro.transport.sim.SimTransport` — the deterministic
  single-loop simulator, byte-identical to driving
  :class:`~repro.mdbs.simulator.MDBSSimulator` directly;
- :class:`~repro.transport.parallel.ParallelTransport` — a concurrent
  runtime that partitions the job by :func:`~repro.core.gtm.site_components`
  and runs one full GTM+sites engine per shard across ``multiprocessing``
  workers.

The sharding rule is the paper's own observation: global transactions
with disjoint site sets never conflict — directly (no shared site means
no shared item) or indirectly (an indirect conflict needs a local
transaction at a shared site) — and every scheduler a job can name only
links transactions through shared sites, so each site component running
its own instance reaches the very same WAIT/GRANT decisions.
``tests/test_transport_equivalence.py`` asserts this end to end for every
scheduler the simulator accepts, fault scenarios included.

Known, documented divergences of a sharded run (excluded from the
equivalence comparison; ``docs/performance.md`` shows them on BENCH_8):

- ``events`` — each shard arms its own no-progress watchdog, so the
  merged count includes one watchdog tick chain per shard;
- ``scheme_steps``, ``dfs_steps_avoided`` and ``wake_retries_skipped``
  — a scan walks only the transactions resident in its shard (the
  decisions do not depend on the partition);
- ``wait_area``, hence ``mean_wait_set`` — each shard keeps its own
  WAIT set.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.gtm import GlobalProgram, site_components
from repro.faults.plan import FaultPlan
from repro.mdbs.simulator import (
    MDBSSimulator,
    SimulationConfig,
    SimulationReport,
)
from repro.mdbs.verification import (
    AtomicityReport,
    DecisionUniquenessReport,
    ReplicaConsistencyReport,
    VerificationReport,
    verify,
)
from repro.replication import LogicalProgram, ReplicaMap
from repro.schedules.global_schedule import (
    GlobalSchedule,
    SerOperation,
    SerSchedule,
)
from repro.schedules.model import Operation, Schedule
from repro.workloads.generator import LocalProgram


@dataclass(frozen=True)
class SimulationJob:
    """Everything one run needs, in picklable form."""

    #: ``(site, protocol-name)`` pairs, in site-dictionary order — the
    #: order fixes graph insertion order and hence witness identity
    site_protocols: Tuple[Tuple[str, str], ...]
    scheme: str
    config: SimulationConfig = field(default_factory=SimulationConfig)
    seed: int = 0
    #: fault plan; ``None`` runs without an injector (byte-identical to
    #: the pre-fault simulator — a quiet plan's injector still makes
    #: every link retry, and ack timeouts fire on long lock waits, so
    #: the distinction matters)
    plan: Optional[FaultPlan] = None
    atomic_commit: bool = False
    commit_group_size: int = 0
    #: available-copies placement; with one, the global programs are
    #: site-free :class:`LogicalProgram` s
    replica_map: Optional[ReplicaMap] = None
    #: ``(program, submit-at)`` pairs
    global_programs: Tuple[Tuple[Union[GlobalProgram, LogicalProgram], float], ...] = ()
    local_programs: Tuple[Tuple[LocalProgram, float], ...] = ()

    @property
    def sites(self) -> Tuple[str, ...]:
        return tuple(site for site, _ in self.site_protocols)


@dataclass
class ShardOutcome:
    """Picklable result of one shard's run (what crosses the process
    boundary back to the dispatcher)."""

    report: SimulationReport
    committed: Tuple[str, ...]
    failed: Tuple[str, ...]
    #: per-site executed local schedules, as raw operation tuples
    site_ops: Tuple[Tuple[str, Tuple[Operation, ...]], ...]
    global_ids: Tuple[str, ...]
    ser_ops: Tuple[SerOperation, ...]
    #: the verdicts that need the shard's simulator (see TransportResult)
    atomicity: AtomicityReport
    unresolved: Tuple[str, ...]
    #: events left in the loop when it stopped
    pending: int
    #: elapsed seconds of ``run()`` measured *inside* the worker
    wall_s: float
    #: CPU seconds of ``run()`` in the worker (``time.process_time``)
    cpu_s: float
    replicas: Optional[ReplicaConsistencyReport] = None
    decisions: Optional[DecisionUniquenessReport] = None


@dataclass
class TransportResult:
    """What a transport hands back: the merged outcome, its verdicts
    (:attr:`ok` when all hold), and the shards' own timings for
    ``perf/`` (nothing under ``src/`` reads them)."""

    report: SimulationReport
    committed: Tuple[str, ...]
    failed: Tuple[str, ...]
    global_schedule: GlobalSchedule
    ser_schedule: SerSchedule
    verification: VerificationReport
    #: exactly-once (``.exactly_once``), and atomicity under 2PC
    atomicity: AtomicityReport
    #: None without a replica map / a commit group
    replicas: Optional[ReplicaConsistencyReport]
    decisions: Optional[DecisionUniquenessReport]
    #: logical transactions admitted but neither committed nor failed
    unresolved: Tuple[str, ...]
    #: every event loop drained and nothing is unresolved
    terminated: bool
    transport: str
    workers: int
    shards: int
    #: summed per-shard CPU seconds (total machine work)
    cpu_s: float
    shard_wall_s: Tuple[float, ...]
    #: why a job that asked for shards ran as one (see
    #: :func:`unshardable_reason`); None when it was partitioned or is
    #: one site component
    unsharded_because: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failure_reasons()

    def failure_reasons(self) -> Tuple[str, ...]:
        """One line per failed verdict; empty when the run is correct."""
        reasons = [] if self.verification.ok else [
            f"serializability violated (cycle {self.verification.cycle})"
        ]
        reasons += self.atomicity.violations
        if not self.terminated:
            reasons.append(f"did not terminate (unresolved {self.unresolved})")
        if self.replicas is not None and not self.replicas.ok:
            reasons.append(f"replica copies diverged: {self.replicas.divergent}")
        if self.decisions is not None and not self.decisions.ok:
            reasons.append(
                f"conflicting commit decisions: {self.decisions.violations}"
            )
        return tuple(reasons)


class Transport:
    """Turns a :class:`SimulationJob` into a :class:`TransportResult`:
    :meth:`run` dispatches, merges and verifies in the dispatcher; a
    transport says which shards the
    job becomes (:meth:`split`) and how they execute (:meth:`execute`)."""

    name = "abstract"
    workers = 1

    def split(
        self, job: SimulationJob
    ) -> Tuple[List[SimulationJob], Optional[str]]:
        """The shard jobs, and why there is one when more were wanted."""
        return [job], None

    def execute(self, shards: List[SimulationJob]) -> List[ShardOutcome]:
        return [run_shard(shard) for shard in shards]

    def run(self, job: SimulationJob) -> TransportResult:
        shards, reason = self.split(job)
        outcomes = self.execute(shards)
        return TransportResult(
            **merge_outcomes(job, outcomes),
            transport=self.name,
            workers=self.workers,
            shards=len(shards),
            cpu_s=sum(outcome.cpu_s for outcome in outcomes),
            shard_wall_s=tuple(outcome.wall_s for outcome in outcomes),
            unsharded_because=reason,
        )


# ----------------------------------------------------------------------
# building and running one (shard-)simulation
# ----------------------------------------------------------------------
def build_simulator(job: SimulationJob) -> MDBSSimulator:
    """Assemble the simulator a job describes (imports deferred so the
    job dataclass stays cheap to unpickle in workers)."""
    from repro.core import make_scheme
    from repro.faults.injector import FaultInjector
    from repro.lmdbs import LocalDBMS, make_protocol

    replicas = job.replica_map
    sites = {
        site: LocalDBMS(
            site,
            make_protocol(protocol),
            None if replicas is None else dict.fromkeys(replicas.items_at(site), 0),
        )
        for site, protocol in job.site_protocols
    }
    simulator = MDBSSimulator(
        sites,
        make_scheme(job.scheme),
        job.config,
        injector=FaultInjector(job.plan) if job.plan is not None else None,
        atomic_commit=job.atomic_commit,
        replica_map=replicas,
        commit_group_size=job.commit_group_size,
    )
    submit = simulator.submit_global if replicas is None else simulator.submit_logical
    for program, at in job.global_programs:
        submit(program, at=at)
    for program, at in job.local_programs:
        simulator.submit_local(program, at=at)
    return simulator


def run_shard(job: SimulationJob) -> ShardOutcome:
    """Run one (shard-)job to completion and take the verdicts that need
    its simulator; module-level and picklable so ``multiprocessing``
    workers can execute it."""
    simulator = build_simulator(job)
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    report = simulator.run()
    wall_s = time.perf_counter() - wall_started
    cpu_s = time.process_time() - cpu_started
    schedule = simulator.global_schedule()
    resolved = set(simulator.committed_global) | set(simulator.failed_global)
    router, commit = simulator.router, simulator.commit
    if router is not None:
        resolved |= set(router.snapshot_committed) | set(router.snapshot_failed)
    return ShardOutcome(
        report=report,
        committed=tuple(simulator.committed_global),
        failed=tuple(simulator.failed_global),
        site_ops=tuple(
            (site, tuple(schedule.local_schedule(site)))
            for site in job.sites
        ),
        global_ids=tuple(sorted(schedule.global_transaction_ids)),
        ser_ops=tuple(simulator.ser_schedule.operations),
        atomicity=simulator.atomicity_report(schedule),
        unresolved=tuple(sorted(simulator.admitted() - resolved)),
        pending=simulator.loop.pending,
        wall_s=wall_s,
        cpu_s=cpu_s,
        replicas=simulator.replicas_report() if router is not None else None,
        decisions=(
            simulator.decision_uniqueness_report()
            if commit is not None and commit.group is not None
            else None
        ),
    )


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------
def unshardable_reason(job: SimulationJob) -> Optional[str]:
    """Why *job* must run as a single shard — ``None`` when it may be
    partitioned by site component."""
    if job.commit_group_size >= 1:
        return "the coordinator-replica group is one global quorum"
    if job.replica_map is not None:
        return "a logical program is routed to its sites only when it starts"
    return None


def _shard_plan(plan: Optional[FaultPlan], members: frozenset) -> Optional[FaultPlan]:
    """Restrict a plan to one component's sites.  GTM2 crash instants
    apply to every shard (the whole GTM2 crashes in the single-loop
    run, wiping each component's state at the same moment); site-keyed
    crashes follow their site."""
    if plan is None:
        return None
    return dataclasses.replace(
        plan,
        site_crashes=tuple(
            crash for crash in plan.site_crashes if crash.site in members
        ),
        crash_after_prepare=tuple(
            crash
            for crash in plan.crash_after_prepare
            if crash.site in members
        ),
        crash_after_writes=tuple(
            crash
            for crash in plan.crash_after_writes
            if crash.site in members
        ),
    )


def shard_jobs(job: SimulationJob) -> List[SimulationJob]:
    """Partition *job* into one sub-job per site component (sites,
    programs, and the fault plan's site-keyed scenarios follow their
    component; everything else is copied).  Returns ``[job]`` when the
    workload is one component."""
    components = site_components(
        job.sites, [program for program, _ in job.global_programs]
    )
    if len(components) <= 1:
        return [job]
    shards: List[SimulationJob] = []
    for component in components:
        members = frozenset(component)
        shards.append(
            dataclasses.replace(
                job,
                site_protocols=tuple(
                    (site, protocol)
                    for site, protocol in job.site_protocols
                    if site in members
                ),
                plan=_shard_plan(job.plan, members),
                global_programs=tuple(
                    (program, at)
                    for program, at in job.global_programs
                    if program.sites[0] in members
                ),
                local_programs=tuple(
                    (program, at)
                    for program, at in job.local_programs
                    if program.site in members
                ),
            )
        )
    return shards


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------
def merge_outcomes(
    job: SimulationJob, outcomes: List[ShardOutcome]
) -> Dict[str, Any]:
    """Fold per-shard outcomes back into one run's view: the
    :class:`TransportResult` fields up to ``terminated``.

    The global schedule is rebuilt with sites in ``job.site_protocols``
    order — the order the single-loop simulator's site dictionary has —
    so serialization-graph insertion order, and hence every witness the
    verifier emits, matches the unsharded run.  Ser-operations are
    concatenated shard by shard: only same-site operations conflict and
    each site lives in exactly one shard, so the per-site conflict
    order (all that ``ser(S)`` serializability depends on) is preserved.
    Verification itself runs here, in the dispatcher, over the merged
    ground truth — shards are never trusted on global serializability.
    Every other verdict is per logical transaction, and each lives in
    one shard, so those fold like the counts.
    """
    from repro.observability.export import fold

    if len(outcomes) == 1:
        merged = outcomes[0]
    else:
        # GTM2 crashes (and each coordinator's recovery) hit every shard
        # at the same instants, and the simulated clocks run side by side
        merged = fold(outcomes, shared=(
            "duration", "gtm_crashes", "coordinator_recoveries", "commit_group_size"
        ))
        merged.report.quarantined_sites = tuple(
            sorted(merged.report.quarantined_sites)
        )
    site_ops = dict(merged.site_ops)
    schedule = GlobalSchedule(
        {site: Schedule(site_ops[site]) for site in job.sites},
        global_transaction_ids=set(merged.global_ids),
    )
    ser_schedule = SerSchedule(merged.ser_ops)
    unresolved = tuple(sorted(merged.unresolved))
    return dict(
        report=merged.report,
        committed=merged.committed,
        failed=merged.failed,
        global_schedule=schedule,
        ser_schedule=ser_schedule,
        verification=verify(schedule, ser_schedule),
        atomicity=merged.atomicity,
        replicas=merged.replicas,
        decisions=merged.decisions,
        unresolved=unresolved,
        terminated=not unresolved and merged.pending == 0,
    )
