"""Chaos verification: seeded fault storms, checked from ground truth.

One :func:`run_chaos` call describes a randomized MDBS workload under a
seeded :class:`~repro.faults.plan.FaultPlan` (message loss, duplication,
heavy-tail delay, GTM2 crashes, site crashes) as one
:class:`~repro.transport.base.SimulationJob` (:func:`chaos_job`), runs
it to completion, and verifies from the local history logs that:

- every local and global schedule stayed (globally) serializable;
- no global commit was lost or duplicated
  (:func:`repro.mdbs.verification.check_exactly_once`);
- the run *terminated* — every admitted global transaction was resolved
  (committed or reported failed) and the event loop drained.

``python -m repro chaos`` drives many runs across Schemes 0–4; the test
suite (``tests/test_fault_injection.py``) and CI run smaller sweeps.

This module sits *above* :mod:`repro.mdbs` and is therefore not
re-exported from :mod:`repro.faults` (which :mod:`repro.mdbs` imports).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle
from typing import Optional, Sequence, Tuple

from repro.faults.plan import FaultPlan
from repro.mdbs.simulator import SimulationConfig, SimulationReport
from repro.mdbs.verification import (
    AtomicityReport,
    DecisionUniquenessReport,
    ExactlyOnceReport,
    ReplicaConsistencyReport,
    VerificationReport,
    verify,
)
from repro.replication import ReplicaMap
from repro.transport.base import SimulationJob, build_simulator
from repro.workloads.generator import WorkloadConfig, WorkloadGenerator

#: protocols cycled over the sites: a locking site, a timestamp site,
#: and a ticket site — one per declared serialization function (commit,
#: begin, ticket)
DEFAULT_PROTOCOLS: Tuple[str, ...] = ("strict-2pl", "to", "sgt")


@dataclass
class ChaosOptions:
    """Shape of one chaos run (the seed picks the concrete storm)."""

    scheme: str = "scheme2"
    sites: int = 3
    protocols: Sequence[str] = DEFAULT_PROTOCOLS
    global_txns: int = 8
    local_txns: int = 10
    spacing: float = 3.0
    loss_rate: float = 0.15
    duplication_rate: float = 0.05
    delay_rate: float = 0.10
    gtm_crash_count: int = 1
    site_crash_count: int = 1
    downtime: float = 25.0
    crash_window: Tuple[float, float] = (20.0, 400.0)
    horizon: float = 100_000.0
    #: presumed-abort 2PC (repro.commit)
    atomic_commit: bool = False
    #: crashes keyed to 2PC progress (site down right after its n-th
    #: YES vote); only drawn when > 0
    prepare_crash_count: int = 0
    #: available-copies replication (repro.replication): copies per
    #: logical item; 0 = off — the paper's single-copy model
    replication_degree: int = 0
    #: shared logical items placed by the replica map (named ``x0..``,
    #: disjoint from the site-local ``s0_x..`` item pools)
    replicated_items: int = 8
    #: fraction of global transactions forced read-only — the snapshot
    #: population (only meaningful with replication on)
    ro_fraction: float = 0.25
    #: crashes keyed to replicated-write progress (site down right
    #: after its n-th replica write); only drawn when > 0
    write_crash_count: int = 0
    #: replicated commit decision log (repro.commit.group): number of
    #: coordinator replicas; 0 = off — the single-coordinator journal
    #: backend.  Non-blocking termination needs 2f+1 >= 3
    commit_group_size: int = 0
    #: coordinator-replica crashes keyed to vote-log progress; only
    #: drawn when > 0
    coordinator_crash_count: int = 0
    #: vote/decision partitions (acting leader + GTM on the minority
    #: side); only drawn when > 0
    vote_decide_partition_count: int = 0


@dataclass
class ChaosResult:
    """Everything one chaos run produced, plus the verdicts."""

    seed: int
    options: ChaosOptions
    report: SimulationReport
    verification: VerificationReport
    exactly_once: ExactlyOnceReport
    atomicity: AtomicityReport
    #: the event loop drained and every global was resolved
    terminated: bool
    #: logical transactions neither committed nor reported failed
    unresolved: Tuple[str, ...]
    #: replica-copy order agreement (None when replication is off)
    replicas: Optional[ReplicaConsistencyReport] = None
    #: commit-group decision uniqueness (None without a commit group)
    decisions: Optional[DecisionUniquenessReport] = None

    @property
    def ok(self) -> bool:
        return (
            self.verification.ok
            and self.exactly_once.ok
            and self.atomicity.ok
            and self.terminated
            and (self.replicas is None or self.replicas.ok)
            and (self.decisions is None or self.decisions.ok)
        )

    def failure_reasons(self) -> Tuple[str, ...]:
        reasons = []
        if not self.verification.ok:
            reasons.append(
                f"serializability violated (cycle {self.verification.cycle})"
            )
        if self.exactly_once.duplicated:
            reasons.append(
                f"duplicated commits: {self.exactly_once.duplicated}"
            )
        if self.exactly_once.lost:
            reasons.append(f"lost commits: {self.exactly_once.lost}")
        if self.atomicity.atomic_commit and self.atomicity.partial_commits:
            reasons.append(
                f"partial commits under 2PC: "
                f"{self.atomicity.partial_commits}"
            )
        if not self.terminated:
            reasons.append(f"did not terminate (unresolved {self.unresolved})")
        if self.replicas is not None and not self.replicas.ok:
            reasons.append(
                f"replica copies diverged: {self.replicas.divergent}"
            )
        if self.decisions is not None and not self.decisions.ok:
            reasons.append(
                f"conflicting commit decisions: {self.decisions.violations}"
            )
        return tuple(reasons)


def chaos_job(options: ChaosOptions, seed: int) -> SimulationJob:
    """The run one seeded chaos storm is: the seed's workload, with its
    :meth:`FaultPlan.random` draw (raises
    :class:`~repro.faults.model.FaultConfigError` on a bad option)."""
    workload = WorkloadGenerator(
        WorkloadConfig(sites=options.sites, seed=seed)
    )
    site_names = workload.config.site_names
    replica_map = None
    if options.replication_degree >= 1:
        shared_items = tuple(
            f"x{index}" for index in range(options.replicated_items)
        )
        replica_map = ReplicaMap.build(
            shared_items, site_names, options.replication_degree
        )
        programs = workload.logical_batch(
            options.global_txns, shared_items, ro_fraction=options.ro_fraction
        )
    else:
        programs = workload.global_batch(options.global_txns)
    plan = FaultPlan.random(
        seed,
        tuple(site_names),
        window=options.crash_window,
        loss_rate=options.loss_rate,
        duplication_rate=options.duplication_rate,
        delay_rate=options.delay_rate,
        gtm_crash_count=options.gtm_crash_count,
        site_crash_count=options.site_crash_count,
        downtime=options.downtime,
        prepare_crash_count=options.prepare_crash_count,
        write_crash_count=options.write_crash_count,
        coordinator_crash_count=options.coordinator_crash_count,
        vote_decide_partition_count=options.vote_decide_partition_count,
        commit_group_size=options.commit_group_size,
    )
    return SimulationJob(
        site_protocols=tuple(zip(site_names, cycle(options.protocols))),
        scheme=options.scheme,
        config=SimulationConfig(horizon=options.horizon),
        seed=seed,
        plan=plan,
        atomic_commit=options.atomic_commit,
        commit_group_size=options.commit_group_size,
        replica_map=replica_map,
        global_programs=tuple(
            (program, index * options.spacing)
            for index, program in enumerate(programs)
        ),
        local_programs=tuple(
            (local, index * options.spacing / 2)
            for index, local in enumerate(
                workload.local_batch(options.local_txns)
            )
        ),
    )


def run_chaos(options: ChaosOptions, seed: int) -> ChaosResult:
    """Run one seeded chaos storm and verify it from ground truth."""
    simulator = build_simulator(chaos_job(options, seed))
    report = simulator.run()
    # the ground truth is built once and checked once: the atomicity
    # verdict wraps the run's one exactly-once report
    schedule = simulator.global_schedule()
    verification = verify(schedule, simulator.ser_schedule)
    atomicity = simulator.atomicity_report(schedule)
    resolved = set(simulator.committed_global) | set(simulator.failed_global)
    router = simulator.router
    if router is not None:
        resolved |= set(router.snapshot_committed) | set(router.snapshot_failed)
    unresolved = tuple(sorted(simulator.admitted() - resolved))
    terminated = simulator.loop.pending == 0 and not unresolved
    replicas = simulator.replicas_report() if router is not None else None
    commit = simulator.commit
    decisions = (
        simulator.decision_uniqueness_report()
        if commit is not None and commit.group is not None
        else None
    )
    return ChaosResult(
        seed=seed,
        options=options,
        report=report,
        verification=verification,
        exactly_once=atomicity.exactly_once,
        atomicity=atomicity,
        terminated=terminated,
        unresolved=unresolved,
        replicas=replicas,
        decisions=decisions,
    )
