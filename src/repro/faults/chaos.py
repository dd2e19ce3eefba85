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

from repro.faults.model import FaultConfigError
from repro.faults.plan import FaultPlan, StormShape, knob
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
class ChaosOptions(StormShape):
    """Shape of one chaos run (the seed picks the concrete storm): the
    storm's fault knobs, plus the workload and the layers it runs on."""

    scheme: str = "scheme2"
    sites: int = knob(3, "--sites", minimum=1)
    protocols: Sequence[str] = DEFAULT_PROTOCOLS
    global_txns: int = knob(8, "--globals", minimum=0)
    local_txns: int = knob(10, "--locals", minimum=0)
    spacing: float = 3.0
    horizon: float = 100_000.0
    #: presumed-abort 2PC (repro.commit)
    atomic_commit: bool = knob(
        False,
        "--atomic-commit",
        "run with presumed-abort 2PC; partial commits become hard "
        "violations",
    )
    #: available-copies replication (repro.replication): copies per
    #: logical item; 0 = off — the paper's single-copy model
    replication_degree: int = knob(
        0,
        "--replication-degree",
        "copies per logical item under available-copies replication; 0 "
        "(default) = the paper's single-copy model",
    )
    #: shared logical items placed by the replica map (named ``x0..``,
    #: disjoint from the site-local ``s0_x..`` item pools)
    replicated_items: int = knob(
        8,
        "--replicated-items",
        "shared logical items placed by the replica map",
    )
    #: fraction of global transactions forced read-only — the snapshot
    #: population (only meaningful with replication on)
    ro_fraction: float = knob(
        0.25,
        "--ro-fraction",
        "fraction of global transactions forced read-only (served from "
        "the committed multiversion snapshot)",
    )

    def draw(self, seed: int, sites: Sequence[str]) -> FaultPlan:
        """The storm's fault plan; a knob whose layer is off raises
        :class:`~repro.faults.model.FaultConfigError` instead of being
        drawn and then ignored."""
        group = self.commit_group_size >= 1
        replicated = self.replication_degree >= 1
        for name, needs, layer_on in (
            ("prepare_crash_count", "atomic_commit", self.atomic_commit),
            ("commit_group_size", "atomic_commit", self.atomic_commit),
            ("coordinator_crash_count", "commit_group_size >= 1", group),
            ("vote_decide_partition_count", "commit_group_size >= 1", group),
            ("write_crash_count", "replication_degree >= 1", replicated),
        ):
            value = getattr(self, name)
            if value > 0 and not layer_on:
                raise FaultConfigError(f"{name} {value} needs {needs}")
        return super().draw(seed, sites)


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
    :meth:`ChaosOptions.draw` (raises
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
    plan = options.draw(seed, tuple(site_names))
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
