"""Chaos verification: seeded fault storms, checked from ground truth.

One :func:`run_chaos` call describes a randomized MDBS workload under a
seeded :class:`~repro.faults.plan.FaultPlan` (message loss, duplication,
heavy-tail delay, GTM2 crashes, site crashes) as one
:class:`~repro.transport.base.SimulationJob` (:func:`chaos_job`) and
runs it on the single-loop transport, whose
:class:`~repro.transport.base.TransportResult` judges it from the local
history logs like every other run: serializability, no lost or
duplicated global commit, atomicity under 2PC, replica agreement, one
decision per transaction, and termination — every admitted global
transaction resolved (committed or reported failed) and the event loop
drained.

``python -m repro chaos`` drives many runs across Schemes 0–4; the test
suite (``tests/test_fault_injection.py``) and CI run smaller sweeps.

This module sits *above* :mod:`repro.mdbs` and is therefore not
re-exported from :mod:`repro.faults` (which :mod:`repro.mdbs` imports).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import cycle
from typing import Sequence, Tuple

from repro.faults.model import FaultConfigError
from repro.faults.plan import FaultPlan, StormShape, knob
from repro.mdbs.simulator import SimulationConfig
from repro.replication import ReplicaMap
from repro.transport.base import SimulationJob, TransportResult
from repro.transport.sim import SimTransport
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
        minimum=0,
    )
    #: shared logical items placed by the replica map (named ``x0..``,
    #: disjoint from the site-local ``s0_x..`` item pools)
    replicated_items: int = knob(
        8,
        "--replicated-items",
        "shared logical items placed by the replica map; needs "
        "--replication-degree >= 1",
        minimum=0,
    )
    #: fraction of global transactions forced read-only — the snapshot
    #: population (only meaningful with replication on)
    ro_fraction: float = knob(
        0.25,
        "--ro-fraction",
        "fraction of global transactions forced read-only (served from "
        "the committed multiversion snapshot); needs "
        "--replication-degree >= 1",
    )

    def draw(self, seed: int, sites: Sequence[str]) -> FaultPlan:
        """The storm's fault plan; a knob set away from its default
        while its layer is off raises
        :class:`~repro.faults.model.FaultConfigError` instead of being
        drawn (or built) and then ignored."""
        if not 0.0 <= self.ro_fraction <= 1.0:
            raise FaultConfigError(
                f"ro_fraction must be in [0, 1], got {self.ro_fraction}"
            )
        defaults = {spec.name: spec.default for spec in fields(self)}
        group = self.commit_group_size >= 1
        replicated = self.replication_degree >= 1
        for name, needs, layer_on in (
            ("prepare_crash_count", "atomic_commit", self.atomic_commit),
            ("commit_group_size", "atomic_commit", self.atomic_commit),
            ("coordinator_crash_count", "commit_group_size >= 1", group),
            ("vote_decide_partition_count", "commit_group_size >= 1", group),
            ("write_crash_count", "replication_degree >= 1", replicated),
            ("replicated_items", "replication_degree >= 1", replicated),
            ("ro_fraction", "replication_degree >= 1", replicated),
        ):
            value = getattr(self, name)
            if value < 0:
                raise FaultConfigError(f"negative {name} {value}")
            if value != defaults[name] and not layer_on:
                raise FaultConfigError(f"{name} {value} needs {needs}")
        return super().draw(seed, sites)


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


def run_chaos(options: ChaosOptions, seed: int) -> TransportResult:
    """Run one seeded chaos storm, judged from ground truth."""
    return SimTransport().run(chaos_job(options, seed))
