"""The five named workloads: what each generates from the seed, how one
job runs, and what the end-to-end metrics read off its result.

A *job* is one run through a public entry point (``Transport.run``,
``drive`` or ``run_chaos``) under one scheme on one generated input.  A
*sweep* is every job of a workload once: each scheme on several inputs,
every job on its own sub-seed.  The cost per commit of one input swings
with the seed (abort storms: ±25 % on ``contended`` and ``faulty``), and
the schemes' costs on one input move together, so pooling independent
inputs is what keeps a sweep's numbers steady from seed to seed (README,
"Estimator").

Only the names listed in README's "Stable surface" are imported from
``repro``; results are read with :func:`attr` so a field a later PR
renames degrades to ``None`` instead of failing the run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import make_scheme
from repro.faults.chaos import ChaosOptions, run_chaos
from repro.mdbs import SimulationConfig
from repro.transport import SimulationJob, make_transport
from repro.workloads import WorkloadConfig, WorkloadGenerator
from repro.workloads.traces import drive, staggered_trace

#: site protocols of the E4/E14 grid, cycled over the sites
PROTOCOLS = ("strict-2pl", "to", "conservative-2pl", "sgt")
ALL_SCHEMES = ("scheme0", "scheme1", "scheme2", "scheme3", "scheme4")

#: name -> (why, schemes, inputs per scheme)
WORKLOADS: Dict[str, Tuple[str, Tuple[str, ...], int]] = {
    "steady": (
        "paced below capacity: event loop, servers, local DBMSs and "
        "ground-truth verification do the work, the scheme ~12 %",
        ALL_SCHEMES,
        2,
    ),
    "contended": (
        "the E14 MPL-32 cell: abort, purge, restart and the stall "
        "watchdog beside the commit path (3-6 aborts per commit)",
        ALL_SCHEMES,
        3,
    ),
    "gtm2_trace": (
        "the paper's section-4 model: only Engine and the scheme's own "
        "structure run, so scheme-level changes move the wall here",
        ALL_SCHEMES,
        3,
    ),
    "faulty": (
        "message faults, crashes, 2PC and the Paxos-commit group: "
        "retries, recovery and the commit layer run nowhere else",
        ALL_SCHEMES,
        8,
    ),
    "sharded": (
        "ParallelTransport on 4 site-disjoint groups: split, four shard "
        "runs, outcome merge and the verify of the merged schedule",
        ("scheme2", "scheme3", "scheme4"),
        2,
    ),
}


@dataclass(frozen=True)
class Job:
    """One (workload, scheme, input) run."""

    workload: str
    scheme: str
    seed: int
    #: "transport" (payload: SimulationJob), "drive" (payload: Trace) or
    #: "chaos" (payload: ChaosOptions)
    kind: str
    payload: Any
    #: global transactions the input submits
    submitted: int
    #: ParallelTransport workers of the pool run; 0 = SimTransport
    workers: int = 0

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.scheme}/{self.seed}"


def _e4_group(
    scheme_seed: int,
    items: int,
    globals_: int,
    wave: int,
    gap: float,
    locals_: int,
    sites: int = len(PROTOCOLS),
    prefix: str = "",
):
    """One cluster of heterogeneous-protocol sites with its programs —
    the shape of ``repro.analysis.bench.make_e4_job`` — built here so the
    benchmark does not depend on the bench module Open item 1 rewrites."""
    config = WorkloadConfig(
        sites=sites,
        items_per_site=items,
        dav=2.0,
        ops_per_site=2,
        seed=scheme_seed,
        site_prefix=f"{prefix}s",
        txn_prefix=f"{prefix}G",
        local_txn_prefix=f"{prefix}L",
    )
    generator = WorkloadGenerator(config)
    protocols = PROTOCOLS * (sites // len(PROTOCOLS))
    global_programs = [
        (program, (index // wave) * gap)
        for index, program in enumerate(generator.global_batch(globals_))
    ]
    span = (globals_ // wave) * gap
    local_programs = [
        (program, index * span / locals_)
        for index, program in enumerate(generator.local_batch(locals_))
    ]
    return list(zip(config.site_names, protocols)), global_programs, local_programs


def _transport_job(
    workload: str,
    scheme: str,
    seed: int,
    groups: Sequence[tuple],
    config: Optional[SimulationConfig] = None,
    workers: int = 0,
) -> Job:
    site_protocols: List[tuple] = []
    global_programs: List[tuple] = []
    local_programs: List[tuple] = []
    for sites, globals_, locals_ in groups:
        site_protocols.extend(sites)
        global_programs.extend(globals_)
        local_programs.extend(locals_)
    payload = SimulationJob(
        site_protocols=tuple(site_protocols),
        scheme=scheme,
        config=config or SimulationConfig(),
        seed=seed,
        global_programs=tuple(global_programs),
        local_programs=tuple(local_programs),
    )
    return Job(
        workload, scheme, seed, "transport", payload,
        submitted=len(global_programs), workers=workers,
    )


def contended_job(scheme: str, seed: int, scale: int = 1) -> Job:
    """The E14/E4 MPL-32 cell: ``make_e4_job(scheme, 32, seed)`` field for
    field, except ``max_restarts``: the default 25 lets about one
    transaction in 900 exhaust its restarts under scheme3, and a
    benchmark workload may not contain failing operations."""
    mpl = 32 // scale
    group = _e4_group(seed, 12, 3 * mpl, mpl, 40.0, 0)
    return _transport_job(
        "contended", scheme, seed, [group],
        config=SimulationConfig(max_restarts=1000),
    )


def build_jobs(workload: str, seed: int, quick: bool = False) -> List[Job]:
    """Every job of *workload*'s sweep, from *seed* alone."""
    _why, schemes, inputs = WORKLOADS[workload]
    scale = 4 if quick else 1
    if quick:
        inputs = max(1, inputs // 4)
    jobs: List[Job] = []
    for index in range(inputs * len(schemes)):
        scheme = schemes[index % len(schemes)]
        job_seed = seed * 1000 + index
        if workload == "steady":
            group = _e4_group(
                job_seed, 128, 400 // scale, 16, 200.0, 200 // scale, sites=8
            )
            job = _transport_job(workload, scheme, job_seed, [group])
        elif workload == "contended":
            job = contended_job(scheme, job_seed, scale)
        elif workload == "gtm2_trace":
            transactions = 500 // scale
            trace = staggered_trace(
                transactions, sites=16, dav=3, seed=job_seed, window=48
            )
            job = Job(workload, scheme, job_seed, "drive", trace, transactions)
        elif workload == "faulty":
            options = ChaosOptions(
                scheme=scheme,
                sites=6,
                global_txns=60 // scale,
                local_txns=30 // scale,
                spacing=12,
                atomic_commit=True,
                commit_group_size=3,
                coordinator_crash_count=1,
                loss_rate=0.05,
                duplication_rate=0.02,
                delay_rate=0.05,
                crash_window=(20, 700),
            )
            job = Job(
                workload, scheme, job_seed, "chaos", options,
                options.global_txns,
            )
        elif workload == "sharded":
            groups = [
                _e4_group(
                    job_seed + 1009 * group, 128, 96 // scale, 8, 160.0,
                    48 // scale, prefix=f"g{group}",
                )
                for group in range(4)
            ]
            job = _transport_job(
                workload, scheme, job_seed, groups,
                workers=min(2, os.cpu_count() or 1),
            )
        else:
            raise KeyError(workload)
        jobs.append(job)
    return jobs


def run_job(job: Job, pool: bool = False) -> Any:
    """The whole public call of one job — what the wall is taken around.
    A ``sharded`` job runs its shards one after another in this process
    (``ParallelTransport(workers=1)``: split, run, merge, verify), where
    timers, shims and profilers see one process on one core; *pool* runs
    it on ``job.workers`` worker processes instead, which only the
    dispatch numbers of the per-layer metrics ask for (README, "Estimator")."""
    if job.kind == "drive":
        return drive(make_scheme(job.scheme), job.payload)
    if job.kind == "chaos":
        return run_chaos(job.payload, job.seed)
    workers = job.workers if pool else min(job.workers, 1)
    transport = (
        make_transport("parallel", workers=workers)
        if workers
        else make_transport("sim")
    )
    return transport.run(job.payload)


def attr(obj: Any, path: str, default: Any = None) -> Any:
    """``obj.a.b.c`` for *path* ``"a.b.c"``, or *default* where the chain breaks."""
    for name in path.split("."):
        obj = getattr(obj, name, None)
        if obj is None:
            return default
    return obj


@dataclass
class Outcome:
    """What the end-to-end metrics need from one job's result."""

    ok: bool
    why: str
    submitted: int
    commits: int
    failed: int
    aborts: int
    #: simulated duration; None where there is no clock (``drive``)
    duration: Optional[float]
    responses: Tuple[float, ...]
    in_doubt: Tuple[float, ...]
    wait_area: float
    wait_samples: float
    #: the result's report object (None for ``drive``), for layer counts
    report: Any = None


def outcome_of(job: Job, raw: Any) -> Outcome:
    """Read the verdict and the seed-deterministic numbers off a result."""
    if job.kind == "drive":
        # drive() raises unless ser(S) is serializable and the engine
        # drained, so a returned result is a passed check
        metrics = raw.metrics
        return Outcome(
            ok=True,
            why="",
            submitted=job.submitted,
            commits=metrics.transactions_finished,
            failed=job.submitted - metrics.transactions_finished,
            aborts=len(raw.aborted),
            duration=None,
            responses=(),
            in_doubt=(),
            # the engine is private to drive(); ticks spent in WAIT over
            # operations processed is the same area under the WAIT-set
            # curve that Engine.wait_area / wait_samples integrates
            wait_area=metrics.wait_ticks,
            wait_samples=metrics.total_processed,
        )
    report = raw.report
    if job.kind == "chaos":
        ok, why = raw.ok, "; ".join(raw.failure_reasons())
    else:
        ok = raw.verification.ok
        why = f"cycle {attr(raw, 'verification.cycle', ())}"
    return Outcome(
        ok=bool(ok),
        why=why,
        submitted=job.submitted,
        commits=report.committed_global,
        failed=report.failed_global,
        aborts=report.global_aborts,
        duration=report.duration,
        responses=tuple(report.response_times),
        in_doubt=tuple(attr(report, "in_doubt_times", ())),
        wait_area=attr(report, "wait_area", 0),
        wait_samples=attr(report, "wait_samples", 0),
        report=report,
    )
