"""The trajectory bench harness (``repro bench``).

Runs the E4 throughput grid (and the E11 atomic-commit, E13 commit-group
and E14 degree-of-concurrency variants) as independent *cells* — one per
(experiment, scheme, mpl, seed, transport, groups) — and persists them as
a ``BENCH_<n>.json`` trajectory file.  A cell is the projection of one
run onto :data:`CELL_FIELDS`: the paper's own measures (steps per
scheduled transaction, WAIT-set size, commits) and the simulated results
around them.  Every field is a function of the cell's spec alone — no
module on this path reads a clock; wall-clock is ``perf/``'s — so the
grid can be fanned across ``multiprocessing`` workers and merged back in
fixed task order, and :func:`check_regression` gates on *equality* with
the committed file: ``git diff`` on a re-emitted BENCH file is the list
of scheduling decisions a change moved.
"""

from __future__ import annotations

import json
import multiprocessing
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: site protocols of the E4 grid (benchmarks/test_bench_throughput.py)
E4_PROTOCOLS = ("strict-2pl", "to", "conservative-2pl", "sgt")
DEFAULT_SCHEMES = ("scheme0", "scheme1", "scheme2", "scheme3", "scheme4")
DEFAULT_MPL = (4, 8, 16)
DEFAULT_SEEDS = (7, 8, 9, 10)
#: multiprogramming levels of the E14 degree-of-concurrency cells: the
#: regime where batch planning (scheme4) must dominate Scheme 2
E14_MPL = (32, 64)


def _report(attribute: str) -> Callable[[Any], Any]:
    return attrgetter("report." + attribute)


#: What a cell measures, declared once: field -> (how it is read off the
#: finished run — a ``TransportResult`` or ``ChaosResult``, both carry
#: the ``SimulationReport`` as ``.report`` — and the registry counter a
#: grid sums it into, or None).  :func:`run_cell` fills exactly these,
#: :func:`check_regression` compares exactly these and
#: :func:`results_to_registry` publishes exactly the named ones.
CELL_FIELDS: Dict[str, Tuple[Callable[[Any], Any], Optional[str]]] = {
    "throughput": (_report("throughput"), None),
    "mean_response_time": (_report("mean_response_time"), None),
    "committed": (_report("committed_global"), "bench.committed"),
    "global_aborts": (_report("global_aborts"), "bench.global_aborts"),
    "watchdog_aborts": (_report("watchdog_aborts"), "bench.watchdog_aborts"),
    "duration": (_report("duration"), None),
    "events": (_report("events_executed"), "bench.events"),
    "scheme_steps": (_report("scheme_steps"), "gtm.steps"),
    "graph_ops": (_report("graph_ops"), "gtm.graph_ops"),
    "dfs_steps_avoided": (_report("dfs_steps_avoided"), "gtm.dfs_steps_avoided"),
    "wake_retries_skipped": (
        _report("wake_retries_skipped"),
        "gtm.wake_retries_skipped",
    ),
    "indoubt_max": (lambda run: max(run.report.in_doubt_times or (0.0,)), None),
    "wait_area": (_report("wait_area"), "gtm.wait_area"),
    "wait_samples": (_report("wait_samples"), "gtm.wait_samples"),
    "mean_wait_set": (_report("mean_wait_set"), None),
    # a chaos cell is one simulator, hence one shard
    "shards": (lambda run: getattr(run, "shards", 1), "transport.shards"),
}


def make_specs(
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    mpl_values: Sequence[int] = DEFAULT_MPL,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    experiment: str = "E4",
    transport: str = "sim",
    workers: int = 1,
    groups: int = 1,
) -> List[Dict[str, Any]]:
    """The cell grid, in the fixed order results are merged back in.

    ``transport``/``workers`` pick the runtime an E4 cell executes on
    (:mod:`repro.transport`); ``groups`` > 1 runs the *grouped* E4
    workload — ``groups`` independent 4-site clusters, the site-disjoint
    shape the parallel transport partitions — with ``mpl`` as the total
    multiprogramming level across groups.  All three are recorded in the
    cell so runs on different runtimes or workload shapes are never
    compared against each other (see :func:`_cell_key`).
    """
    return [
        {
            "experiment": experiment,
            "scheme": scheme,
            "mpl": int(mpl),
            "seed": int(seed),
            "transport": transport,
            "workers": int(workers),
            "groups": int(groups),
        }
        for scheme in schemes
        for mpl in mpl_values
        for seed in seeds
    ]


def run_cell(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one bench cell; picklable, safe to call in a worker process."""
    # E4 (throughput) and E14 (degree of concurrency) share the workload
    # and the runner; E14 differs only in the gated statistic (mean
    # WAIT-set size) and its high-MPL grid (see E14_MPL / check_dominance)
    runners = {"E11": _run_e11_cell, "E13": _run_e13_cell}
    run = runners.get(spec["experiment"], _run_e4_cell)(spec)
    result = dict(spec)
    result.update((name, read(run)) for name, (read, _) in CELL_FIELDS.items())
    return result


def make_e4_job(scheme: str, mpl: int, seed: int, groups: int = 1):
    """The E4 workload as a transport job.

    ``groups=1`` is the classic cell of
    benchmarks/test_bench_throughput.py: four heterogeneous-protocol
    sites, ``3*mpl`` global transactions admitted in three MPL-sized
    waves.  ``groups>1`` replicates that shape into ``groups``
    independent 4-site clusters with distinct site/transaction prefixes
    (site-disjoint by construction, so the parallel transport shards it
    ``groups`` ways); ``mpl`` is the *total* multiprogramming level and
    each group gets ``mpl // groups`` of it — ``groups`` must divide it,
    or the cell would run a smaller workload than it records — seeded
    per group so the groups run distinct workloads.
    """
    from repro.mdbs import SimulationConfig
    from repro.transport import SimulationJob
    from repro.workloads import WorkloadConfig, WorkloadGenerator

    site_protocols: List[Any] = []
    global_programs: List[Any] = []
    if groups < 1 or mpl % groups:
        raise ValueError(
            f"groups={groups} must divide mpl={mpl}, or the cell runs a "
            "smaller workload than it records"
        )
    per_mpl = mpl // groups
    for group in range(groups):
        cfg = WorkloadConfig(
            sites=len(E4_PROTOCOLS),
            items_per_site=12,
            dav=2.0,
            ops_per_site=2,
            seed=seed if groups == 1 else seed + 1009 * group,
            site_prefix="s" if groups == 1 else f"g{group}s",
            txn_prefix="G" if groups == 1 else f"g{group}G",
            local_txn_prefix="L" if groups == 1 else f"g{group}L",
        )
        gen = WorkloadGenerator(cfg)
        site_protocols.extend(zip(cfg.site_names, E4_PROTOCOLS))
        for index, program in enumerate(gen.global_batch(3 * per_mpl)):
            global_programs.append((program, (index // per_mpl) * 40.0))
    return SimulationJob(
        site_protocols=tuple(site_protocols),
        scheme=scheme,
        config=SimulationConfig(),
        seed=seed,
        global_programs=tuple(global_programs),
    )


def _run_e4_cell(spec: Dict[str, Any]):
    """One E4 throughput cell, executed on the spec's transport and
    verified against ground truth (the merged schedules, for a sharded
    run)."""
    from repro.transport import make_transport

    job = make_e4_job(
        spec["scheme"], spec["mpl"], spec["seed"], groups=spec["groups"]
    )
    result = make_transport(spec["transport"], workers=spec["workers"]).run(job)
    if not result.verification.ok:
        raise RuntimeError(
            f"E4 cell {spec!r} failed verification "
            f"(cycle {result.verification.cycle})"
        )
    return result


def _run_chaos_cell(spec: Dict[str, Any], **options: Any):
    """One seeded 2PC chaos storm under the spec's scheme, all of its
    ground-truth verdicts required."""
    from repro.faults.chaos import ChaosOptions, run_chaos

    result = run_chaos(
        ChaosOptions(scheme=spec["scheme"], atomic_commit=True, **options),
        spec["seed"],
    )
    if not result.ok:
        raise RuntimeError(
            f"{spec['experiment']} cell {spec!r} failed: "
            f"{result.failure_reasons()}"
        )
    return result


def _run_e11_cell(spec: Dict[str, Any]):
    """One E11 cell: the chaos run with presumed-abort 2PC enabled
    (benchmarks/test_bench_atomic_commit.py); ``mpl`` selects nothing —
    the chaos workload is fixed — but stays in the key for uniformity."""
    return _run_chaos_cell(spec, prepare_crash_count=1, site_crash_count=1)


def _run_e13_cell(spec: Dict[str, Any]):
    """One E13 commit-group cell: the acceptance scenario — a
    coordinator(-replica) crash lands between the YES votes and the
    decision broadcast — head-to-head across commit-group sizes.
    ``mpl`` is reused as the group size (cf. E11's fixed workload):
    size 1 is the blocking single-coordinator baseline whose in-doubt
    window runs until the replica restarts; size 3 terminates through
    the surviving quorum in about one round-trip.  ``indoubt_max`` in
    the emitted cell is the head-to-head number."""
    return _run_chaos_cell(
        spec,
        # isolate the decision-log faults: message faults and site/GTM
        # crashes inflate in-doubt windows identically for every group
        # size and would drown the head-to-head signal
        loss_rate=0.0,
        duplication_rate=0.0,
        delay_rate=0.0,
        gtm_crash_count=0,
        site_crash_count=0,
        commit_group_size=spec["mpl"],
        coordinator_crash_count=1,
        vote_decide_partition_count=1,
        downtime=300.0,
    )


def run_grid(
    specs: Sequence[Dict[str, Any]],
    workers: int = 1,
) -> List[Dict[str, Any]]:
    """Run every cell; with ``workers > 1`` fan out across processes.

    Results are merged in the order of *specs* regardless of worker
    completion order, and every cell is deterministic in its spec, so
    the output is identical for any worker count.
    """
    if workers <= 1 or len(specs) <= 1:
        return [run_cell(spec) for spec in specs]
    with multiprocessing.Pool(processes=workers) as pool:
        return pool.map(run_cell, list(specs))


def emit_json(
    results: Iterable[Dict[str, Any]],
    path: str,
    meta: Optional[Dict[str, Any]] = None,
) -> None:
    payload = {"meta": meta or {}, "cells": list(results)}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_json(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def results_to_registry(results: Iterable[Dict[str, Any]], registry=None):
    """Aggregate a grid's cells into one unified metrics registry
    (``bench.*`` totals plus the ``gtm.*`` scheduling-cost counters),
    ready for a Prometheus-style dump via ``--metrics-out``."""
    from repro.observability.registry import MetricsRegistry

    out = registry if registry is not None else MetricsRegistry()
    for cell in results:
        out.counter("bench.cells").inc()
        out.counter(f"{cell['scheme']}.cells").inc()
        for name, (_, metric) in CELL_FIELDS.items():
            if metric is not None and name in cell:
                out.counter(metric).inc(cell[name])
    return out


#: A cell's identity.  transport and groups are part of it: a parallel
#: cell and a sim cell (or grouped vs classic workloads) are different
#: measurements and must never gate each other.  workers is NOT — results
#: are worker-count-invariant by construction.
CELL_KEY = ("experiment", "scheme", "mpl", "seed", "transport", "groups")


def _cell_key(cell: Dict[str, Any]) -> Tuple[Any, ...]:
    return tuple(cell[name] for name in CELL_KEY)


def check_regression(
    current: Iterable[Dict[str, Any]],
    baseline: Iterable[Dict[str, Any]],
) -> List[str]:
    """The exact gate: every cell the two runs share (by
    :func:`_cell_key`) must agree on every :data:`CELL_FIELDS` field
    present in both.  A cell absent from the baseline is skipped (a grid
    may grow), but sharing no cell at all is a failure — a gate that
    compares nothing must not pass.  Returns the failure descriptions,
    each naming cell, field and both values (empty = gate passes)."""
    reference = {_cell_key(cell): cell for cell in baseline}
    failures: List[str] = []
    shared = 0
    for cell in current:
        expected = reference.get(_cell_key(cell))
        if expected is None:
            continue
        shared += 1
        label = " ".join(f"{name}={cell[name]}" for name in CELL_KEY)
        failures += [
            f"{label}: {name} {cell[name]!r} != baseline {expected[name]!r}"
            for name in CELL_FIELDS
            if name in cell and name in expected and cell[name] != expected[name]
        ]
    if not shared:
        failures.append(
            "no cell shared between the current run and the baseline"
        )
    return failures


def check_dominance(
    cells: Iterable[Dict[str, Any]],
    challenger: str = "scheme4",
    incumbent: str = "scheme2",
    mpl_values: Sequence[int] = E14_MPL,
    experiment: str = "E14",
) -> List[str]:
    """The ROADMAP item 1 dominance gate, over one run's cells.

    For every (*mpl* ∈ *mpl_values*, seed) pair present for both schemes,
    the *challenger*'s mean WAIT-set size must be **strictly** below the
    *incumbent*'s.  Cells only exist for runs that passed ground-
    truth verification (:func:`_run_e4_cell` raises otherwise), so a
    compared pair always carries identical verification verdicts.
    Returns failure descriptions; an empty list means dominance holds,
    and a grid with no comparable pair at some *mpl* fails — a gate that
    compares nothing must not pass."""
    indexed = {_cell_key(cell): cell for cell in cells}
    failures: List[str] = []
    for mpl in mpl_values:
        compared = 0
        for key, reference in sorted(
            (k, c)
            for k, c in indexed.items()
            if k[0] == experiment and k[1] == incumbent and k[2] == mpl
        ):
            rival_key = (experiment, challenger) + key[2:]
            rival = indexed.get(rival_key)
            if rival is None:
                continue
            compared += 1
            seed = reference["seed"]
            if not rival["mean_wait_set"] < reference["mean_wait_set"]:
                failures.append(
                    f"{challenger}@mpl={mpl} seed={seed}: mean WAIT-set "
                    f"size {rival['mean_wait_set']:.3f} not strictly "
                    f"below {incumbent}'s "
                    f"{reference['mean_wait_set']:.3f}"
                )
        if compared == 0:
            failures.append(
                f"no comparable {experiment} {challenger}/{incumbent} "
                f"pairs at mpl={mpl}"
            )
    return failures
