"""The perf-trajectory bench harness (``repro bench``).

Runs the E4 throughput grid (and optionally the E11 atomic-commit or
E13 commit-group variants) as independent *cells* — one per
(experiment, scheme, mpl, seed) — and persists the results as a
``BENCH_<n>.json`` trajectory file.  Each cell is seed-deterministic and self-contained, so the grid
can be fanned across ``multiprocessing`` workers and merged back in
fixed task order: the parallel run emits byte-identical results to the
serial one (asserted by tests/test_bench_runner.py).

CI guards against throughput regressions with :func:`check_regression`,
which compares a fresh run against the committed baseline on the cells
they share.

Simulated throughput is deterministic for a given cell spec, so the
regression gate tolerates *zero* drift on identical code — the
threshold exists to absorb intentional scheduling changes reviewed via
baseline refresh, not noise.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: site protocols of the E4 grid (benchmarks/test_bench_throughput.py)
E4_PROTOCOLS = ("strict-2pl", "to", "conservative-2pl", "sgt")
DEFAULT_SCHEMES = ("scheme0", "scheme1", "scheme2", "scheme3", "scheme4")
DEFAULT_MPL = (4, 8, 16)
DEFAULT_SEEDS = (7, 8, 9, 10)
#: multiprogramming levels of the E14 degree-of-concurrency cells: the
#: regime where batch planning (scheme4) must dominate Scheme 2
E14_MPL = (32, 64)


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
    started = time.perf_counter()
    transport_result = None
    if spec["experiment"] == "E11":
        chaos = _run_e11_cell(spec)
        report, wall_s = chaos.report, chaos.wall_s
    elif spec["experiment"] == "E13":
        chaos = _run_e13_cell(spec)
        report, wall_s = chaos.report, chaos.wall_s
    else:
        # E4 (throughput) and E14 (degree of concurrency) share the
        # workload and the runner; E14 differs only in the gated
        # statistics (mean WAIT-set size, aggregate events/sec) and
        # its high-MPL grid (see E14_MPL / check_dominance)
        transport_result = _run_e4_cell(spec)
        report = transport_result.report
        # measured inside this worker by the transport, covering the
        # dispatch, the run(s), and the merged verification
        wall_s = transport_result.wall_s
    if wall_s <= 0:
        wall_s = time.perf_counter() - started
    result = dict(spec)
    result.update(
        throughput=report.throughput,
        mean_response_time=report.mean_response_time,
        committed=report.committed_global,
        duration=report.duration,
        events=report.events_executed,
        events_per_sec=(
            report.events_executed / wall_s if wall_s > 0 else 0.0
        ),
        wall_s=wall_s,
        scheme_steps=report.scheme_steps,
        graph_ops=report.graph_ops,
        dfs_steps_avoided=report.dfs_steps_avoided,
        wake_retries_skipped=report.wake_retries_skipped,
        indoubt_max=max(report.in_doubt_times or (0.0,)),
        wait_area=report.wait_area,
        wait_samples=report.wait_samples,
        mean_wait_set=report.mean_wait_set,
    )
    if transport_result is not None:
        result.update(
            shards=transport_result.shards,
            cpu_s=transport_result.cpu_s,
            critical_path_s=transport_result.critical_path_s,
            agg_events_per_sec=transport_result.agg_events_per_sec,
        )
    return result


def make_e4_job(
    scheme: str, mpl: int, seed: int, groups: int = 1
):
    """The E4 workload as a transport job.

    ``groups=1`` is the classic cell of
    benchmarks/test_bench_throughput.py: four heterogeneous-protocol
    sites, ``3*mpl`` global transactions admitted in three MPL-sized
    waves.  ``groups>1`` replicates that shape into ``groups``
    independent 4-site clusters with distinct site/transaction prefixes
    (site-disjoint by construction, so the parallel transport shards it
    ``groups`` ways); ``mpl`` is the *total* multiprogramming level and
    each group gets ``mpl // groups`` of it, seeded per group so the
    groups run distinct workloads.
    """
    from repro.mdbs import SimulationConfig
    from repro.transport import SimulationJob
    from repro.workloads import WorkloadConfig, WorkloadGenerator

    site_protocols: List[Any] = []
    global_programs: List[Any] = []
    per_mpl = max(1, mpl // groups)
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
        spec["scheme"],
        spec["mpl"],
        spec["seed"],
        groups=spec.get("groups", 1),
    )
    transport = make_transport(
        spec.get("transport", "sim"), workers=spec.get("workers", 1)
    )
    result = transport.run(job)
    if not result.verification.ok:
        raise RuntimeError(
            f"E4 cell {spec!r} failed verification "
            f"(cycle {result.verification.cycle})"
        )
    return result


def _run_e11_cell(spec: Dict[str, Any]):
    """One E11 cell: the chaos run with presumed-abort 2PC enabled
    (benchmarks/test_bench_atomic_commit.py); ``mpl`` selects nothing —
    the chaos workload is fixed — but stays in the key for uniformity."""
    from repro.faults.chaos import ChaosOptions, run_chaos

    options = ChaosOptions(
        scheme=spec["scheme"],
        atomic_commit=True,
        prepare_crash_count=1,
        site_crash_count=1,
    )
    result = run_chaos(options, spec["seed"])
    if not result.ok:
        raise RuntimeError(
            f"E11 cell {spec!r} failed: {result.failure_reasons()}"
        )
    return result


def _run_e13_cell(spec: Dict[str, Any]):
    """One E13 commit-group cell: the acceptance scenario — a
    coordinator(-replica) crash lands between the YES votes and the
    decision broadcast — head-to-head across commit-group sizes.
    ``mpl`` is reused as the group size (cf. E11's fixed workload):
    size 1 is the blocking single-coordinator baseline whose in-doubt
    window runs until the replica restarts; size 3 terminates through
    the surviving quorum in about one round-trip.  ``indoubt_max`` in
    the emitted cell is the head-to-head number."""
    from repro.faults.chaos import ChaosOptions, run_chaos

    options = ChaosOptions(
        scheme=spec["scheme"],
        atomic_commit=True,
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
    result = run_chaos(options, spec["seed"])
    if not result.ok:
        raise RuntimeError(
            f"E13 cell {spec!r} failed: {result.failure_reasons()}"
        )
    return result


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
    from repro.observability.registry import DEFAULT_BUCKETS, MetricsRegistry

    out = registry if registry is not None else MetricsRegistry()
    wall = out.histogram("bench.wall_s", DEFAULT_BUCKETS)
    for cell in results:
        out.counter("bench.cells").inc()
        out.counter("bench.committed").inc(cell["committed"])
        out.counter("bench.events").inc(cell["events"])
        out.counter("gtm.steps").inc(cell["scheme_steps"])
        out.counter("gtm.graph_ops").inc(cell["graph_ops"])
        out.counter("gtm.dfs_steps_avoided").inc(cell["dfs_steps_avoided"])
        out.counter("gtm.wake_retries_skipped").inc(
            cell["wake_retries_skipped"]
        )
        out.counter("gtm.wait_area").inc(int(cell.get("wait_area", 0)))
        out.counter("gtm.wait_samples").inc(
            int(cell.get("wait_samples", 0))
        )
        out.counter(f"{cell['scheme']}.cells").inc()
        out.counter("transport.shards").inc(int(cell.get("shards", 1)))
        wall.observe(cell["wall_s"])
    return out


def _cell_key(cell: Dict[str, Any]):
    # transport and groups are part of the identity: a parallel cell and
    # a sim cell (or grouped vs classic workloads) are different
    # measurements and must never gate each other.  workers is NOT in
    # the key — results are worker-count-invariant by construction, only
    # wall-clock changes.  The .get defaults keep cells from
    # pre-transport trajectory files comparable.
    return (
        cell.get("experiment", "E4"),
        cell["scheme"],
        cell["mpl"],
        cell["seed"],
        cell.get("transport", "sim"),
        int(cell.get("groups", 1)),
    )


def check_regression(
    current: Iterable[Dict[str, Any]],
    baseline: Iterable[Dict[str, Any]],
    threshold: float = 0.2,
    schemes: Sequence[str] = ("scheme3",),
    mpl: int = 16,
    experiment: str = "E4",
) -> List[str]:
    """Compare throughput against the committed baseline.

    Looks at the cells of (*experiment*, scheme ∈ *schemes*, *mpl*)
    present in both runs; a cell whose throughput fell more than
    *threshold* (fractional) below the baseline is a failure, and so is
    a gated scheme with no comparable cells at all — a gate that
    silently compares nothing must not pass.  Returns the list of
    failure descriptions (empty = gate passes).

    ``BENCH_3.json`` also carries a historical before-column — cells
    recorded with the since-deleted legacy algorithms, equal to their
    twins in every key field.  The filter below drops them so they can
    never stand in for their twins."""
    baseline_map = {
        _cell_key(cell): cell
        for cell in baseline
        if cell.get("fast_paths", True)
    }
    failures: List[str] = []
    compared = {scheme: 0 for scheme in schemes}
    for cell in current:
        key = _cell_key(cell)
        scheme = key[1]
        if (
            key[0] != experiment
            or scheme not in compared
            or key[2] != mpl
        ):
            continue
        reference = baseline_map.get(key)
        if reference is None:
            continue
        compared[scheme] += 1
        floor = reference["throughput"] * (1.0 - threshold)
        if cell["throughput"] < floor:
            failures.append(
                f"{scheme}@mpl={mpl} seed={cell['seed']}: throughput "
                f"{cell['throughput']:.6f} fell below "
                f"{floor:.6f} (baseline {reference['throughput']:.6f}, "
                f"threshold {threshold:.0%})"
            )
    for scheme, count in compared.items():
        if count == 0:
            failures.append(
                f"no comparable {experiment} {scheme}@mpl={mpl} cells "
                "between current run and baseline"
            )
    return failures


def check_dominance(
    cells: Iterable[Dict[str, Any]],
    challenger: str = "scheme4",
    incumbent: str = "scheme2",
    mpl_values: Sequence[int] = E14_MPL,
    experiment: str = "E14",
    require_events_per_sec: bool = False,
) -> List[str]:
    """The ROADMAP item 1 dominance gate, over one run's cells.

    For every (*mpl* ∈ *mpl_values*, seed) pair present for both schemes,
    the *challenger*'s mean WAIT-set size must be **strictly** below the
    *incumbent*'s; with ``require_events_per_sec`` the challenger's
    aggregate events/sec must also be at least the incumbent's (a
    wall-clock measure — gate it when recording trajectory files, not on
    shared CI runners).  Cells only exist for runs that passed ground-
    truth verification (:func:`_run_e4_cell` raises otherwise), so a
    compared pair always carries identical verification verdicts.
    Returns failure descriptions; an empty list means dominance holds,
    and a grid with no comparable pair at some *mpl* fails — a gate that
    compares nothing must not pass."""
    indexed: Dict[Any, Dict[str, Any]] = {}
    for cell in cells:
        indexed[_cell_key(cell)] = cell
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
            if require_events_per_sec:
                rival_rate = rival.get(
                    "agg_events_per_sec", rival["events_per_sec"]
                )
                reference_rate = reference.get(
                    "agg_events_per_sec", reference["events_per_sec"]
                )
                if rival_rate < reference_rate:
                    failures.append(
                        f"{challenger}@mpl={mpl} seed={seed}: "
                        f"{rival_rate:.1f} events/sec below "
                        f"{incumbent}'s {reference_rate:.1f}"
                    )
        if compared == 0:
            failures.append(
                f"no comparable {experiment} {challenger}/{incumbent} "
                f"pairs at mpl={mpl}"
            )
    return failures
