"""Measuring: timed rounds, the fresh-interpreter and call-count passes,
the traced sweeps, and the metrics computed from them.

Estimator (README, "Estimator"): a job's wall is the *minimum* over
rounds, jobs are interleaved round-robin so every job samples the same
machine phases, and the round medians and quartiles are kept beside the
minimum so ``compare`` can tell a resolved difference from noise.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perf import ROOT
from perf.shims import TARGETS, Recorder, Span, self_times
from perf.workloads import (
    ALL_SCHEMES,
    PROTOCOLS,
    Job,
    Outcome,
    attr,
    outcome_of,
    run_job,
)

Metric = Dict[str, Any]


class IncorrectRun(Exception):
    """A job's correctness verdict failed, or its seed-deterministic
    numbers changed between rounds."""


def metric(value: Optional[float], unit: str, better: str, **extra: Any) -> Metric:
    return {"value": value, "unit": unit, "better": better, **extra}


# ----------------------------------------------------------------------
# timed rounds (tracing off)
# ----------------------------------------------------------------------
def signature(outcome: Outcome) -> tuple:
    return (
        outcome.commits, outcome.failed, outcome.aborts, outcome.duration,
        outcome.wait_area, outcome.wait_samples, outcome.responses,
    )


def timed_job(job: Job) -> Tuple[float, Any]:
    gc.collect()  # the previous job's garbage is not this job's cost
    started = time.perf_counter()
    raw = run_job(job)
    return time.perf_counter() - started, raw


class Rounds:
    """Timed rounds over a fixed job list: every job once per round,
    round-robin, so all jobs sample the same machine phases.  The
    warm-up — the first job of each (workload, scheme) — is run at
    construction, inside the measured window and outside the statistics.
    Outcomes must be identical every round (:class:`IncorrectRun`)."""

    def __init__(self, jobs: Sequence[Job]) -> None:
        self.jobs = list(jobs)
        #: per job, one wall per round
        self.walls: List[List[float]] = [[] for _ in jobs]
        self.outcomes: List[Optional[Outcome]] = [None] * len(self.jobs)
        #: per job, the best round's shard numbers (transport jobs)
        self.dispatch: List[Dict[str, float]] = [{} for _ in jobs]
        self.done = 0
        warmed = set()
        for job in self.jobs:
            if (job.workload, job.scheme) not in warmed:
                warmed.add((job.workload, job.scheme))
                run_job(job)

    def run_round(self) -> None:
        for index, job in enumerate(self.jobs):
            wall, raw = timed_job(job)
            outcome = outcome_of(job, raw)
            if not outcome.ok:
                raise IncorrectRun(f"{job.label}: {outcome.why}")
            first = self.outcomes[index]
            if first is None:
                self.outcomes[index] = outcome
            elif signature(first) != signature(outcome):
                raise IncorrectRun(f"{job.label}: result changed between rounds")
            if not self.walls[index] or wall < min(self.walls[index]):
                shard_walls = attr(raw, "shard_wall_s", ())
                self.dispatch[index] = {
                    "shards": attr(raw, "shards", 0),
                    "cpu_s": attr(raw, "cpu_s", 0.0),
                    "shard_wall_max": max(shard_walls, default=0.0),
                    "shard_wall_mean": (
                        statistics.fmean(shard_walls) if shard_walls else 0.0
                    ),
                }
            self.walls[index].append(wall)
        self.done += 1

    def run_until(self, deadline: float, after_round: Any = None) -> None:
        """Rounds (each followed by *after_round*, if given) until the next
        one would mostly fall past *deadline* (``time.perf_counter``); at
        least two."""
        spent = 0.0
        while self.done < 2 or time.perf_counter() + spent / 2 <= deadline:
            started = time.perf_counter()
            self.run_round()
            if after_round is not None:
                after_round()
            spent = time.perf_counter() - started

    def of(self, workload: str) -> Tuple[List[Job], List[List[float]], List[Outcome], List[Dict[str, float]]]:
        """The slices belonging to one workload."""
        keep = [i for i, job in enumerate(self.jobs) if job.workload == workload]
        return (
            [self.jobs[i] for i in keep],
            [self.walls[i] for i in keep],
            [self.outcomes[i] for i in keep],  # type: ignore[misc]
            [self.dispatch[i] for i in keep],
        )


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(0, min(len(ordered) - 1, int(fraction * len(ordered) + 0.5) - 1))
    return ordered[rank]


def end_to_end(
    walls: Sequence[Sequence[float]], outcomes: Sequence[Outcome]
) -> Dict[str, Metric]:
    """The end-to-end metrics of one workload's sweep.  ``exact`` ones are
    functions of the seed alone and must repeat bit for bit."""
    commits = sum(o.commits for o in outcomes)
    aborts = sum(o.aborts for o in outcomes)
    submitted = sum(o.submitted for o in outcomes)
    rounds = len(walls[0])
    per_round = sorted(
        sum(job_walls[r] for job_walls in walls) / commits * 1e6
        for r in range(rounds)
    )
    quartiles = (
        statistics.quantiles(per_round, n=4)
        if rounds >= 2
        else [per_round[0]] * 3
    )
    metrics: Dict[str, Metric] = {
        "wall_us_per_commit": metric(
            sum(min(job_walls) for job_walls in walls) / commits * 1e6,
            "us", "lower", exact=False, rounds=rounds,
            median=quartiles[1], q1=quartiles[0], q3=quartiles[2],
        ),
        "abort_ratio": metric(
            aborts / (commits + aborts), "ratio", "lower", exact=True
        ),
        "failed_share": metric(
            sum(o.failed for o in outcomes) / submitted,
            "ratio", "lower", exact=True,
        ),
        "mean_wait_set": metric(
            sum(o.wait_area for o in outcomes)
            / max(1, sum(o.wait_samples for o in outcomes)),
            "ops", "lower", exact=True,
        ),
    }
    clocked = [o for o in outcomes if o.duration]
    if clocked:  # gtm2_trace has no clock: the sim_* metrics are omitted
        responses = sorted(r for o in clocked for r in o.responses)
        metrics["sim_commits_per_ktick"] = metric(
            1000.0 * sum(o.commits for o in clocked)
            / sum(o.duration for o in clocked),
            "1/ktu", "higher", exact=True,
        )
        metrics["sim_response_p50"] = metric(
            _percentile(responses, 0.50), "tu", "lower",
            exact=True, samples=len(responses),
        )
        metrics["sim_response_p95"] = metric(
            _percentile(responses, 0.95), "tu", "lower",
            exact=True, samples=len(responses),
        )
        in_doubt = [w for o in clocked for w in o.in_doubt]
        if in_doubt:
            metrics["sim_indoubt_max"] = metric(
                max(in_doubt), "tu", "lower", exact=True
            )
    return metrics


def exact_as_layers(metrics: Dict[str, Metric]) -> Dict[str, Metric]:
    """The exact end-to-end metrics under the names ``BENCHMARK.json``
    lists them by, per layer: they are not defined on every workload (no
    clock, no commit layer) or may be 0, which its end-to-end list may
    not hold."""
    return {
        "sim." + name.removeprefix("sim_"): entry
        for name, entry in metrics.items()
        if entry["exact"]
    }


# ----------------------------------------------------------------------
# fresh-interpreter passes: set-up time, peak RSS, call count
# ----------------------------------------------------------------------
def _peak_rss_kb() -> int:
    """This process's peak resident set.  ``ru_maxrss`` survives exec —
    a freshly spawned child starts at its parent's peak — so prefer the
    per-address-space high-water mark where the kernel offers it."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def fresh_child(workload: str, seed: int, do: str, part: str) -> None:
    """Body of ``python -m perf fresh``: build the workload's jobs in this
    new interpreter, report when that was done, then optionally run a
    job per scheme (``do="sweep"``: peak RSS) or profile a share of the sweep
    (``do="calls"``: cProfile call count)."""
    from perf.workloads import build_jobs

    jobs = build_jobs(workload, seed)
    report: Dict[str, Any] = {"ready_at": time.time()}
    if do == "sweep":
        schemes = len({job.scheme for job in jobs})
        for job in jobs[:schemes]:
            run_job(job)
        report["maxrss_kb"] = _peak_rss_kb()
    elif do == "calls":
        index, _, parts = part.partition("/")
        profiler = cProfile.Profile()
        profiler.enable()
        for job in jobs[int(index) :: int(parts)]:
            run_job(job)
        profiler.disable()
        report["calls"] = sum(entry.callcount for entry in profiler.getstats())
    print(json.dumps(report))


def _fresh(workload: str, seed: int, passes: Sequence[Tuple[str, str]]) -> List[Dict[str, Any]]:
    """Run ``python -m perf fresh`` once per (do, part) in *passes*, all at
    the same time, and return their reports, each with the ``setup_s`` from
    launch to jobs built.  No child outlives this call."""
    children = []
    try:
        for do, part in passes:
            command = [
                sys.executable, "-m", "perf", "fresh", "--workload", workload,
                "--seed", str(seed), "--do", do, "--part", part,
            ]
            started = time.time()
            children.append((started, subprocess.Popen(
                command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONHASHSEED": "0"},
            )))
        reports = []
        for started, process in children:
            out, _ = process.communicate(timeout=170)
            if process.returncode != 0:
                raise RuntimeError(f"fresh interpreter exited {process.returncode}")
            report = json.loads(out.strip().splitlines()[-1])
            report["setup_s"] = report["ready_at"] - started
            reports.append(report)
        return reports
    finally:
        for _started, process in children:
            if process.poll() is None:
                process.kill()
            process.wait()


def fresh_setup(workload: str, seed: int) -> float:
    """One set-up timing: launch of a fresh interpreter -> jobs built."""
    return _fresh(workload, seed, [("setup", "0/1")])[0]["setup_s"]


def setup_and_rss(
    workload: str, seed: int, setups: Sequence[float] = (), launches: int = 9
) -> Dict[str, Metric]:
    """``setup_s``: the median of three set-up timings, each the fastest of
    a third of the fresh interpreters launched one at a time (the timings
    are interleaved, so a slow second on this host costs each of them one
    launch, not one of them all its launches).  *setups* are the launches
    already timed (``bench`` makes one between every two rounds, so they
    sample the whole run); they are topped up to *launches*.  The last
    interpreter also runs the first job of each scheme and reports
    ``peak_rss_mb``."""
    setups = list(setups)
    while len(setups) < launches - 1:
        setups.append(fresh_setup(workload, seed))
    last = _fresh(workload, seed, [("sweep", "0/1")])[0]
    setups.append(last["setup_s"])
    return {
        "setup_s": metric(
            statistics.median(min(setups[timing::3]) for timing in range(3)),
            "s", "lower", exact=False, launches=len(setups), best=min(setups),
        ),
        "peak_rss_mb": metric(
            last["maxrss_kb"] / 1024.0, "MB", "lower", exact=False
        ),
    }


def call_count(workload: str, seed: int, commits: int) -> Dict[str, Metric]:
    """``pycalls_per_commit``: the sweep under cProfile, split over one
    fresh interpreter per core (untimed, so they may share the machine)."""
    parts = min(2, os.cpu_count() or 1)
    reports = _fresh(
        workload, seed, [("calls", f"{index}/{parts}") for index in range(parts)]
    )
    return {
        "pycalls_per_commit": metric(
            sum(report["calls"] for report in reports) / commits,
            "calls", "lower", exact=True,
        )
    }


# ----------------------------------------------------------------------
# traced sweeps
# ----------------------------------------------------------------------
def traced_sweep(
    jobs: Sequence[Job], targets: Tuple[Tuple[str, str], ...] = TARGETS
) -> Dict[str, Any]:
    """One sweep with the timing shims installed.  Returns the spans,
    per-job traced walls, the instance counters the shims captured, and
    unresolved targets.  A job that has a pool run (``job.workers``) is
    first run that way, without shims, for the dispatch numbers."""
    counters = {
        "ops_processed": 0, "waits": 0, "wake_retries_skipped": 0,
        "steps": 0, "graph_ops": 0, "batches_planned": 0,
        "blocked": 0, "history_ops": 0,
    }
    job_walls: List[float] = []
    reports: List[Any] = []
    pool: Dict[int, Dict[str, float]] = {}
    for index, job in enumerate(jobs):
        if job.workers:
            gc.collect()
            started = time.perf_counter()
            raw = run_job(job, pool=True)
            pool[index] = {
                "wall": time.perf_counter() - started,
                "shard_wall_max": max(attr(raw, "shard_wall_s", ()), default=0.0),
            }
    with Recorder(targets) as recorder:
        for job in jobs:
            recorder.begin_job(job.label)
            gc.collect()
            started = time.perf_counter()
            raw = recorder.span(
                "job", lambda: run_job(job)
            )
            job_walls.append(time.perf_counter() - started)
            outcome = outcome_of(job, raw)
            if not outcome.ok:
                raise IncorrectRun(f"{job.label} (traced): {outcome.why}")
            reports.append(outcome.report)
            for scheme in recorder.captured["schemes"]:
                counted = scheme.metrics
                counters["ops_processed"] += counted.total_processed
                counters["waits"] += counted.total_waited
                counters["wake_retries_skipped"] += counted.wake_retries_skipped
                counters["steps"] += counted.steps
                counters["graph_ops"] += counted.graph_ops
                counters["batches_planned"] += counted.batches_planned
            for site in recorder.captured["sites"]:
                counters["blocked"] += site.blocked_count
                counters["history_ops"] += len(site.history)
    spans = recorder.finish()
    return {
        "spans": spans,
        **_aggregate(spans, {job.label: job.scheme for job in jobs}),
        "job_walls": job_walls,
        "pool": pool,
        "counters": counters,
        "granted": recorder.granted,
        "missing": recorder.missing,
        "warnings": recorder.warnings,
        "reports": reports,
    }


def _aggregate(spans: Sequence[Span], scheme_of: Dict[str, str]) -> Dict[str, Any]:
    """Per layer: self time, total time and calls; per scheme: the self
    time of its ``cond`` and ``act``."""
    self_by: Dict[str, float] = {}
    total_by: Dict[str, float] = {}
    calls_by: Dict[str, int] = {}
    scheme_busy: Dict[str, float] = {}
    for (layer, start, end, _parent, label), own in zip(spans, self_times(spans)):
        self_by[layer] = self_by.get(layer, 0.0) + own
        total_by[layer] = total_by.get(layer, 0.0) + (end - start)
        calls_by[layer] = calls_by.get(layer, 0) + 1
        if layer in ("core.scheme.cond", "core.scheme.act"):
            scheme = scheme_of[label]
            scheme_busy[scheme] = scheme_busy.get(scheme, 0.0) + own
    return {
        "self_by": self_by, "total_by": total_by, "calls_by": calls_by,
        "scheme_busy": scheme_busy,
    }


def add_sweep(sweeps: List[Dict[str, Any]], sweep: Dict[str, Any]) -> None:
    """Append *sweep*; only the newest keeps its spans (for the trace
    file) — the layer metrics need the aggregates alone."""
    for older in sweeps:
        older.pop("spans", None)
    sweeps.append(sweep)


def pickle_cost(jobs: Sequence[Job]) -> Tuple[int, float]:
    """Bytes and seconds of pickling what a pool moves: every shard job
    out, every shard outcome back (dumps + loads, timed here because the
    pool does it inside C)."""
    from repro.transport import run_shard, shard_jobs

    size, seconds = 0, 0.0
    for job in jobs:
        if not job.workers:
            continue
        shards = shard_jobs(job.payload)
        for item in shards + [run_shard(shard) for shard in shards]:
            started = time.perf_counter()
            blob = pickle.dumps(item)
            pickle.loads(blob)
            seconds += time.perf_counter() - started
            size += len(blob)
    return size, seconds


def layer_metrics(
    jobs: Sequence[Job],
    sweep: Dict[str, Any],
    walls: Sequence[Sequence[float]],
    dispatch: Sequence[Dict[str, float]],
    pickled: Tuple[int, float],
) -> Dict[str, Metric]:
    """The per-layer metrics of one traced sweep.  A ``*_share`` is a
    layer's span self time over the traced job wall, summed over the
    sweep; a layer whose shim target is gone reads ``None``."""
    self_by, total_by = sweep["self_by"], sweep["total_by"]
    calls_by, scheme_busy = sweep["calls_by"], sweep["scheme_busy"]
    traced_wall = total_by["job"]
    missing = set(sweep["missing"])
    counters = sweep["counters"]
    reports = [r for r in sweep["reports"] if r is not None]

    def share(*layers: str) -> Optional[float]:
        if all(layer in missing for layer in layers):
            return None
        return sum(
            value
            for name, value in self_by.items()
            if any(name == l or name.startswith(l + ".") for l in layers)
        ) / traced_wall

    def calls(layer: str) -> Optional[int]:
        if layer in missing:
            return None
        return sum(
            count
            for name, count in calls_by.items()
            if name == layer or name.startswith(layer + ".")
        )

    def captured(name: str, capture: str) -> Optional[int]:
        return None if f"capture:{capture}" in missing else counters[name]

    def reported(path: str) -> float:
        return sum(attr(report, path, 0) for report in reports)

    commits = reported("committed_global")
    aborts = reported("global_aborts")
    untraced = sum(min(job_walls) for job_walls in walls)
    verify_s = self_by.get("mdbs.verification", 0.0)
    history_ops = captured("history_ops", "sites")
    cond_calls = calls("core.scheme.cond")
    parallel = [d for job, d in zip(jobs, dispatch) if job.workers]
    pool = sweep["pool"].values()

    out: Dict[str, Metric] = {}

    def put(name: str, value: Optional[float], unit: str, better: str = "lower") -> None:
        out[name] = metric(value, unit, better)

    put("transport.build_share", share("transport.build"), "ratio")
    put("transport.extract_share", share("transport.extract"), "ratio")
    put("transport.merge_self_share", share("transport.merge"), "ratio")
    put("transport.split_s", total_by.get("transport.split", 0.0), "s")
    put("transport.pickle_bytes", pickled[0], "bytes")
    put("transport.pickle_s", pickled[1], "s")
    # the pool runs (job.workers worker processes), the only numbers here
    # that more than one process makes.  The overhead is as the issue
    # defines it: with more shards than workers it also holds the wait of
    # the shards that queue behind the first wave
    put(
        "transport.pool_wall_us_per_commit",
        sum(p["wall"] for p in pool) / commits * 1e6 if pool else 0.0,
        "us",
    )
    put(
        "transport.pool_overhead_s",
        sum(p["wall"] - p["shard_wall_max"] for p in pool)
        - (total_by.get("transport.merge", 0.0) if pool else 0.0),
        "s",
    )
    put("transport.shard_wall_max_s", sum(d["shard_wall_max"] for d in dispatch), "s")
    put(
        "transport.shard_skew",
        statistics.fmean(
            d["shard_wall_max"] / d["shard_wall_mean"] for d in parallel
        ) if parallel else 0.0,
        "ratio",
    )
    put("transport.cpu_s", sum(d["cpu_s"] for d in dispatch), "s")
    put(
        "transport.shards",
        statistics.fmean(d["shards"] for d in dispatch), "count", "higher",
    )
    put("mdbs.events.self_share", share("mdbs.events"), "ratio")
    put("mdbs.events.executed", reported("events_executed"), "count")
    put(
        "mdbs.events.events_per_sec",
        reported("events_executed") / untraced, "1/s", "higher",
    )
    put("mdbs.server.submit_share", share("mdbs.server"), "ratio")
    put("mdbs.server.submits", calls("mdbs.server"), "count")
    put("mdbs.simulator.watchdog_aborts", reported("watchdog_aborts"), "count")
    put("mdbs.simulator.global_aborts", aborts, "count")
    put(
        "mdbs.simulator.commits_per_incarnation",
        commits / (commits + aborts) if commits else 0.0, "ratio", "higher",
    )
    put("core.gtm.site_components_share", share("core.gtm.site_components"), "ratio")
    put("core.engine.self_share", share("core.engine"), "ratio")
    put("core.engine.ops_processed", captured("ops_processed", "schemes"), "count")
    put("core.engine.waits", captured("waits", "schemes"), "count")
    put(
        "core.engine.wake_retries_skipped",
        captured("wake_retries_skipped", "schemes"), "count", "higher",
    )
    put("core.scheme.cond_share", share("core.scheme.cond"), "ratio")
    put("core.scheme.act_share", share("core.scheme.act"), "ratio")
    put("core.scheme.cond_calls", cond_calls, "count")
    put(
        "core.scheme.grant_ratio",
        sweep["granted"] / cond_calls if cond_calls else None,
        "ratio", "higher",
    )
    put("core.scheme.steps", captured("steps", "schemes"), "count")
    put("core.scheme.graph_ops", captured("graph_ops", "schemes"), "count")
    for scheme in ALL_SCHEMES:
        put(
            f"core.{scheme}.busy_share",
            None if cond_calls is None
            else scheme_busy.get(scheme, 0.0) / traced_wall,
            "ratio",
        )
    put("core.scheme4.batches_planned", captured("batches_planned", "schemes"), "count")
    put("lmdbs.submit_share", share("lmdbs"), "ratio")
    put("lmdbs.submits", calls("lmdbs"), "count")
    put("lmdbs.blocked", captured("blocked", "sites"), "count")
    put("lmdbs.local_aborts", reported("local_aborts"), "count")
    for protocol in PROTOCOLS:
        put(f"lmdbs.{protocol}.submit_share", share(f"lmdbs.{protocol}"), "ratio")
    put("commit.busy_share", share("commit"), "ratio")
    put("commit.commit_decisions", reported("commit_stats.commit_decisions"), "count")
    put("commit.abort_decisions", reported("commit_stats.abort_decisions"), "count")
    put("commit.termination_rounds", reported("commit_stats.termination_rounds"), "count")
    for name in ("messages_sent", "messages_dropped", "retries", "timeouts", "give_ups"):
        put(f"faults.{name}", reported(f"fault_stats.{name}"), "count")
    put("core.recovery.recover_share", share("core.recovery"), "ratio")
    put("mdbs.verification.verify_share", share("mdbs.verification"), "ratio")
    put("mdbs.verification.ops_checked", history_ops, "count")
    put(
        "mdbs.verification.us_per_op",
        None if "mdbs.verification" in missing
        else verify_s / history_ops * 1e6 if history_ops else 0.0,
        "us",
    )
    put("observability.export_share", share("observability"), "ratio")
    put(
        "harness.attributed_share",
        1.0 - self_by["job"] / traced_wall, "ratio", "higher",
    )
    return out


def layers_of(
    jobs: Sequence[Job],
    sweeps: Sequence[Dict[str, Any]],
    walls: Sequence[Sequence[float]],
    dispatch: Sequence[Dict[str, float]],
) -> Dict[str, Metric]:
    """Per-layer metrics of a workload: per metric the median over the
    traced sweeps (``None`` if any sweep could not resolve it), plus the
    harness's own ratios, which compare like with like — best traced
    wall against best untraced wall, job by job."""
    pickled = pickle_cost(jobs)
    samples = [
        layer_metrics(jobs, sweep, walls, dispatch, pickled) for sweep in sweeps
    ]
    merged: Dict[str, Metric] = {}
    for name, first in samples[0].items():
        values = [sample[name]["value"] for sample in samples]
        merged[name] = {
            **first,
            "value": None if None in values else statistics.median(values),
            "sweeps": len(samples),
        }
    # the untraced rounds the traced sweeps rode between: as many samples
    # on both sides, from the same stretch of time
    untraced = sum(
        min(walls[index][: len(sweeps)]) for index in range(len(jobs))
    )
    traced = sum(
        min(sweep["job_walls"][index] for sweep in sweeps)
        for index in range(len(jobs))
    )
    round_totals = sorted(
        sum(job_walls[r] for job_walls in walls) for r in range(len(walls[0]))
    )
    merged["harness.trace_overhead_ratio"] = metric(
        traced / untraced, "ratio", "lower"
    )
    merged["harness.noise_ratio"] = metric(
        statistics.median(round_totals) / round_totals[0], "ratio", "lower"
    )
    return merged


def write_trace(path: Any, spans: Sequence[Span]) -> None:
    """One JSON array per span: name, start, end, parent index, job."""
    with open(path, "w") as handle:
        for layer, start, end, parent, job in spans:
            handle.write(
                f'["{layer}",{start!r},{end!r},{parent},"{job}"]\n'
            )
