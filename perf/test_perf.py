"""The harness checks itself: ``python -m perf selftest``, or
``pytest perf/test_perf.py`` (outside tier-1's ``testpaths``)."""

from __future__ import annotations

import cProfile
import dataclasses
import functools
import json
import sys
import traceback
import unittest
from typing import Any, Dict, List, Tuple

from perf import ROOT, locate_program

locate_program()

from perf import measure  # noqa: E402
from perf.compare import verdict  # noqa: E402
from perf.shims import TARGETS, self_times  # noqa: E402
from perf.workloads import (  # noqa: E402
    WORKLOADS,
    build_jobs,
    contended_job,
    outcome_of,
    run_job,
)

SEED = 7


def _exact(workload: str, seed: int) -> Dict[str, Any]:
    """The seed-deterministic end-to-end metrics of one quick sweep."""
    jobs = build_jobs(workload, seed, quick=True)
    outcomes = [outcome_of(job, run_job(job)) for job in jobs]
    metrics = measure.end_to_end([[1.0]] * len(jobs), outcomes)
    return {
        name: (entry["value"], entry.get("samples"))
        for name, entry in metrics.items()
        if entry["exact"]
    }


def test_exact_metrics_repeat_and_follow_the_seed() -> None:
    for workload in WORKLOADS:
        first = _exact(workload, SEED)
        assert first == _exact(workload, SEED), f"{workload}: sweeps differ"
        assert first != _exact(workload, SEED + 1), f"{workload}: seed ignored"


def test_contended_is_the_e14_cell() -> None:
    try:
        from repro.analysis.bench import make_e4_job
    except ImportError:
        raise unittest.SkipTest(
            "repro.analysis.bench.make_e4_job is gone: the contended job "
            "can no longer be checked against it"
        )
    for scheme in ("scheme0", "scheme3"):
        ours = contended_job(scheme, SEED).payload
        theirs = make_e4_job(scheme, 32, SEED)
        for field in dataclasses.fields(theirs):
            mine, other = getattr(ours, field.name), getattr(theirs, field.name)
            if field.name == "config":
                # the one deliberate difference (see contended_job)
                mine = dataclasses.replace(mine, max_restarts=other.max_restarts)
            assert mine == other, f"{scheme}: field {field.name} differs"


@functools.lru_cache(maxsize=None)
def _traced(workload: str) -> Tuple[Any, ...]:
    """One untraced round and one traced sweep of the full-size workload."""
    jobs = build_jobs(workload, SEED)
    rounds = measure.Rounds(jobs)
    rounds.run_round()
    sweep = measure.traced_sweep(jobs)
    layers = measure.layers_of(jobs, [sweep], rounds.walls, rounds.dispatch)
    return rounds, sweep, {name: entry["value"] for name, entry in layers.items()}


def test_span_trees_are_well_formed() -> None:
    _rounds, sweep, layers = _traced("steady")
    spans = sweep["spans"]
    assert not sweep["missing"], sweep["missing"]
    for layer, start, end, parent, job in spans:
        assert end >= start
        if parent < 0:
            assert layer == "job"
            continue
        _, parent_start, parent_end, _, parent_job = spans[parent]
        assert parent_start <= start and end <= parent_end, "child outside parent"
        assert parent_job == job
    assert min(self_times(spans)) >= -1e-9
    assert layers["harness.attributed_share"] >= 0.9


def test_tracing_changes_no_decision() -> None:
    for workload in WORKLOADS:
        rounds, sweep, _layers = _traced(workload)
        for outcome, report in zip(rounds.outcomes, sweep["reports"]):
            if report is None:
                continue
            for field in ("events_executed", "global_aborts", "duration", "wait_area"):
                assert getattr(outcome.report, field) == getattr(report, field), (
                    f"{workload}: {field} differs under tracing"
                )


def _calls_and_result(job: Any) -> Tuple[int, Any]:
    profiler = cProfile.Profile()
    profiler.enable()
    raw = run_job(job)
    profiler.disable()
    calls = sum(entry.callcount for entry in profiler.getstats())
    return calls, measure.signature(outcome_of(job, raw))


def test_shims_are_removed_after_the_traced_sweep() -> None:
    jobs = [build_jobs(name, SEED, quick=True)[0] for name in ("steady", "faulty")]
    before = [_calls_and_result(job) for job in jobs]
    measure.traced_sweep(jobs)
    assert [_calls_and_result(job) for job in jobs] == before


def test_a_vanished_shim_target_reads_null() -> None:
    jobs = build_jobs("faulty", SEED, quick=True)[:1]
    targets = tuple(
        (layer, target + "_gone" if layer == "commit" else target)
        for layer, target in TARGETS
    )
    rounds = measure.Rounds(jobs)
    rounds.run_round()
    sweep = measure.traced_sweep(jobs, targets)
    assert sweep["missing"] == ["commit"] and len(sweep["warnings"]) == 3
    layers = measure.layers_of(jobs, [sweep], rounds.walls, rounds.dispatch)
    assert layers["commit.busy_share"]["value"] is None
    assert layers["commit.commit_decisions"]["value"] > 0  # read off the report
    assert layers["mdbs.events.self_share"]["value"] > 0


def test_workloads_separate_the_layers() -> None:
    layers = {name: _traced(name)[2] for name in WORKLOADS}
    commits = {
        name: sum(outcome.commits for outcome in _traced(name)[0].outcomes)
        for name in WORKLOADS
    }

    def scheduling(name: str) -> float:
        return sum(
            layers[name][key]
            for key in (
                "core.scheme.cond_share", "core.scheme.act_share",
                "core.engine.self_share",
            )
        )

    assert scheduling("gtm2_trace") >= 0.6
    assert scheduling("steady") <= 0.30
    assert layers["steady"]["mdbs.verification.verify_share"] >= 0.12
    assert layers["contended"]["mdbs.verification.verify_share"] <= 0.08
    watchdog = "mdbs.simulator.watchdog_aborts"
    assert layers["steady"][watchdog] / commits["steady"] <= 0.05
    assert layers["contended"][watchdog] / commits["contended"] >= 1.0
    for name, values in layers.items():
        busy = [
            value
            for key, value in values.items()
            if key.startswith(("commit.", "faults."))
        ]
        assert all(busy) if name == "faulty" else not any(busy), name
    assert layers["sharded"]["transport.shards"] == 4
    for name, values in layers.items():  # only sharded has a pool run
        pool_wall = values["transport.pool_wall_us_per_commit"]
        assert pool_wall > 0 if name == "sharded" else pool_wall == 0, name


def test_compare_verdicts() -> None:
    def wall(value: float, spread: float = 1.0) -> Dict[str, Any]:
        return {
            "value": value, "better": "lower", "median": value + spread,
            "q1": value, "q3": value + 2 * spread,
        }

    assert verdict("wall_us_per_commit", wall(100), wall(110), False) == "same"
    assert verdict("wall_us_per_commit", wall(100), wall(120), False) == "worse"
    assert verdict("wall_us_per_commit", wall(100), wall(80), False) == "better"
    assert verdict("wall_us_per_commit", wall(100, 15), wall(120, 15), True) == "unresolved"
    assert verdict("wall_us_per_commit", wall(100), wall(120), True) == "worse"
    exact = lambda value, better="lower": {"value": value, "better": better}
    assert verdict("pycalls_per_commit", exact(1000), exact(1005), False) == "same"
    assert verdict("pycalls_per_commit", exact(1000), exact(1020), True) == "worse"
    assert verdict("failed_share", exact(0.0), exact(0.001), False) == "worse"
    assert verdict("abort_ratio", exact(0.50), exact(0.505), False) == "same"
    assert verdict(
        "sim_commits_per_ktick", exact(10, "higher"), exact(9, "higher"), False
    ) == "worse"


def test_benchmark_json_lists_what_bench_reports() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [entry["name"] for entry in spec["workloads"]] == list(WORKLOADS)
    rounds, _sweep, layers = _traced("faulty")  # the one with every metric
    end_to_end = measure.end_to_end(rounds.walls, rounds.outcomes)
    assert {entry["name"] for entry in spec["per_layer"]} == (
        set(layers) | set(measure.exact_as_layers(end_to_end))
    )
    assert {entry["name"] for entry in spec["end_to_end"]} == {
        "wall_us_per_commit", "peak_rss_mb", "setup_s",
    }


def main() -> int:
    """Run every ``test_*`` above; non-zero if any fails."""
    failures = 0
    tests = [
        (name, value)
        for name, value in globals().items()
        if name.startswith("test_") and callable(value)
    ]
    for name, test in tests:
        try:
            test()
        except unittest.SkipTest as skipped:
            print(f"SKIP {name}: {skipped}")
        except Exception:  # the runner must report every test, then fail
            failures += 1
            print(f"FAIL {name}")
            traceback.print_exc(file=sys.stdout)
        else:
            print(f"PASS {name}")
    print(f"{len(tests) - failures} of {len(tests)} passed")
    return 1 if failures else 0
