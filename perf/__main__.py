"""``python -m perf`` — the benchmark's command line.

``run``       every workload in one process, rounds interleaved; prints
              every metric and writes ``perf/out/result.json``.
``bench``     one workload for a fixed time; the last stdout line is one
              JSON object (the contract ``BENCHMARK.json`` describes).
``compare``   two ``run`` results under the regression bounds.
``selftest``  the checks of ``perf/test_perf.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any, Dict, List, Optional

from perf import ROOT, locate_program

OUT = ROOT / "perf" / "out"


def _pin_hash_seed() -> None:
    """Re-execute under ``PYTHONHASHSEED=0``: string hashes decide set
    order, set order decides which branch some loops take first, and the
    exact metrics (and the call count) must repeat bit for bit."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, "-m", "perf", *sys.argv[1:]])


def _show(workload: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    for name, entry in metrics.items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        notes = [f"{entry['better']} is better"]
        if entry.get("exact"):
            notes.append("exact")
        if "median" in entry:
            notes.append(
                f"median {entry['median']:.6g} q1 {entry['q1']:.6g} "
                f"q3 {entry['q3']:.6g} over {entry['rounds']} rounds"
            )
        if "samples" in entry:
            notes.append(f"{entry['samples']} samples")
        print(f"{workload:<11} {name:<40} {shown:>12} {entry['unit']:<6} ({', '.join(notes)})")


def _warn(lines: List[str]) -> None:
    for line in dict.fromkeys(lines):
        sys.stderr.write(f"perf: warning: {line}\n")


def run(args: argparse.Namespace) -> int:
    from perf import measure
    from perf.workloads import WORKLOADS, build_jobs

    started = time.perf_counter()
    jobs = [
        job for name in WORKLOADS for job in build_jobs(name, args.seed, args.quick)
    ]
    rounds = measure.Rounds(jobs)
    sweeps: Dict[str, List[Dict[str, Any]]] = {name: [] for name in WORKLOADS}
    traced_sweeps = 1 if args.quick else 3
    try:
        for done in range(1 if args.quick else args.rounds):
            rounds.run_round()
            # traced sweeps ride between the first untraced rounds, so both
            # sides of the overhead ratio sample the same machine phases
            if done < traced_sweeps:
                for name in WORKLOADS:
                    measure.add_sweep(
                        sweeps[name], measure.traced_sweep(rounds.of(name)[0])
                    )
    except measure.IncorrectRun as failure:
        sys.stderr.write(f"perf: incorrect run: {failure}\n")
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    result: Dict[str, Any] = {
        "schema": 1,
        "claim": None,
        "quick": args.quick,
        "seed": args.seed,
        "rounds": rounds.done,
        "python": platform.python_version(),
        "workloads": {},
    }
    warnings: List[str] = []
    for name in WORKLOADS:
        name_jobs, walls, outcomes, dispatch = rounds.of(name)
        end_to_end = measure.end_to_end(walls, outcomes)
        if not args.quick:
            commits = sum(outcome.commits for outcome in outcomes)
            end_to_end.update(measure.setup_and_rss(name, args.seed))
            end_to_end.update(measure.call_count(name, args.seed, commits))
        per_layer = measure.layers_of(name_jobs, sweeps[name], walls, dispatch)
        measure.write_trace(OUT / f"trace_{name}.jsonl", sweeps[name][-1]["spans"])
        warnings += sweeps[name][-1]["warnings"]
        result["workloads"][name] = {
            "jobs": len(name_jobs),
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
        _show(name, end_to_end)
        _show(name, per_layer)
    _warn(warnings)
    result["elapsed_s"] = time.perf_counter() - started
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out} ({result['elapsed_s']:.1f} s)")
    return 0


def bench(args: argparse.Namespace) -> int:
    """The driver's protocol: ``--trace 0`` reports every end-to-end
    metric ``BENCHMARK.json`` lists, ``--trace 1`` every per-layer one."""
    from perf import measure
    from perf.workloads import WORKLOADS, build_jobs

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perf: unknown workload {args.workload!r}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    jobs = build_jobs(args.workload, args.seed)
    attempted = sum(job.submitted for job in jobs)
    failed, correct, measured = 0, True, {}
    deadline = time.perf_counter() + args.seconds
    try:
        rounds = measure.Rounds(jobs)
        if args.trace:
            sweeps: List[Dict[str, Any]] = []
            rounds.run_until(
                deadline,
                lambda: measure.add_sweep(sweeps, measure.traced_sweep(jobs)),
            )
            measured = measure.exact_as_layers(
                measure.end_to_end(rounds.walls, rounds.outcomes)
            )
            measured.update(
                measure.layers_of(jobs, sweeps, rounds.walls, rounds.dispatch)
            )
            OUT.mkdir(parents=True, exist_ok=True)
            measure.write_trace(
                OUT / f"trace_{args.workload}.jsonl", sweeps[-1]["spans"]
            )
            _warn(sweeps[-1]["warnings"])
        else:
            # one fresh interpreter between every two rounds: the set-up
            # timings sample the same machine phases as the rounds
            setups: List[float] = []
            rounds.run_until(
                deadline,
                lambda: setups.append(
                    measure.fresh_setup(args.workload, args.seed)
                ),
            )
            measured = measure.end_to_end(rounds.walls, rounds.outcomes)
            measured.update(
                measure.setup_and_rss(args.workload, args.seed, setups)
            )
        failed = attempted - sum(outcome.commits for outcome in rounds.outcomes)
    except measure.IncorrectRun as failure:
        sys.stderr.write(f"perf: incorrect run: {failure}\n")
        correct = False
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in listed:
        value = measured.get(entry["name"], {}).get("value")
        # the protocol wants a number for every listed metric: one that is
        # absent on this workload, or whose shim target is gone (warned
        # above), reads 0
        metrics[entry["name"]] = {"value": value or 0.0, "unit": entry["unit"]}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def selftest(_args: argparse.Namespace) -> int:
    from perf import test_perf

    return test_perf.main()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf", description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("run", help="measure every workload")
    sub.add_argument("--seed", type=int, default=7)
    sub.add_argument("--rounds", type=int, default=10)
    sub.add_argument("--quick", action="store_true",
                     help="smoke mode: 1 round, sizes / 4, no fresh interpreters")
    sub.add_argument("--out", default=str(OUT / "result.json"))

    sub = commands.add_parser("bench", help="one workload, one JSON line")
    sub.add_argument("--workload", required=True)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--seconds", type=float, required=True)
    sub.add_argument("--trace", type=int, choices=(0, 1), required=True)

    sub = commands.add_parser("compare", help="A.json (baseline) against B.json")
    sub.add_argument("baseline")
    sub.add_argument("candidate")

    commands.add_parser("selftest", help="check the harness itself")

    sub = commands.add_parser("fresh")  # internal: see measure.fresh_child
    sub.add_argument("--workload", required=True)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--do", choices=("setup", "sweep", "calls"), required=True)
    sub.add_argument("--part", default="0/1")

    args = parser.parse_args(argv)
    if args.command == "compare":
        from perf.compare import compare

        return compare(args.baseline, args.candidate)
    locate_program()
    if args.command == "fresh":
        from perf.measure import fresh_child

        fresh_child(args.workload, args.seed, args.do, args.part)
        return 0
    if argv is None:
        _pin_hash_seed()
    return {"run": run, "bench": bench, "selftest": selftest}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
