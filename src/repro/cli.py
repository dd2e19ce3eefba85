"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``
    Run a randomized MDBS workload as a job on the single-loop
    :class:`~repro.transport.SimTransport` and print its report and
    verdicts; a scheduler the simulator refuses exits with one line.

``compare``
    Replay identical QUEUE traces through several schemes and print the
    waits/steps/aborts comparison table (the §§4–7 trade-off).

``trace``
    Replay one trace through one scheme verbosely: every submission in
    order, plus the resulting ``ser(S)`` and its witness serial order.

``chaos``
    Run seeded fault storms (message loss/duplication/delay, GTM2 and
    site crashes) across schemes and verify serializability, no
    lost/duplicated commits, and termination from the ground-truth
    histories.

``bench``
    Run one declared grid (the paper's cells on the GTM2 layer, or the
    simulator's E4 / grouped E4 / E13 / E14 cells; see
    ``repro.analysis.bench.EXPERIMENTS``) across worker processes, emit
    a ``BENCH_<n>.json`` file, and optionally fail unless every cell
    equals its twin in a committed baseline (see docs/performance.md).

``report``
    Render declared experiments as markdown tables from the cells of a
    BENCH file (``BENCH_10.json`` for the paper's, ``BENCH_3.json`` for
    E4).

A scheduler is named as :func:`repro.core.make_scheme` resolves it: a
paper scheme or a baseline.

Examples
--------
::

    python -m repro simulate --scheme scheme3 --sites 4 --globals 20
    python -m repro compare --schemes scheme0 scheme3 otm --txns 30
    python -m repro trace --scheme scheme2 --txns 8 --seed 7
    python -m repro chaos --runs 50 --loss-rate 0.2
    python -m repro bench --experiment E4 --baseline BENCH_3.json \
        --out BENCH_smoke.json
    python -m repro bench --experiment paper --baseline BENCH_10.json
    python -m repro report BENCH_10.json --experiments E3 E8
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Dict, List, Optional, Tuple

from repro.analysis import bench
from repro.analysis.reporting import render_table
from repro.baselines import BASELINES
from repro.core import SCHEMES, make_scheme
from repro.exceptions import SchedulerError
from repro.faults.chaos import ChaosOptions, run_chaos
from repro.lmdbs import PROTOCOLS
from repro.transport import SimTransport, SimulationJob
from repro.workloads import WorkloadConfig, WorkloadGenerator
from repro.workloads.traces import drive, random_trace


def cmd_simulate(args: argparse.Namespace) -> int:
    config = WorkloadConfig(
        sites=args.sites,
        items_per_site=args.items,
        dav=args.dav,
        ops_per_site=args.ops,
        theta=args.theta,
        seed=args.seed,
    )
    generator = WorkloadGenerator(config)
    protocols = (args.protocols or ["strict-2pl", "to", "sgt"]) * args.sites
    job = SimulationJob(
        site_protocols=tuple(zip(config.site_names, protocols)),
        scheme=args.scheme,
        seed=args.seed,
        global_programs=tuple(
            (program, index * args.spacing)
            for index, program in enumerate(generator.global_batch(args.globals))
        ),
        local_programs=tuple(
            (local, index * args.spacing / 2)
            for index, local in enumerate(generator.local_batch(args.locals))
        ),
    )
    try:
        result = SimTransport().run(job)
    except SchedulerError as error:
        raise SystemExit(str(error))
    report, verification = result.report, result.verification
    rows = [
        ("scheme", args.scheme),
        ("sites", args.sites),
        ("simulated time", f"{report.duration:.0f}"),
        ("global committed", f"{report.committed_global}/{args.globals}"),
        ("global failed", report.failed_global),
        ("global aborts", report.global_aborts),
        ("local committed", report.committed_local),
        ("local aborts", report.local_aborts),
        ("mean response time", f"{report.mean_response_time:.1f}"),
        ("throughput (txn/kt)", f"{report.throughput * 1000:.2f}"),
        ("GTM2 steps", report.scheme_steps),
        ("GTM2 waits", report.scheme_waits),
    ]
    verdicts = [
        ("locals serializable", verification.locals_serializable),
        ("globally serializable", verification.globally_serializable),
        ("committed ser(S) serializable", verification.ser_schedule_serializable),
        ("commits applied exactly once", result.atomicity.exactly_once.ok),
    ]
    print(
        render_table(
            ("metric", "value"), rows + verdicts, title="simulation report"
        )
    )
    if not result.ok:
        failed = [name for name, ok in verdicts if not ok]
        if not result.terminated:
            failed.append(f"terminated (unresolved {result.unresolved})")
        print(f"!! violation: not {', '.join(failed)}")
        if verification.cycle:
            print(f"!! violation cycle: {' -> '.join(verification.cycle)}")
        return 1
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    rows = []
    for name in args.schemes:
        waits = ser_waits = steps = aborts = 0
        for seed in range(args.traces):
            trace = random_trace(
                args.txns, args.sites, args.dav, seed=args.seed + seed
            )
            result = drive(make_scheme(name), trace)
            waits += result.waits
            ser_waits += result.ser_waits
            steps += result.metrics.steps
            aborts += result.abort_count
        count = args.traces
        rows.append(
            (
                name,
                round(steps / (count * args.txns), 1),
                round(ser_waits / count, 1),
                round(waits / count, 1),
                f"{100 * aborts / (count * args.txns):.1f}%",
            )
        )
    print(
        render_table(
            ("scheme", "steps/txn", "ser-waits", "all waits", "aborts"),
            rows,
            title=(
                f"{args.txns} txns, m={args.sites}, dav={args.dav}, "
                f"{args.traces} traces (per-trace means)"
            ),
        )
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.observability import (
        Tracer,
        explain_transaction,
        replay_check,
    )

    trace = random_trace(args.txns, args.sites, args.dav, seed=args.seed)
    print(f"trace ({len(trace)} records):")
    for operation in trace.records:
        print(f"  {operation!r}")
    tracer = Tracer()
    result = drive(make_scheme(args.scheme), trace, tracer=tracer)
    print(f"\nsubmissions by {args.scheme} (per-site execution order):")
    for operation in result.submission_order:
        print(f"  {operation!r}")
    print(f"\nser-operation waits: {result.ser_waits}")
    print(f"total waits: {result.waits}")
    print(f"steps: {result.metrics.steps}")
    if result.aborted:
        print(f"aborted: {result.aborted}")
    print(f"ser(S) serializable: {result.ser_schedule.is_serializable()}")
    print(f"witness: {result.ser_schedule.witness_order()}")
    if not result.aborted:
        problems = replay_check(
            tracer.spans,
            [
                (operation.transaction_id, operation.site)
                for operation in result.ser_schedule
            ],
        )
        if problems:
            for line in problems:
                print(f"!! trace/ser(S) mismatch: {line}")
            return 1
        print(f"trace replay matches ser(S) ({len(tracer.spans)} spans)")
    if args.jsonl:
        with open(args.jsonl, "w") as handle:
            handle.write(tracer.to_jsonl())
        print(f"wrote {args.jsonl}")
    if args.explain:
        print()
        print(explain_transaction(tracer.spans, args.explain))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import FaultConfigError
    from repro.observability import MetricsRegistry, fold, report_to_registry

    knobs = {name: getattr(args, name) for name in chaos_knobs()}
    registry = MetricsRegistry() if args.metrics_out else None
    rows = []
    violations: List[str] = []
    totals = []
    for name in args.schemes:
        options = ChaosOptions(scheme=name, **knobs)
        reports = []
        bad = 0
        for index in range(args.runs):
            seed = args.seed + index
            try:
                # the storm's job, and with it its fault plan, is built
                # first: a bad option fails before anything runs
                result = run_chaos(options, seed)
            except FaultConfigError as error:
                raise SystemExit(f"invalid fault configuration: {error}")
            except SchedulerError as error:
                raise SystemExit(str(error))
            reports.append(result.report)
            if registry is not None:
                report_to_registry(result.report, registry, scheme=name)
                registry.counter("chaos.runs").inc()
                if not result.ok:
                    registry.counter("chaos.violations").inc()
            if not result.ok:
                bad += 1
                for reason in result.failure_reasons():
                    violations.append(f"{name} seed={seed}: {reason}")
        total = fold(reports)
        totals.append(total)
        rows.append(
            (
                name,
                f"{total.committed_global}/{args.runs * args.global_txns}",
                total.failed_global,
                total.fault_stats.gtm_crashes,
                total.fault_stats.site_crashes,
                total.fault_stats.messages_dropped,
                total.fault_stats.retries,
                bad,
            )
        )
    overall = fold(totals)
    windows: Dict[str, List[Tuple[float, float]]] = {}
    for site, down, up in overall.availability_windows:
        windows.setdefault(site, []).append((down, up))
    commit_mode = "2pc" if args.atomic_commit else "no-2pc"
    print(
        render_table(
            (
                "scheme",
                "committed",
                "failed",
                "gtm-crashes",
                "site-crashes",
                "msgs-lost",
                "retries",
                "violations",
            ),
            rows,
            title=(
                f"{args.runs} chaos runs/scheme ({commit_mode}), "
                f"loss={args.loss_rate}, "
                f"dup={args.duplication_rate}, delay={args.delay_rate}"
            ),
        )
    )
    if windows:
        print("per-site availability windows (down -> up, all runs):")
        for site in sorted(windows):
            spans = ", ".join(
                f"[{down:g}, {up:g}]" for down, up in windows[site]
            )
            total = sum(up - down for down, up in windows[site])
            print(
                f"  {site}: {len(windows[site])} outage(s), "
                f"{total:g} time units dark: {spans}"
            )
    if args.replication_degree >= 1:
        print(
            f"replication: degree={args.replication_degree}, "
            f"writes fanned out to {overall.replication.writes_fanout} copies, "
            f"{overall.replication.stale_reads_refused} stale reads refused, "
            f"{overall.snapshot_committed} snapshot read-only txns served"
        )
    if registry is not None:
        with open(args.metrics_out, "w") as handle:
            handle.write(registry.render_prometheus())
        print(f"wrote {args.metrics_out}")
    if violations:
        for line in violations:
            print(f"!! {line}")
        return 1
    if args.atomic_commit:
        print("all runs serializable, exactly-once, atomic, terminated")
    else:
        print("all runs serializable, exactly-once, terminated")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    # the ROADMAP item 1 claim is made for the E14 high-MPL regime only —
    # gating whatever grid happened to run would let a pass on E4 cells
    # masquerade as the documented invariant holding
    if args.check_dominance and args.experiment != "E14":
        raise SystemExit(
            "--check-dominance gates the E14 degree-of-concurrency "
            f"claim; run with --experiment E14, not {args.experiment}"
        )
    baseline = None
    if args.baseline:
        # read before the grid runs: a bad file fails in one line, not
        # after seconds of cells
        try:
            baseline = bench.load_json(args.baseline)["cells"]
        except (OSError, ValueError) as exc:
            raise SystemExit(f"{args.baseline}: {exc}") from exc
    names = bench.GROUPS.get(args.experiment, (args.experiment,))
    specs = bench.specs(*names)
    # nested-pool guard: the parallel transport owns the worker pool, so
    # bench cells must run serially — forking a cell pool on top of
    # per-cell shard pools would oversubscribe the host and
    # deadlock-prone daemonic children
    sharded = any(spec["transport"] == "parallel" for spec in specs)
    results = bench.run_grid(specs, workers=1 if sharded else args.workers)
    print(bench.render_report(results, names))
    if args.out:
        # a grid is its declaration, named by --experiment
        bench.emit_json(results, args.out, meta={"experiment": args.experiment})
        print(f"wrote {args.out}")
    if args.metrics_out:
        registry = bench.results_to_registry(results)
        with open(args.metrics_out, "w") as handle:
            handle.write(registry.render_prometheus())
        print(f"wrote {args.metrics_out}")
    gates = []
    if baseline is not None:
        failures = bench.check_regression(results, baseline)
        gates.append(("regression", failures, f"exact, vs {args.baseline}"))
    if args.check_dominance:
        failures = bench.check_dominance(results)
        passed = (
            "scheme4 mean WAIT-set strictly below scheme2's at mpl "
            f"{list(bench.E14_MPL)}"
        )
        gates.append(("dominance", failures, passed))
    for gate, failures, passed in gates:
        for line in failures:
            print(f"!! {gate}: {line}")
        if failures:
            return 1
        print(f"{gate} gate passed ({passed})")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    try:
        text = bench.render_report(
            bench.load_json(args.bench)["cells"],
            args.experiments or tuple(bench.PAPER_EXPERIMENTS),
        )
    except (OSError, ValueError) as exc:
        raise SystemExit(f"{args.bench}: {exc}") from exc
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def positive_count(text: str) -> int:
    """An argparse type: an integer count of at least 1."""
    return _count(text, 1)


def count(text: str) -> int:
    """An argparse type: an integer count of at least 0."""
    return _count(text, 0)


def _count(text: str, minimum: int) -> int:
    value = int(text)
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


#: the argparse type of a count knob, by the least value it takes
COUNT_TYPES = {0: count, 1: positive_count}


def chaos_knobs() -> Dict[str, dataclasses.Field]:
    """The :class:`~repro.faults.chaos.ChaosOptions` fields ``repro
    chaos`` has a flag for, by name; each declares its flag, default and
    help once, on the field."""
    return {
        knob.name: knob
        for knob in dataclasses.fields(ChaosOptions)
        if "flag" in knob.metadata
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Multidatabase concurrency control (SIGMOD 1992 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    schedulers = [*SCHEMES, *BASELINES]

    sim = sub.add_parser("simulate", help="run the MDBS simulator")
    sim.add_argument("--scheme", default="scheme3", choices=schedulers)
    sim.add_argument("--sites", type=positive_count, default=3)
    sim.add_argument("--items", type=positive_count, default=12)
    sim.add_argument("--dav", type=float, default=2.0)
    sim.add_argument("--ops", type=positive_count, default=2)
    sim.add_argument("--theta", type=float, default=0.0, help="Zipf skew")
    sim.add_argument("--globals", type=count, default=15)
    sim.add_argument("--locals", type=count, default=20)
    sim.add_argument("--spacing", type=float, default=3.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--protocols",
        nargs="*",
        choices=sorted(PROTOCOLS),
        help="per-site protocols (cycled)",
    )
    sim.set_defaults(func=cmd_simulate)

    cmp_parser = sub.add_parser("compare", help="trace-driven comparison")
    cmp_parser.add_argument(
        "--schemes",
        nargs="+",
        choices=schedulers,
        default=["scheme0", "scheme1", "scheme2", "scheme3"],
    )
    cmp_parser.add_argument("--txns", type=positive_count, default=30)
    cmp_parser.add_argument("--sites", type=positive_count, default=4)
    cmp_parser.add_argument("--dav", type=int, default=2)
    cmp_parser.add_argument("--traces", type=positive_count, default=10)
    cmp_parser.add_argument("--seed", type=int, default=0)
    cmp_parser.set_defaults(func=cmd_compare)

    trace_parser = sub.add_parser("trace", help="verbose single-trace replay")
    trace_parser.add_argument("--scheme", default="scheme2", choices=schedulers)
    trace_parser.add_argument("--txns", type=positive_count, default=8)
    trace_parser.add_argument("--sites", type=positive_count, default=3)
    trace_parser.add_argument("--dav", type=int, default=2)
    trace_parser.add_argument("--seed", type=int, default=0)
    trace_parser.add_argument(
        "--explain",
        metavar="GTID",
        help="print the causal WAIT/GRANT chain of one global "
        "transaction (e.g. G3), naming each blocking constraint",
    )
    trace_parser.add_argument(
        "--jsonl", metavar="PATH", help="export the span trace as JSONL"
    )
    trace_parser.set_defaults(func=cmd_trace)

    chaos_parser = sub.add_parser(
        "chaos", help="seeded fault storms with ground-truth verification"
    )
    chaos_parser.add_argument(
        "--schemes",
        nargs="+",
        choices=schedulers,
        default=["scheme0", "scheme1", "scheme2", "scheme3", "scheme4"],
    )
    chaos_parser.add_argument("--runs", type=positive_count, default=25)
    chaos_parser.add_argument("--seed", type=int, default=0)
    for name, knob in chaos_knobs().items():
        flag = knob.metadata["flag"]
        if isinstance(knob.default, bool):
            kind = {"action": "store_true"}
        else:
            kind = {
                # a count checks its minimum; any other knob is its
                # default's type
                "type": COUNT_TYPES.get(
                    knob.metadata["minimum"], type(knob.default)
                ),
                # the metavar argparse derives from the flag itself
                "metavar": flag[2:].replace("-", "_").upper(),
            }
        chaos_parser.add_argument(
            flag, dest=name, default=knob.default, help=knob.metadata["help"],
            **kind,
        )
    chaos_parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the merged metrics registry of all runs as a "
        "Prometheus-style text dump",
    )
    chaos_parser.set_defaults(func=cmd_chaos)

    bench_parser = sub.add_parser(
        "bench",
        help="run a declared bench grid (the paper's drive()-layer cells or "
        "the simulator's, across worker processes) and optionally gate on "
        "a baseline",
    )
    bench_parser.add_argument(
        "--experiment",
        choices=[*bench.EXPERIMENTS, *bench.GROUPS],
        default="E4",
        help="one experiment's declared grid (repro.analysis.bench."
        "EXPERIMENTS), or paper for all of the paper's own",
    )
    bench_parser.add_argument(
        "--workers",
        type=int,
        default=max(1, os.cpu_count() or 1),
        help="cell pool size; a grid with sharded cells runs them serially "
        "so the shard pool owns the cores",
    )
    bench_parser.add_argument("--out", help="write BENCH_<n>.json here")
    bench_parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the aggregated grid counters as a Prometheus-style "
        "text dump",
    )
    bench_parser.add_argument(
        "--baseline",
        help="committed BENCH_<n>.json to gate against: every cell shared "
        "with it must match it exactly on every measured field",
    )
    bench_parser.add_argument(
        "--check-dominance",
        action="store_true",
        help="fail unless scheme4's mean WAIT-set size is strictly "
        "below scheme2's on every compared (mpl, seed) cell of this "
        "run (the ROADMAP item 1 gate; requires --experiment E14)",
    )
    bench_parser.set_defaults(func=cmd_bench)

    report_parser = sub.add_parser(
        "report", help="render declared experiments from a BENCH file"
    )
    report_parser.add_argument("bench", help="e.g. BENCH_10.json")
    report_parser.add_argument(
        "--experiments",
        nargs="*",
        help="e.g. E1 E3 (default: the paper's own), or E4 from BENCH_3.json",
    )
    report_parser.add_argument("-o", "--output", help="write to file")
    report_parser.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
