"""E12 — available-copies replication: availability payoff and the
price of catch-up.

Three measurements over the replication layer (``repro.replication``):

- **Throughput across a crash window** — commits of transactions that
  touch items placed at the crashed site, counted inside the site's
  dark window.  With one copy those items are simply unavailable: zero
  such commits until restart.  With degree ≥ 2 the available-copies
  rule routes around the outage and the window throughput stays > 0 —
  the whole point of replication.
- **Snapshot reads vs GTM reads** — read-only globals run against the
  committed multiversion snapshot and never enter the GTM: zero scheme
  waits added, latency bounded by message delay alone.
- **Catch-up cost** — how long a restarted replica stays stale
  (``recovery.catchup_ms``) and how many reads the available-copies
  rule refused meanwhile (``replication.stale_reads_refused``).
"""

from repro.faults import FaultPlan, SiteCrash
from repro.mdbs import SimulationConfig
from repro.replication import ReplicaMap
from repro.transport import SimulationJob, build_simulator
from repro.workloads.generator import WorkloadConfig, WorkloadGenerator

DEGREES = [1, 2, 3]
RUNS = 4
TXNS = 24
ITEMS = 8
#: the crash window: s0 goes dark at t=120 for 400 time units, while
#: admissions keep arriving every 8 time units
CRASH_AT, DOWNTIME = 120.0, 400.0
PROTOCOLS = ["strict-2pl", "to", "sgt"]


def build_replicated(seed, degree, ro_fraction=0.2, crash=True):
    workload = WorkloadGenerator(WorkloadConfig(sites=3, seed=seed))
    shared = [f"x{index}" for index in range(ITEMS)]
    replica_map = ReplicaMap.build(shared, workload.config.site_names, degree)
    plan = None
    if crash:
        plan = FaultPlan(
            seed=seed,
            site_crashes=(
                SiteCrash("s0", at=CRASH_AT, downtime=DOWNTIME),
            ),
        )
    job = SimulationJob(
        site_protocols=tuple(zip(workload.config.site_names, PROTOCOLS)),
        scheme="scheme2",
        config=SimulationConfig(horizon=100_000.0),
        seed=seed,
        plan=plan,
        atomic_commit=True,
        replica_map=replica_map,
        global_programs=tuple(
            (program, index * 8.0)
            for index, program in enumerate(
                workload.logical_batch(TXNS, shared, ro_fraction)
            )
        ),
    )
    return build_simulator(job), replica_map


def commits_in_window(simulator, replica_map):
    """Commits inside the dark window of transactions admitted during
    the outage that touch an item placed at the crashed site (the
    population a single-copy layout strands until restart)."""
    exposed = set(replica_map.items_at("s0"))
    count = 0
    for logical, program in simulator.router.programs.items():
        stats = simulator.transaction_stats(logical)
        if stats.committed_at is None:
            continue
        if not exposed.intersection(program.items):
            continue
        if (
            stats.submitted_at >= CRASH_AT
            and stats.committed_at < CRASH_AT + DOWNTIME
        ):
            count += 1
    return count


def run_availability_sweep():
    table = []
    results = {}
    for degree in DEGREES:
        window = committed = failed = refused = 0
        for seed in range(RUNS):
            simulator, replica_map = build_replicated(seed, degree)
            report = simulator.run()
            assert simulator.atomicity_report().ok
            assert simulator.replicas_report().ok
            window += commits_in_window(simulator, replica_map)
            committed += report.committed_global + report.snapshot_committed
            failed += report.failed_global + report.snapshot_failed
            refused += report.replication.stale_reads_refused
        results[degree] = (window, committed, failed)
        table.append(
            (
                degree,
                window,
                f"{committed}/{RUNS * TXNS}",
                failed,
                refused,
            )
        )
    return table, results


def run_snapshot_comparison():
    table = []
    results = {}
    for ro_fraction in (0.0, 0.5):
        waits = snapshots = 0
        snapshot_time = response_time = 0.0
        response_count = 0
        for seed in range(RUNS):
            simulator, _ = build_replicated(
                seed, degree=2, ro_fraction=ro_fraction, crash=False
            )
            report = simulator.run()
            waits += report.scheme_waits
            snapshots += report.snapshot_committed
            snapshot_time += sum(report.snapshot_read_times)
            response_time += sum(report.response_times)
            response_count += len(report.response_times)
        mean_snapshot = snapshot_time / snapshots if snapshots else 0.0
        mean_response = (
            response_time / response_count if response_count else 0.0
        )
        results[ro_fraction] = (waits, snapshots, mean_snapshot)
        table.append(
            (
                ro_fraction,
                snapshots,
                waits,
                round(mean_snapshot, 1),
                round(mean_response, 1),
            )
        )
    return table, results


def run_catchup_sweep():
    table = []
    for degree in (2, 3):
        latencies = []
        refused = routed = 0
        for seed in range(RUNS):
            simulator, _ = build_replicated(seed, degree)
            report = simulator.run()
            latencies.extend(report.replication.catchup_ms)
            refused += report.replication.stale_reads_refused
            routed += report.replication.reads_routed
        mean_ms = sum(latencies) / len(latencies) if latencies else 0.0
        max_ms = max(latencies) if latencies else 0.0
        table.append(
            (
                degree,
                len(latencies),
                round(mean_ms, 1),
                round(max_ms, 1),
                refused,
                routed,
            )
        )
    return table


def test_bench_availability_payoff(benchmark, reporter):
    table, results = benchmark.pedantic(
        run_availability_sweep, rounds=1, iterations=1
    )
    reporter(
        "E12a — throughput across a 400-tick site outage, by degree",
        ["degree", "window commits", "committed", "failed", "stale refusals"],
        table,
    )
    # single copy: items at the dark site are stranded for the window
    assert results[1][0] == 0
    # available copies: the same population keeps committing
    for degree in (2, 3):
        assert results[degree][0] > 0, f"degree {degree} stalled"
        assert results[degree][1] >= results[1][1]


def test_bench_snapshot_reads_never_wait(benchmark, reporter):
    table, results = benchmark.pedantic(
        run_snapshot_comparison, rounds=1, iterations=1
    )
    reporter(
        "E12b — read-only snapshot transactions vs GTM traffic (degree 2)",
        ["ro fraction", "snapshots", "scheme waits", "mean snap", "mean resp"],
        table,
    )
    # the snapshot population executed, and adding it introduced *no*
    # additional GTM waiting: snapshot reads bypass the wait machinery
    assert results[0.5][1] > 0
    assert results[0.5][0] <= results[0.0][0]
    # a snapshot read costs message delay, not contention
    assert results[0.5][2] < 100.0


def test_bench_catchup_latency(benchmark, reporter):
    table = benchmark.pedantic(run_catchup_sweep, rounds=1, iterations=1)
    reporter(
        "E12c — replica catch-up after restart (fresh-write quarantine)",
        ["degree", "catch-ups", "mean ms", "max ms", "refused", "reads"],
        table,
    )
    # every sweep actually exercised catch-up and bounded it: the next
    # committed writer refreshes the copy well before the horizon
    for row in table:
        assert row[1] > 0
        assert row[3] < 100_000.0
