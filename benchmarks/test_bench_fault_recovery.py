"""E10 — fault tolerance: recovery latency and goodput under loss.

Two measurements over the fault-injection subsystem
(``docs/fault_model.md``):

- **GTM2 recovery latency** — wall-clock cost of ``recover_engine``
  (journal replay into a fresh scheme) when GTM2 crashes mid-storm, per
  scheme.  Replay is linear in the journal, so even the O(n²·dav)
  schemes recover in well under a millisecond at these sizes.
- **Goodput vs message loss** — committed transactions, retries, and
  simulated completion time as the loss rate rises: the retry protocol
  turns loss into latency, never into lost or duplicated commits.
"""


from repro.faults.chaos import ChaosOptions, chaos_job, run_chaos
from repro.transport import build_simulator

SCHEMES = ["scheme0", "scheme1", "scheme2", "scheme3"]
LOSS_RATES = [0.0, 0.1, 0.2, 0.3]
RUNS = 8


def run_recovery_sweep():
    table = []
    for scheme_name in SCHEMES:
        recoveries = []
        journal_sizes = []
        for seed in range(RUNS):
            options = ChaosOptions(
                scheme=scheme_name, gtm_crash_count=2, site_crash_count=0
            )
            simulator = build_simulator(chaos_job(options, seed))
            report = simulator.run()
            assert report.fault_stats.gtm_crashes == 2
            recoveries.extend(simulator.faults.gtm_recovery_times)
            journal_sizes.append(len(simulator.gtm1.engine.journal))
        mean_us = 1e6 * sum(recoveries) / len(recoveries)
        max_us = 1e6 * max(recoveries)
        table.append(
            (
                scheme_name,
                len(recoveries),
                round(sum(journal_sizes) / len(journal_sizes), 1),
                round(mean_us, 1),
                round(max_us, 1),
            )
        )
    return table


def run_loss_sweep():
    table = []
    results = {}
    for loss_rate in LOSS_RATES:
        committed = retries = dropped = 0
        duration = 0.0
        for seed in range(RUNS):
            options = ChaosOptions(
                scheme="scheme2",
                loss_rate=loss_rate,
                duplication_rate=0.0,
                delay_rate=0.0,
                gtm_crash_count=0,
                site_crash_count=0,
            )
            result = run_chaos(options, seed)
            assert result.ok, result.failure_reasons()
            committed += result.report.committed_global
            retries += result.report.fault_stats.retries
            dropped += result.report.fault_stats.messages_dropped
            duration += result.report.duration
        results[loss_rate] = (committed, retries)
        table.append(
            (
                loss_rate,
                f"{committed}/{RUNS * 8}",
                dropped,
                retries,
                round(duration / RUNS, 0),
            )
        )
    return table, results


def test_bench_gtm_recovery_latency(benchmark, reporter):
    table = benchmark.pedantic(run_recovery_sweep, rounds=1, iterations=1)
    reporter(
        "E10a — GTM2 crash recovery latency (journal replay, wall clock)",
        ["scheme", "recoveries", "mean journal", "mean us", "max us"],
        table,
    )
    # replay is journal-linear: every recovery at these sizes is fast
    for row in table:
        assert row[4] < 1e5, f"{row[0]} recovery took {row[4]}us"


def test_bench_goodput_vs_loss(benchmark, reporter):
    table, results = benchmark.pedantic(run_loss_sweep, rounds=1, iterations=1)
    reporter(
        "E10b — goodput vs message loss (scheme2, retries absorb the loss)",
        ["loss rate", "committed", "msgs lost", "retries", "mean sim time"],
        table,
    )
    # loss costs retries and simulated time, never committed transactions
    # (a few retries happen even at zero loss: a submission blocked on a
    # site-local lock can outwait the ack timeout, and the idempotent
    # channel absorbs the resend)
    for loss_rate in LOSS_RATES:
        assert results[loss_rate][0] == RUNS * 8
    assert results[0.3][1] > results[0.0][1]
