"""E4 — whole-system throughput and response time (paper §3, factor 3).

The paper argues that a high-overhead/high-concurrency GTM2 scheme pays
off because the per-operation scheduling cost is amortized over whole
subtransactions.  The discrete-event MDBS simulator measures end-to-end
throughput and mean response time per scheme as the multiprogramming
level rises: the more permissive schemes (2, 3) should respond faster
than Scheme 0 under contention, despite doing far more scheduling steps.
"""


from repro.analysis.bench import make_e4_job
from repro.transport import SimTransport

SCHEMES = ["scheme0", "scheme1", "scheme2", "scheme3"]
MPL_VALUES = [4, 8, 16]


def run_one(scheme_name, mpl, seed=7):
    """The E4 cell of ``repro bench`` (and of BENCH_3.json): four
    heterogeneous-protocol sites, a closed-ish system in which mpl
    transactions arrive together in three waves."""
    result = SimTransport().run(make_e4_job(scheme_name, mpl, seed))
    assert result.verification.ok, result.verification.cycle
    return result.report


def run_sweep():
    table = []
    results = {}
    for scheme_name in SCHEMES:
        for mpl in MPL_VALUES:
            report = run_one(scheme_name, mpl)
            results[(scheme_name, mpl)] = report
            table.append(
                (
                    scheme_name,
                    mpl,
                    report.committed_global,
                    round(report.throughput * 1000, 2),
                    round(report.mean_response_time, 1),
                    report.global_aborts,
                    report.scheme_waits,
                )
            )
    return table, results


def test_bench_throughput_vs_mpl(benchmark, reporter):
    table, results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    reporter(
        "E4 — MDBS simulation: throughput and response time vs "
        "multiprogramming level (4 heterogeneous sites)",
        [
            "scheme",
            "mpl",
            "committed",
            "tput (txn/kt)",
            "mean rt",
            "aborts",
            "gtm2 waits",
        ],
        table,
    )
    for (scheme_name, mpl), report in results.items():
        assert report.committed_global == 3 * mpl, (
            f"{scheme_name}@mpl={mpl} failed to commit everything"
        )
    # Under moderate contention (the middle multiprogramming level, where
    # cross-site abort-and-retry churn does not yet drown the signal) the
    # permissive O-scheme must respond faster than the FIFO BT-scheme
    # (paper §3 factor 3: the scheduling overhead buys throughput).
    mid = MPL_VALUES[1]
    rt0 = results[("scheme0", mid)].mean_response_time
    rt3 = results[("scheme3", mid)].mean_response_time
    assert rt3 < rt0
    # At the highest contention, the permissive scheme at least never
    # needs more stall-resolution aborts than the restrictive one.
    high = MPL_VALUES[-1]
    assert (
        results[("scheme3", high)].global_aborts
        <= results[("scheme0", high)].global_aborts
    )
