"""E8 — the paper's schemes vs the prior ad-hoc approaches.

Baselines: the [BS88] site graph (``site-graph``; conservative, very
restrictive) and the [GRS91] Optimistic Ticket Method (``otm``;
permissive but abort-based).  The declared E8 cells (in BENCH_10.json)
count WAIT insertions, aborts and scheduling steps on a common trace
population — the trade-off surface §§4–7 map out.
"""

from repro.analysis.bench import means

NO_ABORT = ("site-graph", "scheme0", "scheme1", "scheme2", "scheme3")


def test_bench_baseline_tradeoffs(declared):
    cells = declared("E8")
    # one trace length: each scheme's per-trace means
    waits, aborts, steps = (
        {scheme: row[25] for scheme, row in means(cells, field).items()}
        for field in ("waits", "global_aborts", "scheme_steps")
    )
    # conservative schemes and site-graph: zero aborts
    for name in NO_ABORT:
        assert aborts[name] == 0
    # OTM aborts transactions (its price for zero waits)
    assert aborts["otm"] > 0
    assert waits["otm"] == 0
    # the paper's Scheme 1 dominates the site graph it generalizes
    assert waits["scheme1"] <= waits["site-graph"]
    # scheme3: fewest waits among the no-abort schemes
    assert min(NO_ABORT, key=waits.get) == "scheme3"
    # and the complexity ladder is visible in the step counts
    assert steps["scheme0"] < steps["scheme1"] < steps["scheme2"]
