"""E7 — why GTM2 needs *conservative* schemes (paper §3, factor 1).

Every pair of ser-operations at a site conflicts, so classical
abort-based CC applied to ``ser(S)`` kills global transactions wholesale:
2PL deadlocks, TO rejections, optimistic validation failures.  The cells
replay identical traces through the conservative Schemes 0–3 and the
abort-based strawmen — the paper expects no aborts for the former and a
large, n-growing fraction for the latter.
"""

from repro.analysis.bench import ratios, totals

CONSERVATIVE = ("scheme0", "scheme1", "scheme2", "scheme3")
ABORT_BASED = ("2pl-gtm", "to-gtm", "optimistic-gtm")


def test_bench_abort_rates(declared):
    # aborted share of the submitted: a cell's mpl is its trace's n
    rates = ratios(declared("E7"), "global_aborts", "mpl")
    # conservative schemes never abort
    for name in CONSERVATIVE:
        assert set(rates[name].values()) == {0.0}
    # abort-based schemes abort a substantial fraction at every n and it
    # does not shrink as the system grows
    for name in ABORT_BASED:
        assert rates[name][10] > 0.05
        assert rates[name][40] > 0.10


def test_bench_deadlock_frequency(declared):
    """The specific §3 prediction for 2PL over ser(S): frequent
    deadlocks, growing with the number of concurrent transactions."""
    deadlocks = totals(declared("E7"), "deadlocks")["2pl-gtm"]
    assert 0 < deadlocks[10] < deadlocks[20] < deadlocks[40]
