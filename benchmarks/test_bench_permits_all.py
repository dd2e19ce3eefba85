"""E3 — Scheme 3 permits the set of all serializable schedules
(paper §7, Theorem 8 corollary).

On streams whose immediate processing yields a serializable ``ser(S)``
(hidden serial order π: per-site requests arrive in π order), Scheme 3
must add *zero* ser-operations to WAIT; the BT-schemes — which a-priori
restrict processing — do wait on many of them.
"""

from repro.analysis.bench import delayed_streams, totals


def test_bench_permits_all_serializable_schedules(declared):
    cells = declared("E3")
    # the headline claim: Scheme 3 never delays such a stream
    assert sum(totals(cells, "ser_waits")["scheme3"].values()) == 0
    assert delayed_streams(cells, "scheme3") == 0
    # and the BT-schemes each delay at least some of them
    for name in ("scheme0", "scheme1", "scheme2"):
        assert delayed_streams(cells, name) > 0
