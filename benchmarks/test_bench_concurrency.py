"""E2 — degree of concurrency (paper §4 and §7).

Claims under reproduction, measured as ser-operation WAIT insertions on
identical QUEUE insertion orders:

- Scheme 1 and Scheme 2 provide more concurrency than Scheme 0 (and the
  [BS88] site-graph baseline provides less than Scheme 1);
- Scheme 1 and Scheme 2 are *incomparable* (some traces favour each,
  a consequence of Eliminate_Cycles returning non-minimal Δ —
  Theorem 7's territory);
- Scheme 3 has the lowest average waits of all.
"""

from repro.analysis.bench import dominance, mean_waits, select


def test_bench_concurrency_ordering(declared):
    means = mean_waits(select(declared("E2"), "E2rand", "E2adv"))
    # average ordering of §4/§7: site-graph >= scheme0 >= 1,2 >= 3
    assert means["scheme3"] <= means["scheme2"]
    assert means["scheme3"] <= means["scheme1"]
    assert means["scheme1"] <= means["scheme0"]
    assert means["scheme2"] <= means["scheme0"]
    assert means["scheme0"] <= means["site-graph"]


def test_bench_scheme1_scheme2_incomparable(declared):
    """Scheme 2 does not dominate Scheme 1 (paper §6): non-minimal Δ can
    over-restrict.  The 120-trace hunt finds wins in both directions."""
    hunt = dominance(select(declared("E2"), "E2hunt"), "scheme1", "scheme2")
    assert hunt.first_better > 0
    assert hunt.second_better > 0
