"""E6 — Theorem 7: computing a minimal Δ is NP-complete.

Three empirical signatures, all in counts:

1. **Non-minimality**: the polynomial ``Eliminate_Cycles`` returns a Δ
   strictly larger than the optimum on some random TSGDs (the price
   Scheme 2 pays for tractability), yet always a sufficient one — the
   E6 cell runner raises on a Δ that leaves a dangerous cycle;
2. **Exponential blow-up**: the subsets the exact minimum-Δ search tests
   outgrow ``Eliminate_Cycles``' steps as the instance grows;
3. **What minimality buys**: exact Δ inside Scheme 2 waits no more than
   the heuristic, at more scheme steps.
"""

from repro.analysis.bench import select, totals


def test_bench_eliminate_cycles_nonminimality(declared):
    studied = [
        cell
        for cell in select(declared("E6"), "E6a")
        if cell["delta_min"] is not None
    ]
    assert all(cell["delta_edges"] >= cell["delta_min"] for cell in studied)
    # the paper's point: the polynomial procedure is not minimal
    assert any(cell["delta_edges"] > cell["delta_min"] for cell in studied)


def test_bench_minimum_delta_blowup(declared):
    cells = select(declared("E6"), "E6b")
    ratios = [cell["subsets_tested"] / cell["scheme_steps"] for cell in cells]
    # the exact search blows up relative to the heuristic as the
    # instance grows: the final ratio dominates the first
    assert ratios[-1] > ratios[0]
    assert ratios[-1] > 50
    # super-polynomial in the candidates, where Eliminate_Cycles is not
    largest = cells[-1]
    assert largest["subsets_tested"] > largest["candidates"] ** 3
    assert largest["scheme_steps"] < largest["candidates"] ** 2


def test_bench_scheme2_minimal_ablation(declared):
    cells = select(declared("E6"), "E6c")
    waits, steps = totals(cells, "ser_waits"), totals(cells, "scheme_steps")
    # minimality can only relax restrictions...
    assert waits["scheme2-minimal"][10] <= waits["scheme2"][10]
    # ...at a step cost
    assert steps["scheme2-minimal"][10] > steps["scheme2"][10]
