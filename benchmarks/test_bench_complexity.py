"""E1 — empirical complexity of Schemes 0–3 (paper §4–§7).

Analytical claims under reproduction:

- Scheme 0: O(dav) per transaction — flat in n and m (paper §4);
- Scheme 1: O(m + n + n·dav) — linear in n (Theorem 4);
- Scheme 2: O(n²·dav) — quadratic in n (Theorem 6);
- Scheme 3: O(n²·dav) — quadratic in n (Theorem 9);
- all schemes: linear in dav.

Steps are counted exactly as the paper counts them: work in ``cond``, in
``act``, and in re-examining WAIT.  The cells (``E1n``/``E1dav``/``E1m``
in BENCH_10.json) hold steps and scheduled transactions per sweep point;
the bands below are on the fitted log-log growth exponents.
"""

from repro.analysis.bench import exponents, select

#: analytical exponent in n per the paper, with tolerance bands
EXPECTED_N_EXPONENT = {
    "scheme0": (0.0, -0.5, 0.4),  # O(dav): flat in n
    "scheme1": (1.0, 0.5, 1.5),  # O(m + n + n·dav)
    "scheme2": (2.0, 1.4, 2.6),  # O(n²·dav)
    "scheme3": (2.0, 1.2, 2.6),  # O(n²·dav)
}


def test_bench_complexity_in_n(declared):
    slopes = exponents(select(declared("E1"), "E1n"))
    for name, (_, low, high) in EXPECTED_N_EXPONENT.items():
        assert low <= slopes[name] <= high, (
            f"{name}: fitted n-exponent {slopes[name]:.2f} outside "
            f"the analytical band [{low}, {high}]"
        )
    # the ordering of asymptotic classes: S0 < S1 < S2/S3
    assert slopes["scheme0"] < slopes["scheme1"] < slopes["scheme2"]


def test_bench_complexity_in_dav(declared):
    for name, slope in exponents(select(declared("E1"), "E1dav")).items():
        assert 0.3 <= slope <= 2.2, (
            f"{name}: dav-exponent {slope:.2f} not roughly linear"
        )


def test_bench_complexity_in_m(declared):
    """Theorem 4's m term: Scheme 1's TSG traversal visits site nodes,
    so its steps may grow (mildly) with the number of sites at fixed n
    and dav, while Scheme 0 stays flat in m."""
    slopes = exponents(select(declared("E1"), "E1m"))
    # scheme0's complexity has no m term at all
    assert slopes["scheme0"] < 0.3
    # scheme1 (TSG traversal) is at most mildly sensitive to m; what
    # matters is that it does not blow up super-linearly
    assert slopes["scheme1"] < 1.3
