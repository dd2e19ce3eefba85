"""Analysis utilities: the bench harness (every experiment declared once
as clock-free cells, the exact gate, the paper's report), log-log
exponent fitting, degree-of-concurrency dominance, table rendering."""

from repro.analysis.bench import Dominance, dominance, fit_exponent, mean_waits
from repro.analysis.reporting import render_table

__all__ = [
    "fit_exponent",
    "Dominance",
    "dominance",
    "mean_waits",
    "render_table",
]
