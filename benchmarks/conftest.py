"""Shared helpers for the benchmark harness.

Every bench regenerates one experiment of DESIGN.md's index (E1–E14)
and prints the paper-style comparison table through the ``reporter``
fixture, which suspends pytest's capture so the tables land in the
terminal (and in ``bench_output.txt`` when the run is tee'd).
"""

from __future__ import annotations

from typing import Any, Dict, List

import pytest

from repro.analysis import bench
from repro.analysis.reporting import render_table

#: a declared experiment's cells, run once per session
_CELLS: Dict[str, List[Dict[str, Any]]] = {}


@pytest.fixture
def reporter(capsys):
    """Print an experiment table straight to the terminal."""

    def _report(title, headers, rows):
        with capsys.disabled():
            print("\n\n" + render_table(headers, rows, title=title))

    return _report


@pytest.fixture
def declared(reporter):
    """``declared(name)``: fresh cells of one of
    :data:`repro.analysis.bench.EXPERIMENTS` (the grid its committed
    BENCH file gates exactly), its tables printed on first use."""

    def _run(name):
        if name not in _CELLS:
            cells = bench.run_grid(bench.specs(name))
            _CELLS[name] = cells
            for table in bench.EXPERIMENTS[name].tables(cells):
                reporter(*table)
        return _CELLS[name]

    return _run
