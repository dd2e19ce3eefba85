"""Fixed-width table rendering for the benchmark harness.

Every bench prints its series through :func:`render_table`, and
``repro report`` renders the paper's comparisons from a BENCH file's
cells the same way (recorded in EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

Cell = Union[str, int, float]


def _format_cell(value: Cell) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned text table."""
    formatted = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in formatted:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    )
    lines.append("  ".join("-" * width for width in widths))
    for row in formatted:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)
