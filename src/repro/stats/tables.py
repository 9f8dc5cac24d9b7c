"""Plain-text table rendering for the benchmark harness.

The benchmark scripts print paper-style tables (Table 1..5) to stdout; this
module keeps the formatting in one place so every table looks the same.
"""

from __future__ import annotations

from typing import List, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render a fixed-width table.

    Cells are converted with ``str``; floats keep their repr, so format
    numbers before passing them in when a specific precision is wanted.
    """
    str_rows: List[List[str]] = [[str(c) for c in row] for row in rows]
    ncols = len(headers)
    for row in str_rows:
        if len(row) != ncols:
            raise ValueError(
                f"row has {len(row)} cells, expected {ncols}: {row!r}"
            )
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(render_row(row))
    return "\n".join(lines)


def format_number(value: float) -> str:
    """Human-friendly compact number: 1234567 -> '1.23M' (two decimals)."""
    sign = "-" if value < 0 else ""
    v = abs(float(value))
    for threshold, suffix in ((1e9, "B"), (1e6, "M"), (1e3, "K")):
        if v >= threshold:
            return f"{sign}{v / threshold:.2f}{suffix}"
    if v == int(v):
        return f"{sign}{int(v)}"
    return f"{sign}{v:.2f}"
