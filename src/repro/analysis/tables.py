"""Plain-text rendering of experiment output.

The experiments print the same rows/series the paper's tables
and figures report; these helpers keep that output aligned and uniform.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple


def _stringify(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render an aligned monospace table."""
    text_rows: List[List[str]] = [[_stringify(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in text_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(
    title: str,
    series: Dict[Tuple[int, int], float],
    row_label: str = "size",
    column_label: str = "processors",
) -> str:
    """Render a {(row, column): value} sweep as a matrix with a title.

    This is the shape every figure sweep produces: tile size down the
    rows, processor count across the columns.
    """
    row_keys = sorted({key[0] for key in series})
    column_keys = sorted({key[1] for key in series})
    headers = [f"{row_label}\\{column_label}"] + [str(c) for c in column_keys]
    rows = []
    for row_key in row_keys:
        row: List = [row_key]
        for column_key in column_keys:
            value = series.get((row_key, column_key))
            row.append("-" if value is None else value)
        rows.append(row)
    return f"{title}\n{format_table(headers, rows)}"
