"""CSV export of sweep results.

Sweep drivers return ``{(row, column): value}`` dicts; this helper
flattens one into CSV so the data can leave the terminal
(spreadsheets, gnuplot, pandas) without adding plotting dependencies
to the library.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Dict, Optional, Tuple, Union


def sweep_to_csv(
    sweep: Dict[Tuple[int, int], float],
    row_label: str = "size",
    column_label: str = "processors",
    value_label: str = "value",
    path: Optional[Union[str, Path]] = None,
) -> str:
    """Write a ``{(row, column): value}`` sweep as long-format CSV.

    Returns the CSV text; also writes it to ``path`` when given.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([row_label, column_label, value_label])
    for (row, column), value in sorted(sweep.items()):
        writer.writerow([row, column, value])
    text = buffer.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text
