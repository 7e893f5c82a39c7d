"""Scan-line interleaved (SLI) distribution."""

from __future__ import annotations

import numpy as np

from repro.distribution.base import Distribution, Pairs, box_cells, unique_pairs
from repro.errors import ConfigurationError


class ScanLineInterleaved(Distribution):
    """Groups of ``lines`` adjacent scanlines, dealt round-robin.

    ``lines == 1`` is the Voodoo2-style per-line interleave; ``lines == 4``
    matches 3DLabs JetStream.  Group ``g = y // lines`` is rendered by
    processor ``g mod N``.
    """

    def __init__(self, num_processors: int, lines: int) -> None:
        super().__init__(num_processors)
        if lines < 1:
            raise ConfigurationError(f"SLI group height must be >= 1, got {lines}")
        self.lines = lines

    def owners(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        group = np.asarray(y, dtype=np.int32) // self.lines
        return group % self.num_processors

    def nodes_in_boxes(
        self, x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray
    ) -> Pairs:
        g0 = y0 // self.lines
        span = np.minimum(y1 // self.lines - g0 + 1, self.num_processors)
        box, rank = box_cells(span)
        rank += g0[box]
        rank %= self.num_processors
        return unique_pairs(box, rank, self.num_processors)

    def describe(self) -> str:
        return f"sli{self.lines}x{self.num_processors}"
