"""Square-block interleaved distribution."""

from __future__ import annotations

import numpy as np

from repro.distribution.base import (
    Distribution,
    Pairs,
    box_cells,
    processor_grid,
    unique_pairs,
)
from repro.errors import ConfigurationError


class BlockInterleaved(Distribution):
    """The screen is cut into ``width`` x ``width`` pixel blocks.

    Blocks are dealt to processors by repeating a near-square processor
    grid across the block lattice: block ``(tx, ty)`` goes to processor
    ``(tx mod across) + across * (ty mod down)``.  This is the classic
    2D interleave of sort-middle machines; it keeps each processor's
    blocks spread evenly over the screen in both axes.
    """

    def __init__(self, num_processors: int, width: int) -> None:
        super().__init__(num_processors)
        if width < 1:
            raise ConfigurationError(f"block width must be >= 1, got {width}")
        self.width = width
        self.across, self.down = processor_grid(num_processors)

    def owners(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        tx = _interleave(x, self.width, self.across)
        ty = _interleave(y, self.width, self.down)
        ty *= self.across
        ty += tx
        return ty

    def nodes_in_boxes(
        self, x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray
    ) -> Pairs:
        tx0, ty0 = x0 // self.width, y0 // self.width
        # Distinct column classes and row classes each box touches; its
        # node set is their cross product.
        span_x = np.minimum(x1 // self.width - tx0 + 1, self.across)
        span_y = np.minimum(y1 // self.width - ty0 + 1, self.down)
        box, rank = box_cells(np.maximum(span_x, 0) * np.maximum(span_y, 0))
        row, col = np.divmod(rank, span_x[box])
        col += tx0[box]
        col %= self.across
        row += ty0[box]
        row %= self.down
        row *= self.across
        row += col
        return unique_pairs(box, row, self.num_processors)

    def describe(self) -> str:
        return f"block{self.width}x{self.num_processors}"


def _interleave(v: np.ndarray, width: int, period: int) -> np.ndarray:
    """``(v // width) % period`` as a new ``int32`` array.

    Power-of-two widths and grid sides (every Figure 8 point) take a
    shift and a mask, several times faster than numpy's integer
    division; both equal floor division and floor modulo for any sign.
    """
    v = np.asarray(v, dtype=np.int32)
    v = v >> (width.bit_length() - 1) if width & (width - 1) == 0 else v // width
    if period & (period - 1) == 0:
        v &= period - 1
    else:
        v %= period
    return v
