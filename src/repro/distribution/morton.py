"""Morton-order (Z-curve) block interleaving.

An alternative dealing pattern for the same square tiles: blocks are
enumerated along the Morton space-filling curve and dealt round-robin.
Compared with the repeating processor grid of
:class:`~repro.distribution.block.BlockInterleaved`, the Z-curve keeps
each processor's tiles spread at *every* spatial frequency, which makes
it robust to workloads whose hotspot period happens to resonate with a
fixed grid — a pattern several real rasterisers adopted for exactly
that reason.
"""

from __future__ import annotations

import numpy as np

from repro.distribution.base import Distribution, Pairs, box_cells, unique_pairs
from repro.errors import ConfigurationError

#: Supported coordinate magnitude (tiles per axis) for bit interleave.
_MORTON_BITS = 16


def morton_index(tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    """Interleave the bits of two tile coordinates (Z-curve index).

    Codes are ``uint32``, which holds every code of two coordinates
    below ``2**16``.
    """
    tx = np.asarray(tx)
    ty = np.asarray(ty)
    if (tx < 0).any() or (ty < 0).any():
        raise ConfigurationError("Morton coordinates must be non-negative")
    if (tx >= 1 << _MORTON_BITS).any() or (ty >= 1 << _MORTON_BITS).any():
        raise ConfigurationError(
            f"Morton coordinates must be < {1 << _MORTON_BITS}"
        )
    tx = tx.astype(np.uint32)
    ty = ty.astype(np.uint32)
    code = np.zeros(tx.shape, dtype=np.uint32)
    for bit in range(_MORTON_BITS):
        code |= ((tx >> bit) & 1) << (2 * bit)
        code |= ((ty >> bit) & 1) << (2 * bit + 1)
    return code


class MortonInterleaved(Distribution):
    """Square blocks dealt round-robin along the Z-curve."""

    def __init__(self, num_processors: int, width: int) -> None:
        super().__init__(num_processors)
        if width < 1:
            raise ConfigurationError(f"block width must be >= 1, got {width}")
        self.width = width

    def owners(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        tx = np.asarray(x, dtype=np.int32) // self.width
        ty = np.asarray(y, dtype=np.int32) // self.width
        return (morton_index(tx, ty) % self.num_processors).astype(np.int32)

    def nodes_in_boxes(
        self, x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray
    ) -> Pairs:
        tx0, ty0 = x0 // self.width, y0 // self.width
        span_x = x1 // self.width - tx0 + 1
        span_y = y1 // self.width - ty0 + 1
        box, rank = box_cells(np.maximum(span_x, 0) * np.maximum(span_y, 0))
        ty, tx = np.divmod(rank, span_x[box])
        tx += tx0[box]
        ty += ty0[box]
        owners = morton_index(tx, ty) % self.num_processors
        return unique_pairs(box, owners, self.num_processors)

    def describe(self) -> str:
        return f"morton{self.width}x{self.num_processors}"
