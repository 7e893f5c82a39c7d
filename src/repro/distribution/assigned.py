"""Tile grids with explicit (e.g. dynamically computed) assignments.

The paper's distributions are static and hard-coded; its future-work
section asks what *dynamic* tile assignment would buy.  These classes
make that question answerable with the existing machinery:

* :class:`TileGrid` — the identity partition, one "processor" per
  square tile; routing it through the load-balance analysis yields
  per-tile work, the input of any assignment policy.
* :class:`AssignedTiles` — a distribution defined by an arbitrary
  tile-to-processor table, so a computed assignment behaves exactly
  like a built-in scheme everywhere (routing, cache replay, timing).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.distribution.base import Distribution, Pairs, box_cells, unique_pairs
from repro.errors import ConfigurationError


class TileGrid(Distribution):
    """Square ``width``-pixel tiles, each its own owner id.

    ``num_processors`` equals the tile count; owner ids are raster
    order (``ty * tiles_x + tx``).
    """

    def __init__(self, width: int, screen_width: int, screen_height: int) -> None:
        if width < 1:
            raise ConfigurationError(f"tile width must be >= 1, got {width}")
        if screen_width < 1 or screen_height < 1:
            raise ConfigurationError("screen must be at least 1x1")
        self.width = width
        self.screen_width = screen_width
        self.screen_height = screen_height
        self.tiles_x = -(-screen_width // width)
        self.tiles_y = -(-screen_height // width)
        super().__init__(self.tiles_x * self.tiles_y)

    @property
    def num_tiles(self) -> int:
        return self.num_processors

    def owners(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        tx = np.asarray(x, dtype=np.int32) // self.width
        ty = np.asarray(y, dtype=np.int32) // self.width
        return ty * self.tiles_x + tx

    def nodes_in_boxes(
        self, x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray
    ) -> Pairs:
        tx0, ty0 = x0 // self.width, y0 // self.width
        span_x = np.minimum(x1 // self.width, self.tiles_x - 1) - tx0 + 1
        span_y = np.minimum(y1 // self.width, self.tiles_y - 1) - ty0 + 1
        box, rank = box_cells(np.maximum(span_x, 0) * np.maximum(span_y, 0))
        ty, tx = np.divmod(rank, span_x[box])
        tx += tx0[box]
        ty += ty0[box]
        ty *= self.tiles_x
        ty += tx
        return box, ty

    def describe(self) -> str:
        return f"tiles{self.width}({self.tiles_x}x{self.tiles_y})"


class AssignedTiles(Distribution):
    """A tile grid distributed by an explicit assignment table."""

    def __init__(
        self,
        grid: TileGrid,
        assignment: Sequence[int],
        num_processors: int,
        label: str = "assigned",
    ) -> None:
        super().__init__(num_processors)
        assignment = np.asarray(assignment, dtype=np.int64)
        if len(assignment) != grid.num_tiles:
            raise ConfigurationError(
                f"assignment covers {len(assignment)} tiles, grid has {grid.num_tiles}"
            )
        if len(assignment) and (assignment.min() < 0 or assignment.max() >= num_processors):
            raise ConfigurationError("assignment references an out-of-range processor")
        self.grid = grid
        self.assignment = assignment
        self.label = label
        self._owner_table = assignment.astype(np.int32)

    def owners(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._owner_table[self.grid.owners(x, y)]

    def nodes_in_boxes(
        self, x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray
    ) -> Pairs:
        box, tiles = self.grid.nodes_in_boxes(x0, y0, x1, y1)
        return unique_pairs(box, self.assignment[tiles], self.num_processors)

    def describe(self) -> str:
        return f"{self.label}{self.grid.width}x{self.num_processors}"

    def fingerprint(self) -> str:
        # The assignment table is the identity; the label is not.
        import hashlib

        digest = hashlib.sha1(self.assignment.tobytes()).hexdigest()[:16]
        return (
            f"{type(self).__name__}:{self.num_processors}:"
            f"{self.grid.describe()}:{digest}"
        )


def lpt_assignment(tile_work: np.ndarray, num_processors: int) -> np.ndarray:
    """Longest-processing-time greedy assignment of tiles to processors.

    The classic 4/3-approximation for makespan: take tiles in
    decreasing work order, always handing the next one to the least
    loaded processor.  This is the idealised *dynamic* balancer — a
    runtime tile queue converges to the same shape — so it upper-bounds
    what dynamic load balancing could win over static interleaving.
    """
    if num_processors < 1:
        raise ConfigurationError("need at least one processor")
    tile_work = np.asarray(tile_work)
    loads = np.zeros(num_processors)
    assignment = np.zeros(len(tile_work), dtype=np.int64)
    for tile in np.argsort(tile_work)[::-1]:
        target = int(np.argmin(loads))
        assignment[tile] = target
        loads[target] += tile_work[tile]
    return assignment
