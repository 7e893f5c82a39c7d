"""Per-triangle bounding-box routing, the reference for the columnar router.

The shipped :func:`repro.core.routing.route_triangles` reads every
triangle's box in one column sweep and asks the distribution for all
``(triangle, node)`` pairs at once (``nodes_in_boxes``).  This module
keeps the loop it replaced: one bounding box per triangle, one scalar
clamp and one scalar node query per triangle, with each distribution
family's scalar ``nodes_in_box`` body as it was.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

import numpy as np

from repro.distribution import (
    AssignedTiles,
    BlockInterleaved,
    ContiguousBands,
    Distribution,
    MortonInterleaved,
    ScanLineInterleaved,
    SingleProcessor,
    TileGrid,
    morton_index,
)
from repro.geometry.scene import Scene
from tests.oracles.raster import bounding_box


def _block(dist: BlockInterleaved, x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
    tx0, tx1 = x0 // dist.width, x1 // dist.width
    ty0, ty1 = y0 // dist.width, y1 // dist.width
    span_x = min(tx1 - tx0 + 1, dist.across)
    span_y = min(ty1 - ty0 + 1, dist.down)
    cols = (tx0 + np.arange(span_x)) % dist.across
    rows = (ty0 + np.arange(span_y)) % dist.down
    nodes = (cols[None, :] + dist.across * rows[:, None]).ravel()
    nodes.sort()
    return nodes


def _sli(dist: ScanLineInterleaved, x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
    g0, g1 = y0 // dist.lines, y1 // dist.lines
    span = min(g1 - g0 + 1, dist.num_processors)
    nodes = (g0 + np.arange(span)) % dist.num_processors
    nodes.sort()
    return nodes


def _single(dist: SingleProcessor, x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
    return np.zeros(1, dtype=np.int64)


def _bands(dist: ContiguousBands, x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
    height = dist.screen_height
    first = int(min(y0, height - 1) * dist.num_processors // height)
    last = int(min(y1, height - 1) * dist.num_processors // height)
    return np.arange(first, last + 1)


def _morton(dist: MortonInterleaved, x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
    tx0, tx1 = x0 // dist.width, x1 // dist.width
    ty0, ty1 = y0 // dist.width, y1 // dist.width
    grid_x, grid_y = np.meshgrid(np.arange(tx0, tx1 + 1), np.arange(ty0, ty1 + 1))
    owners = morton_index(grid_x.ravel(), grid_y.ravel()) % dist.num_processors
    return np.unique(owners).astype(np.int64)


def _tiles(dist: TileGrid, x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
    tx0, tx1 = x0 // dist.width, min(x1 // dist.width, dist.tiles_x - 1)
    ty0, ty1 = y0 // dist.width, min(y1 // dist.width, dist.tiles_y - 1)
    txs = np.arange(tx0, tx1 + 1)
    tys = np.arange(ty0, ty1 + 1)
    return (tys[:, None] * dist.tiles_x + txs[None, :]).ravel()


def _assigned(dist: AssignedTiles, x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
    return np.unique(dist.assignment[_tiles(dist.grid, x0, y0, x1, y1)])


_NODES_IN_BOX: Dict[type, Callable[..., np.ndarray]] = {
    BlockInterleaved: _block,
    ScanLineInterleaved: _sli,
    SingleProcessor: _single,
    ContiguousBands: _bands,
    MortonInterleaved: _morton,
    TileGrid: _tiles,
    AssignedTiles: _assigned,
}


def reference_nodes_in_box(
    dist: Distribution, x0: int, y0: int, x1: int, y1: int
) -> np.ndarray:
    """The processors whose tiles one inclusive pixel box touches."""
    return _NODES_IN_BOX[type(dist)](dist, x0, y0, x1, y1)


def nodes_in_box(dist: Distribution, x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
    """The shipped ``nodes_in_boxes`` asked about one pixel box: its nodes."""
    corners = (np.array([value], dtype=np.int64) for value in (x0, y0, x1, y1))
    return dist.nodes_in_boxes(*corners)[1]


def owner_map(dist: Distribution, width: int, height: int) -> np.ndarray:
    """The full ``(height, width)`` ownership image: one owner per pixel."""
    ys, xs = np.mgrid[0:height, 0:width]
    return dist.owners(xs.ravel(), ys.ravel()).reshape(height, width)


def reference_route_triangles(scene: Scene, dist: Distribution) -> List[np.ndarray]:
    """Bounding-box routing, per triangle: the nodes each triangle is sent to."""
    width, height = scene.width, scene.height
    routed: List[np.ndarray] = []
    for triangle in scene.triangles:
        min_x, min_y, max_x, max_y = bounding_box(triangle)
        x0 = min(width - 1, max(0, int(math.floor(min_x))))
        y0 = min(height - 1, max(0, int(math.floor(min_y))))
        x1 = min(width - 1, max(x0, int(math.ceil(max_x)) - 1))
        y1 = min(height - 1, max(y0, int(math.ceil(max_y)) - 1))
        routed.append(reference_nodes_in_box(dist, x0, y0, x1, y1))
    return routed
