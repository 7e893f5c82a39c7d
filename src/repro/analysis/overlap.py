"""Primitive-overlap model validation (Chen et al. / Molnar).

Section 2.3 cites analytical models of primitive overlap in bucket
rendering: a triangle whose bounding box spans ``w x h`` pixels on a
grid of ``T x T`` tiles overlaps, in expectation over placement,

    O(w, h, T) = (w / T + 1) * (h / T + 1)

tiles.  The simulator measures overlap directly (bounding-box routing
against the identity tile grid); this module computes both sides so the
routing machinery is validated against the published closed form —
and so users can reason analytically about the setup overhead of a
tile size before running a simulation.
"""

from __future__ import annotations

from typing import Iterable, List, Union

import numpy as np

from repro.analysis.tables import format_table
from repro.core.routing import route_triangles
from repro.distribution.assigned import TileGrid
from repro.errors import ConfigurationError
from repro.geometry.scene import Scene

#: A box extent in pixels: one value, or a column of them.
Extent = Union[float, np.ndarray]


def predicted_overlap(bbox_w: Extent, bbox_h: Extent, tile: int) -> Extent:
    """Expected tiles overlapped by one box under random placement.

    The extents may be columns, giving one prediction per box.
    """
    if tile < 1:
        raise ConfigurationError(f"tile size must be >= 1, got {tile}")
    return (bbox_w / tile + 1.0) * (bbox_h / tile + 1.0)


def scene_predicted_overlap(scene: Scene, tile: int) -> float:
    """Mean predicted overlap over a scene's triangle boxes.

    Boxes are clipped to the screen; the per-triangle predictions are
    summed left to right in submission order.
    """
    if scene.num_triangles == 0:
        return 0.0
    table = scene.vertex_table
    xs, ys = table[:, 0:15:5], table[:, 1:15:5]
    width = np.minimum(xs.max(axis=1), scene.width) - np.maximum(xs.min(axis=1), 0.0)
    height = np.minimum(ys.max(axis=1), scene.height) - np.maximum(ys.min(axis=1), 0.0)
    overlaps = predicted_overlap(np.maximum(width, 0.0), np.maximum(height, 0.0), tile)
    return float(np.add.accumulate(overlaps)[-1]) / scene.num_triangles


def scene_measured_overlap(scene: Scene, tile: int) -> float:
    """Mean tiles the router actually sends each triangle to."""
    if scene.num_triangles == 0:
        return 0.0
    grid = TileGrid(tile, scene.width, scene.height)
    routed_pairs = sum(map(len, route_triangles(scene, grid)))
    return routed_pairs / scene.num_triangles


def overlap_validation(scene: Scene, tiles: Iterable[int]) -> str:
    """Predicted vs measured mean overlap per tile size, as text."""
    rows: List[list] = []
    for tile in tiles:
        predicted = scene_predicted_overlap(scene, tile)
        measured = scene_measured_overlap(scene, tile)
        error = (measured / predicted - 1.0) if predicted else 0.0
        rows.append([tile, round(predicted, 3), round(measured, 3), f"{error:+.1%}"])
    table = format_table(
        ["tile", "predicted overlap", "measured overlap", "error"], rows
    )
    return (
        f"Overlap-model validation (Chen et al.), {scene.name}: "
        f"mean tiles per triangle\n{table}"
    )
