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

from typing import Iterable, List

from repro.analysis.tables import format_table
from repro.core.routing import route_triangles
from repro.distribution.assigned import TileGrid
from repro.errors import ConfigurationError
from repro.geometry.scene import Scene


def predicted_overlap(bbox_w: float, bbox_h: float, tile: int) -> float:
    """Expected tiles overlapped by one box under random placement."""
    if tile < 1:
        raise ConfigurationError(f"tile size must be >= 1, got {tile}")
    return (bbox_w / tile + 1.0) * (bbox_h / tile + 1.0)


def scene_predicted_overlap(scene: Scene, tile: int) -> float:
    """Mean predicted overlap over a scene's triangle boxes."""
    if scene.num_triangles == 0:
        return 0.0
    total = 0.0
    for triangle in scene.triangles:
        min_x, min_y, max_x, max_y = triangle.bounding_box()
        width = min(max_x, scene.width) - max(min_x, 0.0)
        height = min(max_y, scene.height) - max(min_y, 0.0)
        total += predicted_overlap(max(width, 0.0), max(height, 0.0), tile)
    return total / scene.num_triangles


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
