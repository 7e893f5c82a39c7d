"""Reference rasterizer: triangle setup and per-triangle scan conversion.

This is the work the paper's setup engine performs at a rate of one
triangle per 25 cycles — computing the edge slopes the pixel scanner
then evaluates.  The fill convention is the usual top-left rule so a
pixel on an edge shared by two triangles belongs to exactly one of
them; without it, meshes would show systematic overdraw and the
depth-complexity accounting would drift.

:func:`rasterize_scene_scalar` walks one triangle's bounding box at a
time; :func:`repro.raster.rasterize_scene` (the batch scan converter)
must match it column for column, bit for bit, and
:func:`repro.raster.fragment_depths` must match its depths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.geometry.scene import Scene
from repro.geometry.triangle import Triangle
from repro.geometry.vertex import Vertex
from repro.raster.fragments import FragmentBuffer
from repro.raster.raster import mip_level_for_scale
from repro.texture.filtering import half_texel_index


def bounding_box(triangle: Triangle) -> Tuple[float, float, float, float]:
    """``(min_x, min_y, max_x, max_y)`` of a triangle in screen coordinates."""
    xs = (triangle.v0.x, triangle.v1.x, triangle.v2.x)
    ys = (triangle.v0.y, triangle.v1.y, triangle.v2.y)
    return (min(xs), min(ys), max(xs), max(ys))


def is_degenerate(triangle: Triangle) -> bool:
    """True when the triangle has (numerically) zero area."""
    return triangle.area() < 1e-12


@dataclass(frozen=True)
class EdgeEquations:
    """Edge functions of a positively-oriented triangle.

    For edge ``k`` from vertex ``a_k`` to ``b_k`` (in winding order),
    ``E_k(p) = dx_k * (p.y - ay_k) - dy_k * (p.x - ax_k)`` is positive
    strictly inside the triangle.  ``top_left[k]`` marks edges whose
    boundary pixels are owned by this triangle (screen coordinates grow
    downward, so a *top* edge runs in +x and a *left* edge in -y).
    """

    ax: Tuple[float, float, float]
    ay: Tuple[float, float, float]
    dx: Tuple[float, float, float]
    dy: Tuple[float, float, float]
    top_left: Tuple[bool, bool, bool]
    double_area: float

    def evaluate(self, k: int, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Evaluate edge function ``k`` at sample positions."""
        return self.dx[k] * (py - self.ay[k]) - self.dy[k] * (px - self.ax[k])

    def covers(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Coverage mask at sample positions, honouring the fill rule."""
        inside = np.ones(np.shape(px), dtype=bool)
        for k in range(3):
            e = self.evaluate(k, px, py)
            if self.top_left[k]:
                inside &= e >= 0
            else:
                inside &= e > 0
        return inside


def _is_top_left(dx: float, dy: float) -> bool:
    # With y growing downward and E > 0 inside, the winding is clockwise
    # on screen: a left edge runs upward (dy < 0) and a top edge runs
    # right (dy == 0, dx > 0).
    return dy < 0 or (dy == 0 and dx > 0)


def triangle_setup(triangle: Triangle) -> EdgeEquations:
    """Build edge equations, normalising winding to positive orientation."""
    v0, v1, v2 = triangle.vertices
    double_area = (v1.x - v0.x) * (v2.y - v0.y) - (v1.y - v0.y) * (v2.x - v0.x)
    if double_area < 0:
        v1, v2 = v2, v1
        double_area = -double_area

    def edge(a: Vertex, b: Vertex) -> Tuple[float, float, float, float, bool]:
        dx, dy = b.x - a.x, b.y - a.y
        return a.x, a.y, dx, dy, _is_top_left(dx, dy)

    edges = [edge(v0, v1), edge(v1, v2), edge(v2, v0)]
    return EdgeEquations(
        ax=tuple(e[0] for e in edges),
        ay=tuple(e[1] for e in edges),
        dx=tuple(e[2] for e in edges),
        dy=tuple(e[3] for e in edges),
        top_left=tuple(e[4] for e in edges),
        double_area=double_area,
    )


#: The per-fragment columns the oracle builds beside the buffer's: the
#: float texture coordinates the buffer stores as half-texel indices,
#: the depth, the mip level and the texture.
PER_FRAGMENT = ("u", "v", "z", "level", "texture")


def rasterize_triangle(
    triangle: Triangle,
    width: int,
    height: int,
    triangle_id: int = 0,
) -> Optional[dict]:
    """Scan-convert one triangle; returns column arrays or ``None``.

    Fragments come out in scanline order (rows top to bottom, pixels
    left to right), the order a hardware scanner visits them.  Returns
    ``None`` when the triangle covers no pixel centre.
    """
    if is_degenerate(triangle):
        return None
    equations = triangle_setup(triangle)
    min_x, min_y, max_x, max_y = bounding_box(triangle)
    # Pixel (i, j) has its centre at (i + 0.5, j + 0.5); find the pixel
    # range whose centres can fall inside the bounding box.
    x0 = max(0, int(math.ceil(min_x - 0.5)))
    y0 = max(0, int(math.ceil(min_y - 0.5)))
    x1 = min(width - 1, int(math.floor(max_x - 0.5)) + 1)
    y1 = min(height - 1, int(math.floor(max_y - 0.5)) + 1)
    if x1 < x0 or y1 < y0:
        return None

    xs = np.arange(x0, x1 + 1, dtype=np.int32)
    ys = np.arange(y0, y1 + 1, dtype=np.int32)
    grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
    px = grid_x + 0.5
    py = grid_y + 0.5
    covered = equations.covers(px, py)
    if not covered.any():
        return None

    frag_x = grid_x[covered]
    frag_y = grid_y[covered]
    cx = frag_x + 0.5
    cy = frag_y + 0.5

    # Barycentric interpolation of (u, v).  Weight of a vertex is the
    # edge function of the opposite edge over twice the area; with the
    # winding normalised in triangle_setup the edges are (v0 v1),
    # (v1 v2), (v2 v0), so vertex v0 faces edge 1, v1 faces edge 2 and
    # v2 faces edge 0 — but setup may have swapped v1/v2, so interpolate
    # from the original vertices via an explicit solve instead.
    v0, v1, v2 = triangle.vertices
    det = (v1.x - v0.x) * (v2.y - v0.y) - (v1.y - v0.y) * (v2.x - v0.x)
    w1 = ((cx - v0.x) * (v2.y - v0.y) - (cy - v0.y) * (v2.x - v0.x)) / det
    w2 = ((v1.x - v0.x) * (cy - v0.y) - (v1.y - v0.y) * (cx - v0.x)) / det
    w0 = 1.0 - w1 - w2
    frag_u = w0 * v0.u + w1 * v1.u + w2 * v2.u
    frag_v = w0 * v0.v + w1 * v1.v + w2 * v2.v
    frag_z = w0 * v0.z + w1 * v1.z + w2 * v2.z

    level = mip_level_for_scale(triangle.texel_to_pixel_scale())
    n = len(frag_x)
    return {
        "x": frag_x,
        "y": frag_y,
        "u": frag_u,
        "v": frag_v,
        "u_half": half_texel_index(frag_u, level),
        "v_half": half_texel_index(frag_v, level),
        "z": frag_z,
        "level": np.full(n, level, dtype=np.int16),
        "texture": np.full(n, triangle.texture, dtype=np.int32),
        "triangle": np.full(n, triangle_id, dtype=np.int32),
    }


def rasterize_scene_scalar(scene: Scene) -> Tuple[FragmentBuffer, Dict[str, np.ndarray]]:
    """Reference rasterizer: one triangle at a time.

    Returns the fragment buffer and, beside it, the per-fragment columns
    the buffer does not hold: every fragment's interpolated float
    texture coordinates (``"u"``, ``"v"``), whose half-texel indices the
    buffer stores, depth (``"z"``), mip level (``"level"``) and texture
    id (``"texture"``).
    The buffer's per-triangle tables hold each drawing triangle's level
    (0 for a triangle that draws nothing) and every triangle's texture.
    """
    columns: List[dict] = []
    levels = np.zeros(scene.num_triangles, dtype=np.int16)
    for index, triangle in enumerate(scene.triangles):
        result = rasterize_triangle(triangle, scene.width, scene.height, index)
        if result is not None:
            columns.append(result)
            levels[index] = result["level"][0]
    textures = np.array([t.texture for t in scene.triangles], dtype=np.int32)
    names = FragmentBuffer.COLUMNS + PER_FRAGMENT
    if not columns:
        nothing = {name: np.zeros(0) for name in FragmentBuffer.COLUMNS + ("u", "v", "z")}
        nothing.update(level=np.zeros(0, np.int16), texture=np.zeros(0, np.int32))
        columns = [nothing]
    joined = {name: np.concatenate([c[name] for c in columns]) for name in names}
    buffer = FragmentBuffer(
        **{name: joined[name] for name in FragmentBuffer.COLUMNS},
        triangle_level=levels,
        triangle_texture=textures,
    )
    return buffer, {name: joined[name] for name in PER_FRAGMENT}
