"""Batch scan conversion: a whole scene's triangles in array passes.

This is the engine's only rasterizer.  It evaluates every triangle's
edge functions and barycentric interpolants over one flat
candidate-pixel array instead of walking one bounding box at a time:
a cheap per-triangle setup loop extracts the scalar edge/interpolation
constants (including the scalar mip-level selection, whose
``math.log2`` must stay bit-identical), then candidate pixels of many
triangles are generated, tested, and interpolated together.

Setup is the work the paper's setup engine performs at one triangle
per 25 cycles.  For edge ``k`` from ``a_k`` to ``b_k`` of the
positively-wound triangle, ``E_k(p) = dx_k * (p.y - ay_k) - dy_k *
(p.x - ax_k)`` is positive strictly inside.  Pixel centres on an edge
follow the top-left fill rule: screen y grows downward, so a *left*
edge runs upward (``dy < 0``) and a *top* edge runs right (``dy == 0,
dx > 0``), and only those edges own their boundary pixels.  A pixel
on an edge shared by two triangles therefore belongs to exactly one
of them; without the rule, meshes would show systematic overdraw and
the depth-complexity accounting would drift.

Fragments come out in submission order, and within a triangle in
scanline order (rows top to bottom, pixels left to right), the order a
hardware scanner visits them.  The per-triangle reference rasterizer
in ``tests/oracles`` evaluates the same expressions one triangle at a
time; property tests assert the output :class:`FragmentBuffer`
matches it column for column, bit for bit, under random triangle
splits.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.geometry.scene import Scene
from repro.raster.fragments import FragmentBuffer

#: Candidate pixels (bounding-box area) processed per pass — bounds the
#: working set of the flat arrays regardless of scene size and keeps
#: the hot arrays cache-resident.
CHUNK_CANDIDATES = 1 << 18


class _SpecTable:
    """Per-triangle scalar constants, columnized for gathering."""

    def __init__(self, columns: Dict[str, np.ndarray]) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns["x0"])


def _triangle_specs(
    scene: Scene, mip_level: Callable[[float], int]
) -> Optional[_SpecTable]:
    """Extract edge and interpolation constants for live triangles.

    Mirrors the reference rasterizer exactly: degenerate triangles and empty
    pixel clips are dropped here, winding is normalised for the edge
    functions, and interpolation solves against the *original* vertex
    order.
    """
    rows: Dict[str, List[float]] = {name: [] for name in _SPEC_FIELDS}
    width, height = scene.width, scene.height
    for index, triangle in enumerate(scene.triangles):
        if triangle.is_degenerate():
            continue
        min_x, min_y, max_x, max_y = triangle.bounding_box()
        x0 = max(0, int(math.ceil(min_x - 0.5)))
        y0 = max(0, int(math.ceil(min_y - 0.5)))
        x1 = min(width - 1, int(math.floor(max_x - 0.5)) + 1)
        y1 = min(height - 1, int(math.floor(max_y - 0.5)) + 1)
        if x1 < x0 or y1 < y0:
            continue

        v0, v1, v2 = triangle.vertices
        double_area = (v1.x - v0.x) * (v2.y - v0.y) - (v1.y - v0.y) * (v2.x - v0.x)
        e0, e1, e2 = v0, v1, v2
        if double_area < 0:
            e1, e2 = e2, e1
        for k, (a, b) in enumerate(((e0, e1), (e1, e2), (e2, e0))):
            dx, dy = b.x - a.x, b.y - a.y
            rows[f"ax{k}"].append(a.x)
            rows[f"ay{k}"].append(a.y)
            rows[f"dx{k}"].append(dx)
            rows[f"dy{k}"].append(dy)
            rows[f"tl{k}"].append(dy < 0 or (dy == 0 and dx > 0))

        rows["x0"].append(x0)
        rows["y0"].append(y0)
        rows["cols"].append(x1 - x0 + 1)
        rows["rows"].append(y1 - y0 + 1)
        rows["v0x"].append(v0.x)
        rows["v0y"].append(v0.y)
        rows["det"].append(double_area)
        rows["qx"].append(v2.y - v0.y)
        rows["qy"].append(v2.x - v0.x)
        rows["px"].append(v1.x - v0.x)
        rows["py"].append(v1.y - v0.y)
        for k, vertex in enumerate((v0, v1, v2)):
            rows[f"u{k}"].append(vertex.u)
            rows[f"v{k}"].append(vertex.v)
            rows[f"z{k}"].append(vertex.z)
        rows["texture"].append(triangle.texture)
        rows["level"].append(mip_level(triangle.texel_to_pixel_scale()))
        rows["id"].append(index)
    if not rows["x0"]:
        return None
    columns = {
        name: np.asarray(values, dtype=_SPEC_FIELDS[name])
        for name, values in rows.items()
    }
    return _SpecTable(columns)


_SPEC_FIELDS: Dict[str, object] = {
    "x0": np.int64,
    "y0": np.int64,
    "cols": np.int64,
    "rows": np.int64,
    "v0x": np.float64,
    "v0y": np.float64,
    "det": np.float64,
    "qx": np.float64,
    "qy": np.float64,
    "px": np.float64,
    "py": np.float64,
    "texture": np.int32,
    "level": np.int16,
    "id": np.int32,
}
for _k in range(3):
    _SPEC_FIELDS[f"ax{_k}"] = np.float64
    _SPEC_FIELDS[f"ay{_k}"] = np.float64
    _SPEC_FIELDS[f"dx{_k}"] = np.float64
    _SPEC_FIELDS[f"dy{_k}"] = np.float64
    _SPEC_FIELDS[f"tl{_k}"] = np.bool_
    _SPEC_FIELDS[f"u{_k}"] = np.float64
    _SPEC_FIELDS[f"v{_k}"] = np.float64
    _SPEC_FIELDS[f"z{_k}"] = np.float64


def _rasterize_span(spec: _SpecTable, first: int, last: int) -> Optional[Dict]:
    """Scan-convert triangles ``[first, last)`` of the spec table."""
    sel = slice(first, last)
    col = spec.columns
    areas = (col["cols"][sel] * col["rows"][sel]).astype(np.int64)
    total = int(areas.sum())
    if total == 0:
        return None
    offsets = np.concatenate(([0], np.cumsum(areas)[:-1]))

    # Candidates of one triangle are contiguous, so per-triangle
    # constants spread with np.repeat — much cheaper than gathering.
    def spread(name: str) -> np.ndarray:
        return np.repeat(col[name][sel], areas)

    flat = np.arange(total, dtype=np.int64) - np.repeat(offsets, areas)
    widths = spread("cols")
    row = flat // widths
    column = flat - row * widths
    gx = spread("x0") + column
    gy = spread("y0") + row
    sample_x = gx + 0.5
    sample_y = gy + 0.5

    inside = np.ones(total, dtype=bool)
    for k in range(3):
        edge = spread(f"dx{k}") * (sample_y - spread(f"ay{k}")) - spread(
            f"dy{k}"
        ) * (sample_x - spread(f"ax{k}"))
        inside &= np.where(spread(f"tl{k}"), edge >= 0, edge > 0)
    if not inside.any():
        return None
    tri = np.repeat(np.arange(first, last), areas)

    tri = tri[inside]
    frag_x = gx[inside]
    frag_y = gy[inside]
    cx = sample_x[inside]
    cy = sample_y[inside]

    det = col["det"][tri]
    rel_x = cx - col["v0x"][tri]
    rel_y = cy - col["v0y"][tri]
    w1 = (rel_x * col["qx"][tri] - rel_y * col["qy"][tri]) / det
    w2 = (col["px"][tri] * rel_y - col["py"][tri] * rel_x) / det
    w0 = 1.0 - w1 - w2
    return {
        "x": frag_x.astype(np.int32),
        "y": frag_y.astype(np.int32),
        "u": w0 * col["u0"][tri] + w1 * col["u1"][tri] + w2 * col["u2"][tri],
        "v": w0 * col["v0"][tri] + w1 * col["v1"][tri] + w2 * col["v2"][tri],
        "z": w0 * col["z0"][tri] + w1 * col["z1"][tri] + w2 * col["z2"][tri],
        "level": col["level"][tri],
        "texture": col["texture"][tri],
        "triangle": col["id"][tri],
    }


def rasterize_scene_batch(
    scene: Scene, mip_level: Callable[[float], int]
) -> FragmentBuffer:
    """Rasterize every triangle of a scene with flat array passes."""
    spec = _triangle_specs(scene, mip_level)
    if spec is None:
        return FragmentBuffer.empty(scene.num_triangles)
    areas = spec.columns["cols"] * spec.columns["rows"]
    ending = np.cumsum(areas)
    pieces: List[Dict] = []
    first = 0
    count = len(spec)
    while first < count:
        threshold = (ending[first - 1] if first else 0) + CHUNK_CANDIDATES
        last = int(np.searchsorted(ending, threshold, side="left")) + 1
        last = max(first + 1, min(last, count))
        piece = _rasterize_span(spec, first, last)
        if piece is not None:
            pieces.append(piece)
        first = last
    if not pieces:
        return FragmentBuffer.empty(scene.num_triangles)
    joined = {
        name: np.concatenate([piece[name] for piece in pieces])
        for name in FragmentBuffer.COLUMNS
    }
    return FragmentBuffer(num_triangles=scene.num_triangles, **joined)

