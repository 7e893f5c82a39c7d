"""Batch scan conversion: a whole scene's triangles in array passes.

This is the engine's only rasterizer.  Setup is the work the paper's
setup engine performs at one triangle per 25 cycles; here it is array
arithmetic on the scene's vertex table, mip selection included: a
triangle whose texel scale sits within a relative ``_MIP_MARGIN`` of
a power of two takes the scalar rule instead (DESIGN.md §10).
For edge ``k`` from ``a_k`` to ``b_k`` of the positively-wound
triangle, ``E_k(p) = dx_k * (p.y - ay_k) - dy_k * (p.x - ax_k)`` is
positive strictly inside.  Pixel centres on an edge follow the
top-left fill rule: screen y grows downward, so a *left* edge runs
upward (``dy < 0``) and a *top* edge runs right (``dy == 0, dx > 0``),
and only those edges own their boundary pixels.  A pixel on an edge
shared by two triangles therefore belongs to exactly one of them;
without the rule, meshes would show systematic overdraw and the
depth-complexity accounting would drift.

Scanning is a span generator, like the paper's scanner, which visits
only covered pixels.  In each (triangle, row), a ``dy < 0`` edge
bounds the covered columns from the left, a ``dy > 0`` edge from the
right, and a ``dy == 0`` edge keeps or empties the row.  The bounds
are widened by ``_MARGIN`` pixels, the two pixels at each end are
edge-tested with the exact expressions above, and only the exact span
is generated.  Triangles with an edge of ``0 < |dy| < _SMALL_DY`` have
every box pixel tested.  DESIGN.md §10 gives the exactness argument.

Fragments come out in submission order, and within a triangle in
scanline order (rows top to bottom, pixels left to right).  The
per-triangle reference rasterizer in ``tests/oracles`` tests every
pixel of every bounding box; property tests assert the output
:class:`FragmentBuffer` matches it column for column, bit for bit,
under random triangle splits and on adversarial scenes.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.scene import Scene, triangle_from_row
from repro.obs.registry import registry
from repro.raster.fragments import FragmentBuffer
from repro.raster.raster import MAX_MIP_LEVEL, mip_level_for_scale
from repro.texture.filtering import half_texel_index

#: Candidate pixels (bounding-box area) processed per pass — bounds the
#: working set of the flat arrays regardless of scene size and keeps
#: the hot arrays cache-resident.
CHUNK_CANDIDATES = 1 << 18

#: Pixels added on each side of a row's computed span before its ends
#: are edge-tested.  The computed crossing of an edge is within far
#: less than one pixel of where the edge test changes sign.
_MARGIN = 1

#: Edges with ``0 < |dy|`` below this are too close to horizontal to
#: trust their crossing; their triangle's rows are tested in full.
_SMALL_DY = 1e-6

#: Beyond any pixel coordinate; marks a row without a covered pixel.
_FAR = 1 << 40

#: Relative distance from a power of two within which a triangle's
#: column-computed texel scale cannot decide its mip level.  The column
#: scale differs from the scalar one only by ``np.sqrt`` against
#: ``** 0.5`` (under 2 ulp), and ``math.log2`` errs by under 1 ulp, so
#: any scale farther out floors to the same level on both paths.
_MIP_MARGIN = 1e-9


#: Per-triangle edge constants: origin, direction and fill-rule owner.
_Edge = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _mip_levels(table: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Base mip level of each triangle row: :func:`mip_level_for_scale` on columns.

    ``det`` is the rows' doubled signed area.  The texel scale follows
    :meth:`~repro.geometry.triangle.Triangle.texel_to_pixel_scale`
    expression by expression; ``np.frexp`` then gives
    ``floor(log2(scale))`` exactly.  Rows whose scale is not finite or
    lies within ``_MIP_MARGIN`` of a power of two take the scalar path.
    """
    x, y, u, v = (table[:, k:15:5] for k in range(4))
    dx1, dx2 = x[:, 1] - x[:, 0], x[:, 2] - x[:, 0]
    dy1, dy2 = y[:, 1] - y[:, 0], y[:, 2] - y[:, 0]
    du1, du2 = u[:, 1] - u[:, 0], u[:, 2] - u[:, 0]
    dv1, dv2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        du_dx = (du1 * dy2 - du2 * dy1) / det
        du_dy = (du2 * dx1 - du1 * dx2) / det
        dv_dx = (dv1 * dy2 - dv2 * dy1) / det
        dv_dy = (dv2 * dx1 - dv1 * dx2) / det
        scale = np.maximum(
            np.sqrt(du_dx * du_dx + dv_dx * dv_dx),
            np.sqrt(du_dy * du_dy + dv_dy * dv_dy),
        )
    mantissa, exponent = np.frexp(scale)
    # ``scale = mantissa * 2**exponent`` with ``mantissa`` in [0.5, 1).
    near = (
        ~np.isfinite(scale)
        | (2.0 * mantissa - 1.0 <= _MIP_MARGIN)
        | (1.0 - mantissa <= _MIP_MARGIN)
    )
    levels = np.where(scale <= 1.0, 0, np.minimum(MAX_MIP_LEVEL, exponent - 1))
    for row in np.flatnonzero(near).tolist():
        triangle = triangle_from_row(table[row].tolist())
        levels[row] = mip_level_for_scale(triangle.texel_to_pixel_scale())
    return levels.astype(np.int16)


def _triangle_specs(scene: Scene) -> Optional[Dict[str, np.ndarray]]:
    """Extract edge and interpolation constants for live triangles.

    Mirrors the reference rasterizer exactly: degenerate triangles and empty
    pixel clips are dropped here, winding is normalised for the edge
    functions, and interpolation solves against the *original* vertex
    order.  Every expression is the reference's, evaluated on columns.
    """
    if scene.num_triangles == 0:
        return None
    table = scene.vertex_table
    vx, vy = table[:, 0:15:5], table[:, 1:15:5]

    double_area = (vx[:, 1] - vx[:, 0]) * (vy[:, 2] - vy[:, 0]) - (
        vy[:, 1] - vy[:, 0]
    ) * (vx[:, 2] - vx[:, 0])
    # Pixel (i, j) has its centre at (i + 0.5, j + 0.5); find the pixel
    # range whose centres can fall inside the bounding box.
    x0 = np.maximum(0.0, np.ceil(vx.min(axis=1) - 0.5))
    y0 = np.maximum(0.0, np.ceil(vy.min(axis=1) - 0.5))
    x1 = np.minimum(scene.width - 1.0, np.floor(vx.max(axis=1) - 0.5) + 1.0)
    y1 = np.minimum(scene.height - 1.0, np.floor(vy.max(axis=1) - 0.5) + 1.0)
    live = (np.abs(0.5 * double_area) >= 1e-12) & (x1 >= x0) & (y1 >= y0)
    ids = np.flatnonzero(live)
    if len(ids) == 0:
        return None

    table, vx, vy, det = table[ids], vx[ids], vy[ids], double_area[ids]
    columns: Dict[str, np.ndarray] = {
        "x0": x0[ids].astype(np.int64),
        "y0": y0[ids].astype(np.int64),
        "cols": (x1[ids] - x0[ids]).astype(np.int64) + 1,
        "rows": (y1[ids] - y0[ids]).astype(np.int64) + 1,
        "v0x": vx[:, 0],
        "v0y": vy[:, 0],
        "det": det,
        "qx": vy[:, 2] - vy[:, 0],
        "qy": vx[:, 2] - vx[:, 0],
        "px": vx[:, 1] - vx[:, 0],
        "py": vy[:, 1] - vy[:, 0],
        # Live triangles have ``|det| >= 2e-12``, past the scalar
        # degenerate cut-off, so only the scale expressions matter.
        "level": _mip_levels(table, 2.0 * (0.5 * det)),
        "id": ids.astype(np.int32),
    }
    for k in range(3):
        columns[f"u{k}"] = table[:, 5 * k + 2]
        columns[f"v{k}"] = table[:, 5 * k + 3]
        columns[f"z{k}"] = table[:, 5 * k + 4]

    # Edge functions run over the positively wound vertex order.
    swap = det < 0
    ex = [vx[:, 0], np.where(swap, vx[:, 2], vx[:, 1]), np.where(swap, vx[:, 1], vx[:, 2])]
    ey = [vy[:, 0], np.where(swap, vy[:, 2], vy[:, 1]), np.where(swap, vy[:, 1], vy[:, 2])]
    small = np.zeros(len(ids), dtype=bool)
    for k in range(3):
        a, b = k, (k + 1) % 3
        dx, dy = ex[b] - ex[a], ey[b] - ey[a]
        columns[f"ax{k}"], columns[f"ay{k}"] = ex[a], ey[a]
        columns[f"dx{k}"], columns[f"dy{k}"] = dx, dy
        columns[f"tl{k}"] = (dy < 0) | ((dy == 0) & (dx > 0))
        small |= (dy != 0) & (np.abs(dy) < _SMALL_DY)
    columns["full_scan"] = small
    return columns


def _edge_passes(edge: _Edge, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """The exact edge test with the top-left rule at sample positions."""
    ax, ay, dx, dy, top_left = edge
    value = dx * (sy - ay) - dy * (sx - ax)
    return np.where(top_left, value >= 0, value > 0)


def _covered(edges: Sequence[_Edge], sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Coverage at sample positions: every edge test passes."""
    inside = _edge_passes(edges[0], sx, sy)
    for edge in edges[1:]:
        inside &= _edge_passes(edge, sx, sy)
    return inside


def _row_spans(
    edges: Sequence[_Edge], sy: np.ndarray, left: np.ndarray, right: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact covered span ``[start, stop]`` of every row, and pixels tested.

    ``left``/``right`` are the box columns of each row.  A row without
    a covered pixel gets ``start > stop``.
    """
    lo = left.astype(np.float64)
    hi = right.astype(np.float64)
    open_row = np.ones(len(sy), dtype=bool)
    for edge in edges:
        ax, ay, dx, dy, _ = edge
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # Centre offset of the column where the edge crosses the row.
            cross = ax + dx * (sy - ay) / dy - 0.5
        lo = np.where(dy < 0, np.maximum(lo, np.ceil(cross) - _MARGIN), lo)
        hi = np.where(dy > 0, np.minimum(hi, np.floor(cross) + _MARGIN), hi)
        flat = dy == 0
        if flat.any():
            open_row &= ~flat | _edge_passes(edge, left + 0.5, sy)
    lo = np.minimum(lo, right + 1).astype(np.int64)
    hi = np.maximum(hi, left - 1).astype(np.int64)
    hi[~open_row] = lo[~open_row] - 1

    # Pixels two or more columns inside the widened span pass every
    # edge; test the two pixels at each end.
    probes = np.stack([lo, lo + 1, hi - 1, hi])
    passed = _covered(edges, probes + 0.5, sy) & (probes >= lo) & (probes <= hi)
    start = np.where(passed, probes, _FAR).min(axis=0)
    stop = np.where(passed, probes, -_FAR).max(axis=0)
    interior = hi - lo >= 4
    start[interior] = np.minimum(start[interior], lo[interior] + 2)
    stop[interior] = np.maximum(stop[interior], hi[interior] - 2)
    return start, stop, np.clip(hi - lo + 1, 0, 4)


def _full_row_spans(
    edges: Sequence[_Edge], sy: np.ndarray, left: np.ndarray, right: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Like :func:`_row_spans`, testing every pixel of every row's box."""
    widths = right - left + 1
    total = int(widths.sum())
    firsts = np.cumsum(widths) - widths
    gx = np.arange(total, dtype=np.int64) + np.repeat(left - firsts, widths)
    passed = _covered(
        [tuple(np.repeat(part, widths) for part in edge) for edge in edges],
        gx + 0.5,
        np.repeat(sy, widths),
    )
    start = np.minimum.reduceat(np.where(passed, gx, _FAR), firsts)
    stop = np.maximum.reduceat(np.where(passed, gx, -_FAR), firsts)
    return start, stop, widths


class _Rows(NamedTuple):
    """The covered spans of one pass's rows, in scanline order."""

    sel: slice  # the pass's triangles
    heights: np.ndarray  # rows per triangle
    gy: np.ndarray  # pixel row
    start: np.ndarray  # first covered column
    counts: np.ndarray  # covered pixels
    qy_term: np.ndarray  # the row's ``rel_y * qy``
    px_term: np.ndarray  # the row's ``px * rel_y``
    tested: int  # pixels edge-tested


def _scan_rows(spec: Dict[str, np.ndarray], first: int, last: int) -> _Rows:
    """Find the covered span of every row of triangles ``[first, last)``."""
    sel = slice(first, last)
    heights = spec["rows"][sel]

    # Rows of one triangle are contiguous, so per-triangle constants
    # spread with np.repeat — much cheaper than gathering.
    def per_row(name: str) -> np.ndarray:
        return np.repeat(spec[name][sel], heights)

    row_first = np.cumsum(heights) - heights
    gy = np.arange(int(heights.sum()), dtype=np.int64) + np.repeat(
        spec["y0"][sel] - row_first, heights
    )
    sy = gy + 0.5
    left = per_row("x0")
    right = left + per_row("cols") - 1
    edges = [
        tuple(per_row(f"{name}{k}") for name in ("ax", "ay", "dx", "dy", "tl"))
        for k in range(3)
    ]
    start, stop, tested = _row_spans(edges, sy, left, right)
    full = per_row("full_scan")
    if full.any():
        picked = np.flatnonzero(full)
        start[picked], stop[picked], tested[picked] = _full_row_spans(
            [tuple(part[picked] for part in edge) for edge in edges],
            sy[picked],
            left[picked],
            right[picked],
        )
    # The barycentric solve's row terms, exactly as the reference forms
    # them per pixel (``rel_y`` is the same for every pixel of a row).
    rel_y = sy - per_row("v0y")
    return _Rows(
        sel=sel,
        heights=heights,
        gy=gy,
        start=start,
        counts=np.maximum(stop - start + 1, 0),
        qy_term=rel_y * per_row("qy"),
        px_term=per_row("px") * rel_y,
        tested=int(tested.sum()),
    )


def _weights(
    rel_x: np.ndarray,
    qy_term: np.ndarray,
    px_term: np.ndarray,
    spread: Callable[[str], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Barycentric weights ``(w0, w1, w2)``, in the reference's float order.

    ``rel_x`` is the pixel centre's offset from vertex 0 in x;
    ``qy_term`` and ``px_term`` are ``rel_y * qy`` and ``px * rel_y``;
    ``spread(name)`` gives a per-triangle constant for every fragment.
    """
    det = spread("det")
    w1 = (rel_x * spread("qx") - qy_term) / det
    w2 = (px_term - spread("py") * rel_x) / det
    return 1.0 - w1 - w2, w1, w2


def _interpolate(
    weights: Tuple[np.ndarray, np.ndarray, np.ndarray],
    name: str,
    spread: Callable[[str], np.ndarray],
    out: np.ndarray,
) -> None:
    """Write ``w0*name0 + w1*name1 + w2*name2`` into ``out``, left to right."""
    w0, w1, w2 = weights
    np.multiply(w0, spread(f"{name}0"), out=out)
    out += w1 * spread(f"{name}1")
    out += w2 * spread(f"{name}2")


def _rasterize_span(
    spec: Dict[str, np.ndarray], rows: _Rows, out: Dict[str, np.ndarray]
) -> np.ndarray:
    """Generate and interpolate the fragments of ``rows`` into ``out``.

    Each texture coordinate is interpolated in ``float64`` and stored
    as its half-texel index at the triangle's mip level.  Returns the
    fragments drawn of each of the pass's triangles.
    """
    counts = rows.counts
    row_offsets = np.cumsum(counts) - counts
    frag_x = np.arange(len(out["x"]), dtype=np.int64) + np.repeat(
        rows.start - row_offsets, counts
    )
    per_triangle = np.add.reduceat(counts, np.cumsum(rows.heights) - rows.heights)

    def spread(name: str) -> np.ndarray:
        return np.repeat(spec[name][rows.sel], per_triangle)

    weights = _weights(
        (frag_x + 0.5) - spread("v0x"),
        np.repeat(rows.qy_term, counts),
        np.repeat(rows.px_term, counts),
        spread,
    )
    out["x"][:] = frag_x
    out["y"][:] = np.repeat(rows.gy, counts)
    coord = np.empty(len(frag_x))
    level = spread("level")
    for name in ("u", "v"):
        _interpolate(weights, name, spread, coord)
        half_texel_index(coord, level, out=out[f"{name}_half"])
    out["triangle"][:] = spread("id")
    return per_triangle


def _passes(spec: Dict[str, np.ndarray]) -> Iterator[Tuple[int, int]]:
    """Triangle ranges of at most ``CHUNK_CANDIDATES`` box pixels (or one)."""
    ending = np.cumsum(spec["cols"] * spec["rows"])
    first = 0
    count = len(ending)
    while first < count:
        threshold = (ending[first - 1] if first else 0) + CHUNK_CANDIDATES
        last = int(np.searchsorted(ending, threshold, side="left")) + 1
        last = max(first + 1, min(last, count))
        yield first, last
        first = last


def rasterize_scene_batch(scene: Scene) -> FragmentBuffer:
    """Rasterize every triangle of a scene with flat array passes.

    A first sweep finds every row's covered span; the second writes
    each pass's fragments straight into the output columns, texture
    coordinates quantized by
    :func:`~repro.texture.filtering.half_texel_index` at their
    triangle's mip level into ``u_half``/``v_half``.  The mip level of
    every triangle that draws a fragment goes to the buffer's
    ``triangle_level`` table (0 for the others), and the scene's
    texture column is its ``triangle_texture`` table.  Adds the
    pixels edge-tested and the fragments kept to the scene-labelled
    ``raster.candidates`` and ``raster.fragments`` counters of
    :mod:`repro.obs`.
    """
    spec = _triangle_specs(scene)
    scans = [] if spec is None else [_scan_rows(spec, *span) for span in _passes(spec)]
    sizes = [int(rows.counts.sum()) for rows in scans]
    total = sum(sizes)
    template = FragmentBuffer.empty()
    columns = {
        name: np.empty(total, dtype=getattr(template, name).dtype)
        for name in FragmentBuffer.COLUMNS
    }
    levels = np.zeros(scene.num_triangles, dtype=np.int16)
    offset = 0
    for rows, size in zip(scans, sizes):
        piece = {name: values[offset : offset + size] for name, values in columns.items()}
        drawn = _rasterize_span(spec, rows, piece) > 0
        levels[spec["id"][rows.sel][drawn]] = spec["level"][rows.sel][drawn]
        offset += size
    metrics = registry()
    metrics.counter("raster.candidates").labels(scene=scene.name).inc(
        sum(rows.tested for rows in scans)
    )
    metrics.counter("raster.fragments").labels(scene=scene.name).inc(total)
    return FragmentBuffer(
        **columns, triangle_level=levels, triangle_texture=scene.texture_ids
    )


def fragment_depths(scene: Scene, fragments: FragmentBuffer) -> np.ndarray:
    """Interpolated depth of every fragment of ``scene``, bit for bit.

    The buffer carries no depth column: the paper's machine textures
    every fragment, so only the early-Z ablation asks for depth.  Each
    fragment's depth is recomputed from its triangle's constants and
    its pixel centre with the rasterizer's own float operations, in the
    same order, so it equals the value the scan converter would have
    interpolated.  ``fragments`` may be any selection of the scene's
    rasterisation.
    """
    depths = np.empty(len(fragments))
    if len(fragments) == 0:
        return depths
    spec = _triangle_specs(scene)
    assert spec is not None  # a fragment belongs to a drawable triangle
    row = np.searchsorted(spec["id"], fragments.triangle)

    def spread(name: str) -> np.ndarray:
        return spec[name][row]

    rel_y = (fragments.y + 0.5) - spread("v0y")
    weights = _weights(
        (fragments.x + 0.5) - spread("v0x"),
        rel_y * spread("qy"),
        spread("px") * rel_y,
        spread,
    )
    _interpolate(weights, "z", spread, depths)
    return depths
