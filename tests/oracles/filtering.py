"""Reference trilinear filter: float coordinates, per-fragment levels, ``%`` wraps.

The shipped :class:`repro.texture.filtering.TrilinearFilter` takes the
``int16`` half-texel indices of
:func:`repro.texture.filtering.half_texel_index`, reads the mip level
and the texture once per run of equal triangle ids and derives every
corner with integer shifts and power-of-two masks.  This is the generic
per-fragment float footprint it was derived from: every fragment
carries its own level and texture id and its float level-0 ``u``/``v``,
each corner re-gathers the layout row through :func:`slot`, the low
corner is ``floor(coord * 2**-level - 0.5)`` and coordinates wrap with
``%``.  :func:`line_address` and :func:`texel_address` are the
per-texel address rules of
:class:`~repro.texture.layout.TextureMemoryLayout`.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.texture.filtering import TEXELS_PER_FRAGMENT
from repro.texture.layout import TextureMemoryLayout


def slot(layout: TextureMemoryLayout, texture_ids: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Flat layout-table index for arrays of texture ids and mip levels."""
    clamped = np.minimum(levels, layout.num_levels[texture_ids] - 1)
    return texture_ids * layout.max_levels + clamped


def line_address(
    layout: TextureMemoryLayout,
    texture_ids: np.ndarray,
    levels: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
) -> np.ndarray:
    """Global cache-line address of texel ``(i, j)`` at a mip level.

    ``i``/``j`` are texel coordinates *already wrapped* into the
    level.  Arrays broadcast together elementwise.
    """
    slots = slot(layout, texture_ids, levels)
    return (
        layout.line_base[slots]
        + (j >> layout._shift_h) * layout.blocks_wide[slots]
        + (i >> layout._shift_w)
    )


def texel_address(
    layout: TextureMemoryLayout,
    texture_ids: np.ndarray,
    levels: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
) -> np.ndarray:
    """Globally unique texel id, for unique-texel/fragment accounting."""
    slots = slot(layout, texture_ids, levels)
    return layout.texel_base[slots] + j * layout.level_width[slots] + i


def bilinear_corners(
    layout: TextureMemoryLayout,
    u: np.ndarray,
    v: np.ndarray,
    levels: np.ndarray,
    texture_ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Wrapped integer corner coordinates ``(i0, i1, j0, j1)``.

    ``u``/``v`` are level-0 texel coordinates; they are scaled into the
    requested level, offset by the half-texel bilinear rule and wrapped
    (GL_REPEAT).
    """
    slots = slot(layout, texture_ids, levels)
    width = layout.level_width[slots]
    height = layout.level_height[slots]
    scale = np.ldexp(1.0, -levels.astype(np.int32))
    ul = u * scale - 0.5
    vl = v * scale - 0.5
    i0 = np.floor(ul).astype(np.int64) % width
    j0 = np.floor(vl).astype(np.int64) % height
    i1 = (i0 + 1) % width
    j1 = (j0 + 1) % height
    return i0, i1, j0, j1


def footprint(
    layout: TextureMemoryLayout,
    u: np.ndarray,
    v: np.ndarray,
    levels: np.ndarray,
    texture_ids: np.ndarray,
    address_fn: Callable[..., np.ndarray],
) -> np.ndarray:
    """Stack the eight per-fragment addresses, shape ``(n, 8)``.

    Within a fragment the order is the hardware's natural one: the four
    corners of the lower (finer) level, then the four corners of the
    next level.
    """
    levels = np.asarray(levels, dtype=np.int64)
    texture_ids = np.asarray(texture_ids, dtype=np.int64)
    upper = np.minimum(levels + 1, layout.num_levels[texture_ids] - 1)
    out = np.empty((len(u), TEXELS_PER_FRAGMENT), dtype=np.int64)
    for half, lvl in enumerate((levels, upper)):
        i0, i1, j0, j1 = bilinear_corners(layout, u, v, lvl, texture_ids)
        base = half * 4
        out[:, base + 0] = address_fn(layout, texture_ids, lvl, i0, j0)
        out[:, base + 1] = address_fn(layout, texture_ids, lvl, i1, j0)
        out[:, base + 2] = address_fn(layout, texture_ids, lvl, i0, j1)
        out[:, base + 3] = address_fn(layout, texture_ids, lvl, i1, j1)
    return out


def reference_line_addresses(
    layout: TextureMemoryLayout,
    u: np.ndarray,
    v: np.ndarray,
    triangles: np.ndarray,
    triangle_level: np.ndarray,
    triangle_texture: np.ndarray,
) -> np.ndarray:
    """``TrilinearFilter.line_addresses`` of the half-texel indices of the
    float ``u``/``v``, fragment by fragment, ``int64``."""
    return footprint(
        layout, u, v, triangle_level[triangles], triangle_texture[triangles],
        line_address,
    )


def reference_texel_addresses(
    layout: TextureMemoryLayout,
    u: np.ndarray,
    v: np.ndarray,
    triangles: np.ndarray,
    triangle_level: np.ndarray,
    triangle_texture: np.ndarray,
) -> np.ndarray:
    """``TrilinearFilter.texel_addresses`` of the half-texel indices of the
    float ``u``/``v``, fragment by fragment."""
    return footprint(
        layout, u, v, triangle_level[triangles], triangle_texture[triangles],
        texel_address,
    )
