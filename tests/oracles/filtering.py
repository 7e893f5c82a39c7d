"""Reference trilinear filter: per-fragment levels, ``%`` wraps.

The shipped :class:`repro.texture.filtering.TrilinearFilter` reads the
mip level and the texture once per run of equal triangle ids and wraps
coordinates with power-of-two masks.  This is the generic per-fragment
footprint it was derived from: every fragment carries its own level and
texture id, each corner re-gathers the layout row through
:meth:`TextureMemoryLayout.slot`, and coordinates wrap with ``%``.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.texture.filtering import TEXELS_PER_FRAGMENT
from repro.texture.layout import TextureMemoryLayout


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
    slots = layout.slot(texture_ids, levels)
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
    address_fn: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
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
        out[:, base + 0] = address_fn(texture_ids, lvl, i0, j0)
        out[:, base + 1] = address_fn(texture_ids, lvl, i1, j0)
        out[:, base + 2] = address_fn(texture_ids, lvl, i0, j1)
        out[:, base + 3] = address_fn(texture_ids, lvl, i1, j1)
    return out


def reference_line_addresses(
    layout: TextureMemoryLayout,
    u: np.ndarray,
    v: np.ndarray,
    triangles: np.ndarray,
    triangle_level: np.ndarray,
    triangle_texture: np.ndarray,
) -> np.ndarray:
    """``TrilinearFilter.line_addresses`` fragment by fragment, ``int64``."""
    return footprint(
        layout, u, v, triangle_level[triangles], triangle_texture[triangles],
        layout.line_address,
    )


def reference_texel_addresses(
    layout: TextureMemoryLayout,
    u: np.ndarray,
    v: np.ndarray,
    triangles: np.ndarray,
    triangle_level: np.ndarray,
    triangle_texture: np.ndarray,
) -> np.ndarray:
    """``TrilinearFilter.texel_addresses`` fragment by fragment."""
    return footprint(
        layout, u, v, triangle_level[triangles], triangle_texture[triangles],
        layout.texel_address,
    )
