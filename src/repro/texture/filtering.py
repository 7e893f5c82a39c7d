"""Trilinear filter footprint generation.

Drawing one pixel with trilinear mipmapped filtering reads a 2x2 bilinear
footprint from each of two adjacent mipmap levels — the eight texels per
fragment the paper's bandwidth arithmetic is built on.  This module
turns fragment batches into the exact sequence of cache-line addresses
the texture cache sees, in scan order.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.texture.layout import TextureMemoryLayout

#: Trilinear filtering reads 8 texels per drawn fragment.
TEXELS_PER_FRAGMENT = 8


def _wrapped_floor(
    coord: np.ndarray, scale: np.ndarray, mask: np.ndarray, itype: type
) -> np.ndarray:
    """``floor(coord * scale - 0.5)`` wrapped by ``& mask``, as ``itype``."""
    scaled = coord * scale
    scaled -= 0.5
    np.floor(scaled, out=scaled)
    wrapped = scaled.astype(itype)
    wrapped &= mask
    return wrapped


class TrilinearFilter:
    """Generates trilinear texel footprints against a memory layout."""

    def __init__(self, layout: TextureMemoryLayout) -> None:
        self.layout = layout

    @property
    def line_dtype(self) -> type:
        """The integer type :meth:`line_addresses` returns."""
        return np.int32 if self.layout.narrow else np.int64

    def _bilinear_corners(
        self,
        u: np.ndarray,
        v: np.ndarray,
        levels: np.ndarray,
        texture_ids: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Wrapped integer corner coordinates ``(i0, i1, j0, j1)``.

        ``u``/``v`` are level-0 texel coordinates; they are scaled into
        the requested level, offset by the half-texel bilinear rule and
        wrapped (GL_REPEAT).
        """
        slots = self.layout.slot(texture_ids, levels)
        width = self.layout.level_width[slots]
        height = self.layout.level_height[slots]
        scale = np.ldexp(1.0, -levels.astype(np.int32))
        ul = u * scale - 0.5
        vl = v * scale - 0.5
        i0 = np.floor(ul).astype(np.int64) % width
        j0 = np.floor(vl).astype(np.int64) % height
        i1 = (i0 + 1) % width
        j1 = (j0 + 1) % height
        return i0, i1, j0, j1

    def _footprint(
        self,
        u: np.ndarray,
        v: np.ndarray,
        levels: np.ndarray,
        texture_ids: np.ndarray,
        address_fn: Callable[
            [np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray
        ],
    ) -> np.ndarray:
        """Stack the eight per-fragment addresses, shape ``(n, 8)``.

        Within a fragment the order is the hardware's natural one: the
        four corners of the lower (finer) level, then the four corners of
        the next level.
        """
        n = len(u)
        upper = np.minimum(levels + 1, self.layout.num_levels[texture_ids] - 1)
        out = np.empty((n, TEXELS_PER_FRAGMENT), dtype=np.int64)
        for half, lvl in enumerate((levels, upper)):
            i0, i1, j0, j1 = self._bilinear_corners(u, v, lvl, texture_ids)
            base = half * 4
            out[:, base + 0] = address_fn(texture_ids, lvl, i0, j0)
            out[:, base + 1] = address_fn(texture_ids, lvl, i1, j0)
            out[:, base + 2] = address_fn(texture_ids, lvl, i0, j1)
            out[:, base + 3] = address_fn(texture_ids, lvl, i1, j1)
        return out

    def line_addresses(
        self,
        u: np.ndarray,
        v: np.ndarray,
        levels: np.ndarray,
        texture_ids: np.ndarray,
    ) -> np.ndarray:
        """Cache-line address of each of the 8 texels, shape ``(n, 8)``.

        Fused fast path: the generic :meth:`_footprint` re-gathers the
        layout tables through :meth:`TextureMemoryLayout.slot` for every
        corner; here each level half gathers its slot row once and the
        four corner addresses share the row term, computed in place.
        Every value matches the generic path's: the coordinates are the
        same expressions, and the wrap by mask equals its ``%`` on the
        power-of-two level sides (the footprint property test pins the
        equivalence bit for bit).
        """
        layout = self.layout
        n = len(u)
        narrow = layout.narrow
        # Own the index dtypes so callers can hand over raw fragment
        # columns (int16 levels, int32 texture ids) without widening.
        if narrow:
            texture_ids = np.asarray(texture_ids).astype(np.int32, copy=False)
            levels = np.asarray(levels).astype(np.int32, copy=False)
            num_levels = layout.num_levels32
            level_width = layout.level_width32
            level_height = layout.level_height32
            line_base = layout.line_base32
            blocks_wide = layout.blocks_wide32
        else:
            texture_ids = np.asarray(texture_ids).astype(np.int64, copy=False)
            levels = np.asarray(levels).astype(np.int64, copy=False)
            num_levels = layout.num_levels
            level_width = layout.level_width
            level_height = layout.level_height
            line_base = layout.line_base
            blocks_wide = layout.blocks_wide
        itype = self.line_dtype
        upper = np.minimum(levels + 1, num_levels[texture_ids] - 1)
        out = np.empty((n, TEXELS_PER_FRAGMENT), dtype=itype)
        max_levels = layout.max_levels
        for half, lvl in enumerate((levels, upper)):
            # One clamp + gather per half; `scale` uses the *unclamped*
            # level, exactly as _bilinear_corners does.
            slots = texture_ids * max_levels + np.minimum(
                lvl, num_levels[texture_ids] - 1
            )
            # Level sides are powers of two (1 for the tail levels), so
            # wrapping is a mask: ``x & (side - 1)`` is ``x % side`` for
            # every sign.
            width_mask = level_width[slots]
            width_mask -= 1
            height_mask = level_height[slots]
            height_mask -= 1
            scale = np.ldexp(1.0, -lvl.astype(np.int32))
            i0 = _wrapped_floor(u, scale, width_mask, itype)
            j0 = _wrapped_floor(v, scale, height_mask, itype)
            i1 = i0 + 1
            i1 &= width_mask
            j1 = j0 + 1
            j1 &= height_mask
            i0 >>= layout._shift_w
            i1 >>= layout._shift_w
            row_base = line_base[slots]
            row_stride = blocks_wide[slots]
            j0 >>= layout._shift_h
            j0 *= row_stride
            j0 += row_base
            j1 >>= layout._shift_h
            j1 *= row_stride
            j1 += row_base
            base = half * 4
            np.add(j0, i0, out=out[:, base + 0])
            np.add(j0, i1, out=out[:, base + 1])
            np.add(j1, i0, out=out[:, base + 2])
            np.add(j1, i1, out=out[:, base + 3])
        return out

    def texel_addresses(
        self,
        u: np.ndarray,
        v: np.ndarray,
        levels: np.ndarray,
        texture_ids: np.ndarray,
    ) -> np.ndarray:
        """Globally unique id of each of the 8 texels, shape ``(n, 8)``."""
        return self._footprint(u, v, levels, texture_ids, self.layout.texel_address)
