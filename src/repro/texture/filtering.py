"""Trilinear filter footprint generation.

Drawing one pixel with trilinear mipmapped filtering reads a 2x2 bilinear
footprint from each of two adjacent mipmap levels — the eight texels per
fragment the paper's bandwidth arithmetic is built on.  This module
turns fragment batches into the exact sequence of cache-line addresses
the texture cache sees, in scan order.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.texture.layout import TextureMemoryLayout

#: Trilinear filtering reads 8 texels per drawn fragment.
TEXELS_PER_FRAGMENT = 8


def _wrapped_pair(
    coord: np.ndarray, scale: np.ndarray, mask: np.ndarray, shift: int, itype: type
) -> Tuple[np.ndarray, np.ndarray]:
    """A half's low and high corner along one axis, shifted right by ``shift``.

    The low corner is ``floor(coord * scale - 0.5)``, the high one the
    next texel; both are wrapped by ``& mask`` as ``itype``.
    """
    scaled = coord * scale
    scaled -= 0.5
    np.floor(scaled, out=scaled)
    low = scaled.astype(itype)
    low &= mask
    high = low + 1
    high &= mask
    low >>= shift
    high >>= shift
    return low, high


def _triangle_runs(triangles: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal consecutive triangle ids.

    A node's stream keeps each triangle's fragments together, so a
    chunk holds far fewer runs than fragments.
    """
    starts = np.flatnonzero(triangles[1:] != triangles[:-1])
    starts += 1
    starts = np.concatenate((np.zeros(1, dtype=starts.dtype), starts))
    return starts, np.diff(starts, append=len(triangles))


class TrilinearFilter:
    """Generates trilinear texel footprints against a memory layout.

    Both address methods take per-fragment ``u``/``v`` (level-0 texel
    coordinates) and triangle ids, plus the fragment buffer's
    per-triangle ``triangle_level`` and ``triangle_texture`` tables: the
    mip level and the texture are triangle state, as on the paper's
    engine, which picks them once per triangle at setup.  Each run of
    equal triangle ids reads its layout row once per mip half, and
    ``np.repeat`` spreads the run's constants over its fragments.
    Within a fragment the eight addresses come in the hardware's
    natural order: the four bilinear corners ``(i0, j0)``, ``(i1, j0)``,
    ``(i0, j1)``, ``(i1, j1)`` of the lower (finer) level, then those
    of the next level.  ``tests/oracles/filtering.py`` is the
    per-fragment reference both methods are held to bit for bit.
    """

    def __init__(self, layout: TextureMemoryLayout) -> None:
        self.layout = layout

    @property
    def line_dtype(self) -> type:
        """The integer type :meth:`line_addresses` returns."""
        return np.int32 if self.layout.narrow else np.int64

    def line_addresses(
        self,
        u: np.ndarray,
        v: np.ndarray,
        triangles: np.ndarray,
        triangle_level: np.ndarray,
        triangle_texture: np.ndarray,
    ) -> np.ndarray:
        """Cache-line address of each of the 8 texels, shape ``(n, 8)``.

        A corner's line is its block's: the slot's line base plus the
        block row times the blocks per row plus the block column.  With
        ``layout.narrow`` (total lines < 2**31) the per-fragment
        arithmetic runs in ``int32``.
        """
        layout = self.layout
        return self._footprint(
            u, v, triangles, triangle_level, triangle_texture, self.line_dtype,
            (layout._shift_w, layout._shift_h), layout.blocks_wide, layout.line_base,
        )

    def texel_addresses(
        self,
        u: np.ndarray,
        v: np.ndarray,
        triangles: np.ndarray,
        triangle_level: np.ndarray,
        triangle_texture: np.ndarray,
    ) -> np.ndarray:
        """Globally unique id of each of the 8 texels, shape ``(n, 8)``."""
        layout = self.layout
        return self._footprint(
            u, v, triangles, triangle_level, triangle_texture, np.int64,
            (0, 0), layout.level_width, layout.texel_base,
        )

    def _footprint(
        self,
        u: np.ndarray,
        v: np.ndarray,
        triangles: np.ndarray,
        triangle_level: np.ndarray,
        triangle_texture: np.ndarray,
        itype: type,
        shifts: Tuple[int, int],
        row_stride: np.ndarray,
        row_base: np.ndarray,
    ) -> np.ndarray:
        """Each corner's ``row_base + (j >> shift_h) * row_stride + (i >>
        shift_w)``, with the slot tables ``row_stride`` and ``row_base``.

        Per run and mip half, the scale, the two wrap masks and the two
        row terms are computed once and spread.  The lower half keeps
        its unclamped level for the scale and clamps its slot into the
        pyramid; the upper half is the next level, clamped to the 1x1
        tail.  Level sides are powers of two (1 for the tail levels), so
        the GL_REPEAT wrap is a mask: ``x & (side - 1)`` is ``x % side``
        for every sign.  The four corners share the row terms, computed
        in place.
        """
        layout = self.layout
        out = np.empty((len(u), TEXELS_PER_FRAGMENT), dtype=itype)
        if not len(u):
            return out
        starts, lengths = _triangle_runs(triangles)
        run_triangles = triangles[starts]
        levels = triangle_level[run_triangles].astype(np.int64)
        texture_ids = triangle_texture[run_triangles].astype(np.int64)
        top = layout.num_levels[texture_ids] - 1
        upper = np.minimum(levels + 1, top)
        rows = texture_ids * layout.max_levels
        shift_w, shift_h = shifts
        halves = ((levels, rows + np.minimum(levels, top)), (upper, rows + upper))

        def spread(per_run: np.ndarray) -> np.ndarray:
            return np.repeat(per_run.astype(itype, copy=False), lengths)

        for half, (level, slots) in enumerate(halves):
            scale = np.repeat(np.ldexp(1.0, -level.astype(np.int32)), lengths)
            i0, i1 = _wrapped_pair(
                u, scale, spread(layout.level_width[slots] - 1), shift_w, itype
            )
            j0, j1 = _wrapped_pair(
                v, scale, spread(layout.level_height[slots] - 1), shift_h, itype
            )
            stride = spread(row_stride[slots])
            base = spread(row_base[slots])
            for j in (j0, j1):
                j *= stride
                j += base
            corners = out[:, half * 4 : half * 4 + 4]
            np.add(j0, i0, out=corners[:, 0])
            np.add(j0, i1, out=corners[:, 1])
            np.add(j1, i0, out=corners[:, 2])
            np.add(j1, i1, out=corners[:, 3])
        return out
