"""Trilinear filter footprint generation.

Drawing one pixel with trilinear mipmapped filtering reads a 2x2 bilinear
footprint from each of two adjacent mipmap levels — the eight texels per
fragment the paper's bandwidth arithmetic is built on.  This module
turns fragment batches into the exact sequence of cache-line addresses
the texture cache sees, in scan order.

Fragments reach the filter as half-texel indices, not float texture
coordinates: :func:`half_texel_index` is the one rule that quantizes an
interpolated coordinate, and the filter derives every corner from its
result with integer operations (DESIGN.md §10 gives the exactness
argument).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.texture.layout import TextureMemoryLayout
from repro.texture.texture import MAX_TEXTURE_SIDE

#: Trilinear filtering reads 8 texels per drawn fragment.
TEXELS_PER_FRAGMENT = 8

#: A stored half-texel index is kept modulo this: a wrapped corner on a
#: level side of at most ``MAX_TEXTURE_SIDE`` depends only on the index
#: modulo twice the side, and the residue fits ``int16``.
HALF_TEXEL_MODULUS = 2 * MAX_TEXTURE_SIDE


def half_texel_index(
    coord: np.ndarray, level: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Quantize level-0 texel coordinates to the filter's ``int16`` input.

    ``level`` (broadcast against ``coord``) is the base mip level ``L``
    of each coordinate's triangle.  With ``s = coord * 2**(1 - L)``, the
    result is ``k = floor(s)`` modulo ``HALF_TEXEL_MODULUS``: the
    half-texel index at level ``L``.  The filter reads the lower half's
    low corner as ``(k - 1) >> 1`` and the upper half's as
    ``(k - 2) >> 2``, which are the float corners ``floor(s/2 - 1/2)``
    and ``floor(s/4 - 1/2)``, except where a float subtraction rounds:
    just below a negative power of two, ``s/2 - 1/2`` or ``s/4 - 1/2``
    can tie and round up onto an integer, which moves that corner up by
    one.  There ``k`` is ``floor(s) + 1``, the index whose shifts give
    the rounded corners.  A chunk whose ``s`` all lie in
    ``[0, HALF_TEXEL_MODULUS)`` has no such values and needs no modulo,
    so it takes a plain cast.  The indices are written to ``out`` when
    it is given.
    """
    scaled = np.ldexp(coord, 1 - level)
    if out is None:
        out = np.empty(scaled.shape, dtype=np.int16)
    if not scaled.size:
        return out
    if 0.0 <= scaled.min() and scaled.max() < HALF_TEXEL_MODULUS:
        # Truncation is floor on non-negative values.
        np.copyto(out, scaled, casting="unsafe")
        return out
    index = np.floor(scaled)
    lower = np.floor((scaled - 1.0) * 0.5)
    upper = np.floor((scaled - 2.0) * 0.25)
    index += (np.floor((index - 1.0) * 0.5) != lower) | (
        np.floor((index - 2.0) * 0.25) != upper
    )
    np.copyto(out, np.mod(index, HALF_TEXEL_MODULUS), casting="unsafe")
    return out


def _wrapped_pair(
    index: np.ndarray, half: int, mask: np.ndarray, shift: int
) -> Tuple[np.ndarray, np.ndarray]:
    """A half's low and high corner along one axis, shifted right by ``shift``.

    The low corner is ``(index - 1) >> 1`` for the lower half (``half``
    0) and ``(index - 2) >> 2`` for the upper one, the high one the next
    texel; both are wrapped by ``& mask``.  Everything stays ``int16``:
    wrapping past the type's range changes an index by a multiple of
    ``HALF_TEXEL_MODULUS``, which no masked corner sees.
    """
    low = index - np.int16(half + 1)
    low >>= half + 1
    low &= mask
    high = low + np.int16(1)
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

    Both address methods take per-fragment ``u_half``/``v_half`` (the
    ``int16`` half-texel indices of :func:`half_texel_index`) and
    triangle ids, plus the fragment buffer's per-triangle
    ``triangle_level`` and ``triangle_texture`` tables: the mip level
    and the texture are triangle state, as on the paper's engine, which
    picks them once per triangle at setup.  Each run of equal triangle
    ids reads its layout row once per mip half, and ``np.repeat``
    spreads the run's constants over its fragments.  Every corner comes
    from the indices by integer shifts and masks.  Within a fragment
    the eight addresses come in the hardware's natural order: the four
    bilinear corners ``(i0, j0)``, ``(i1, j0)``, ``(i0, j1)``,
    ``(i1, j1)`` of the lower (finer) level, then those of the next
    level.  ``tests/oracles/filtering.py`` is the per-fragment float
    reference that :func:`half_texel_index` followed by either method
    is held to bit for bit.
    """

    def __init__(self, layout: TextureMemoryLayout) -> None:
        self.layout = layout

    @property
    def line_dtype(self) -> type:
        """The integer type :meth:`line_addresses` returns."""
        return np.int32 if self.layout.narrow else np.int64

    def line_addresses(
        self,
        u_half: np.ndarray,
        v_half: np.ndarray,
        triangles: np.ndarray,
        triangle_level: np.ndarray,
        triangle_texture: np.ndarray,
    ) -> np.ndarray:
        """Cache-line address of each of the 8 texels, shape ``(n, 8)``.

        A corner's line is its block's: the slot's line base plus the
        block row times the blocks per row plus the block column.  With
        ``layout.narrow`` (total lines < 2**31) the row arithmetic runs
        in ``int32``.
        """
        layout = self.layout
        return self._footprint(
            u_half, v_half, triangles, triangle_level, triangle_texture,
            self.line_dtype, (layout._shift_w, layout._shift_h),
            layout.blocks_wide, layout.line_base,
        )

    def texel_addresses(
        self,
        u_half: np.ndarray,
        v_half: np.ndarray,
        triangles: np.ndarray,
        triangle_level: np.ndarray,
        triangle_texture: np.ndarray,
    ) -> np.ndarray:
        """Globally unique id of each of the 8 texels, shape ``(n, 8)``."""
        layout = self.layout
        return self._footprint(
            u_half, v_half, triangles, triangle_level, triangle_texture, np.int64,
            (0, 0), layout.level_width, layout.texel_base,
        )

    def _footprint(
        self,
        u_half: np.ndarray,
        v_half: np.ndarray,
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

        Per run and mip half, the two wrap masks and the two row terms
        are computed once and spread.  The lower half clamps its slot
        into the pyramid; the upper half is the next level, clamped to
        the 1x1 tail.  Level sides are powers of two (1 for the tail
        levels), so the GL_REPEAT wrap is a mask: ``x & (side - 1)`` is
        ``x % side`` for every sign.  A level at or past the tail has
        masks 0, so its corners do not depend on the indices.  The four
        corners share the row terms.
        """
        layout = self.layout
        out = np.empty((len(u_half), TEXELS_PER_FRAGMENT), dtype=itype)
        if not len(u_half):
            return out
        starts, lengths = _triangle_runs(triangles)
        run_triangles = triangles[starts]
        levels = triangle_level[run_triangles].astype(np.int64)
        texture_ids = triangle_texture[run_triangles].astype(np.int64)
        top = layout.num_levels[texture_ids] - 1
        rows = texture_ids * layout.max_levels
        shift_w, shift_h = shifts
        slots = (rows + np.minimum(levels, top), rows + np.minimum(levels + 1, top))

        def spread(per_run: np.ndarray, dtype: type) -> np.ndarray:
            return np.repeat(per_run.astype(dtype, copy=False), lengths)

        for half, slot in enumerate(slots):
            i0, i1 = _wrapped_pair(
                u_half, half, spread(layout.level_width[slot] - 1, np.int16), shift_w
            )
            j0, j1 = _wrapped_pair(
                v_half, half, spread(layout.level_height[slot] - 1, np.int16), shift_h
            )
            stride = spread(row_stride[slot], itype)
            base = spread(row_base[slot], itype)
            row0 = j0 * stride
            row0 += base
            row1 = j1 * stride
            row1 += base
            corners = out[:, half * 4 : half * 4 + 4]
            np.add(row0, i0, out=corners[:, 0])
            np.add(row0, i1, out=corners[:, 1])
            np.add(row1, i0, out=corners[:, 2])
            np.add(row1, i1, out=corners[:, 3])
        return out
