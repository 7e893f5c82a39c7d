"""Fragment buffers: the rasterizer's struct-of-arrays output.

A fragment is one drawn pixel of one triangle.  Buffers keep fragments
in engine order — triangles in submission order, pixels in scanline
order within a triangle — because both the texture cache and the timing
model are order-sensitive.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

#: Layout tag of :class:`FragmentBuffer` in artifact keys.  A buffer
#: pickled with float texture coordinates, or with per-fragment depth,
#: mip level or texture columns, in an artifact directory keeps its old
#: key and is never read back as one of half-texel indices.
FRAGMENTS_FORMAT = "half-texel-int16"


class FragmentBuffer:
    """Columnar storage for fragments.

    Columns
    -------
    One entry per fragment, 16 bytes in all.

    x, y:
        Integer pixel coordinates (``int32``).
    u_half, v_half:
        Texture coordinates as ``int16`` half-texel indices:
        :func:`repro.texture.filtering.half_texel_index` of the
        interpolated level-0 coordinate at the triangle's base mip
        level, ``floor(coord * 2**(1 - level))`` modulo ``2**15``.  The
        cache sees only line addresses, and the trilinear filter derives
        every texel it reads from these indices exactly.
    triangle:
        Index of the owning triangle in the scene's submission order
        (``int32``).

    Tables
    ------
    One entry per scene triangle.

    triangle_level:
        Base mipmap level the trilinear filter samples for the
        triangle's fragments (it also reads ``level + 1``); 0 for a
        triangle that draws nothing.
    triangle_texture:
        Texture table index of the triangle.

    The paper's machine picks the mip level and binds the texture once
    per triangle, at setup, so a fragment's level and texture are
    ``triangle_level[triangle]`` and ``triangle_texture[triangle]``.
    No column holds depth either: the machine removes hidden surfaces
    after texturing, and :func:`repro.raster.depth.fragment_depths`
    recomputes it from ``triangle``, ``x`` and ``y`` when asked.
    """

    COLUMNS = ("x", "y", "u_half", "v_half", "triangle")
    TABLES = ("triangle_level", "triangle_texture")

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        u_half: np.ndarray,
        v_half: np.ndarray,
        triangle: np.ndarray,
        triangle_level: np.ndarray,
        triangle_texture: np.ndarray,
    ) -> None:
        lengths = {len(col) for col in (x, y, u_half, v_half, triangle)}
        if len(lengths) != 1:
            raise ConfigurationError(f"fragment columns disagree on length: {lengths}")
        if len(triangle_level) != len(triangle_texture):
            raise ConfigurationError(
                f"triangle tables disagree on length: {len(triangle_level)} levels, "
                f"{len(triangle_texture)} textures"
            )
        self.x = np.asarray(x, dtype=np.int32)
        self.y = np.asarray(y, dtype=np.int32)
        self.u_half = np.asarray(u_half, dtype=np.int16)
        self.v_half = np.asarray(v_half, dtype=np.int16)
        self.triangle = np.asarray(triangle, dtype=np.int32)
        self.triangle_level = np.asarray(triangle_level, dtype=np.int16)
        self.triangle_texture = np.asarray(triangle_texture, dtype=np.int32)
        self.num_triangles = len(self.triangle_level)

    def __len__(self) -> int:
        return len(self.x)

    @classmethod
    def empty(cls, num_triangles: int = 0) -> "FragmentBuffer":
        """A buffer with no fragments (every triangle at level 0, texture 0)."""
        nothing = np.zeros(0)
        table = np.zeros(num_triangles)
        return cls(nothing, nothing, nothing, nothing, nothing, table, table)

    @classmethod
    def concatenate(cls, buffers: Sequence["FragmentBuffer"], num_triangles: int) -> "FragmentBuffer":
        """Join buffers of one scene preserving order; the tables carry over."""
        if not buffers:
            return cls.empty(num_triangles)
        first = buffers[0]
        for buffer in buffers[1:]:
            for name in cls.TABLES:
                if not np.array_equal(getattr(buffer, name), getattr(first, name)):
                    raise ConfigurationError(f"buffers disagree on {name}")
        columns = {
            name: np.concatenate([getattr(b, name) for b in buffers])
            for name in cls.COLUMNS
        }
        return cls(**columns, **{name: getattr(first, name) for name in cls.TABLES})

    def select(self, mask_or_index: np.ndarray) -> "FragmentBuffer":
        """A new buffer with the masked/indexed rows, order preserved."""
        columns = {name: getattr(self, name)[mask_or_index] for name in self.COLUMNS}
        return FragmentBuffer(**columns, **{name: getattr(self, name) for name in self.TABLES})

    def triangle_pixel_counts(self) -> np.ndarray:
        """Pixels drawn per triangle, indexed by triangle id."""
        return np.bincount(self.triangle, minlength=self.num_triangles)

    def __repr__(self) -> str:
        return f"FragmentBuffer({len(self)} fragments, {self.num_triangles} triangles)"
