"""Fragment buffers: the rasterizer's struct-of-arrays output.

A fragment is one drawn pixel of one triangle.  Buffers keep fragments
in engine order — triangles in submission order, pixels in scanline
order within a triangle — because both the texture cache and the timing
model are order-sensitive.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError

#: Layout tag of :class:`FragmentBuffer` in artifact keys.  A buffer
#: pickled with an interpolated depth column in an artifact directory
#: keeps its old key and is never read back as a depth-free one.
FRAGMENTS_FORMAT = "no-depth"


class FragmentBuffer:
    """Columnar storage for fragments.

    Columns
    -------
    x, y:
        Integer pixel coordinates.
    u, v:
        Interpolated texture coordinates in level-0 texel units.
    level:
        Base mipmap level the trilinear filter samples (it also reads
        ``level + 1``).
    texture:
        Texture table index.
    triangle:
        Index of the owning triangle in the scene's submission order.

    The paper's machine removes hidden surfaces after texturing, so no
    column holds depth; :func:`repro.raster.depth.fragment_depths`
    recomputes it from ``triangle``, ``x`` and ``y`` when asked.
    """

    COLUMNS = ("x", "y", "u", "v", "level", "texture", "triangle")

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        level: np.ndarray,
        texture: np.ndarray,
        triangle: np.ndarray,
        num_triangles: int,
    ) -> None:
        lengths = {len(col) for col in (x, y, u, v, level, texture, triangle)}
        if len(lengths) != 1:
            raise ConfigurationError(f"fragment columns disagree on length: {lengths}")
        self.x = np.asarray(x, dtype=np.int32)
        self.y = np.asarray(y, dtype=np.int32)
        self.u = np.asarray(u, dtype=np.float64)
        self.v = np.asarray(v, dtype=np.float64)
        self.level = np.asarray(level, dtype=np.int16)
        self.texture = np.asarray(texture, dtype=np.int32)
        self.triangle = np.asarray(triangle, dtype=np.int32)
        self.num_triangles = num_triangles

    def __len__(self) -> int:
        return len(self.x)

    @classmethod
    def empty(cls, num_triangles: int = 0) -> "FragmentBuffer":
        """A buffer with no fragments."""
        nothing = np.zeros(0)
        return cls(
            nothing, nothing, nothing, nothing, nothing, nothing, nothing, num_triangles
        )

    @classmethod
    def concatenate(cls, buffers: Sequence["FragmentBuffer"], num_triangles: int) -> "FragmentBuffer":
        """Join buffers preserving order."""
        if not buffers:
            return cls.empty(num_triangles)
        columns = {
            name: np.concatenate([getattr(b, name) for b in buffers])
            for name in cls.COLUMNS
        }
        return cls(num_triangles=num_triangles, **columns)

    def select(self, mask_or_index: np.ndarray) -> "FragmentBuffer":
        """A new buffer with the masked/indexed rows, order preserved."""
        columns = {name: getattr(self, name)[mask_or_index] for name in self.COLUMNS}
        return FragmentBuffer(num_triangles=self.num_triangles, **columns)

    def triangle_pixel_counts(self) -> np.ndarray:
        """Pixels drawn per triangle, indexed by triangle id."""
        return np.bincount(self.triangle, minlength=self.num_triangles)

    def iter_rows(self) -> Iterator[tuple]:
        """Yield fragments as tuples, mainly for tests and debugging."""
        for i in range(len(self)):
            yield (
                int(self.x[i]),
                int(self.y[i]),
                float(self.u[i]),
                float(self.v[i]),
                int(self.level[i]),
                int(self.texture[i]),
                int(self.triangle[i]),
            )

    def __repr__(self) -> str:
        return f"FragmentBuffer({len(self)} fragments, {self.num_triangles} triangles)"
