"""Mipmapped texture descriptors.

Only the *shape* of a texture matters to a cache study — texel contents
are never stored.  A texture is its level-dimension pyramid plus the
derived byte footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import ConfigurationError

#: Bytes per texel (32-bit RGBA, as in the paper).
BYTES_PER_TEXEL = 4


@dataclass(frozen=True)
class MipmapLevel:
    """Dimensions of one mipmap level, in texels."""

    width: int
    height: int

    @property
    def texels(self) -> int:
        return self.width * self.height


class MipmappedTexture:
    """A 2D texture with a full mipmap pyramid down to 1x1.

    Parameters
    ----------
    width, height:
        Level-0 dimensions in texels.  Must be powers of two (the usual
        constraint of the era's hardware, and what keeps block-linear
        addressing exact).
    """

    def __init__(self, width: int, height: int) -> None:
        for name, value in (("width", width), ("height", height)):
            if value < 1 or value & (value - 1):
                raise ConfigurationError(
                    f"texture {name} must be a positive power of two, got {value}"
                )
        self.width = width
        self.height = height
        self.levels: List[MipmapLevel] = []
        w, h = width, height
        while True:
            self.levels.append(MipmapLevel(w, h))
            if w == 1 and h == 1:
                break
            w = max(1, w // 2)
            h = max(1, h // 2)

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def level(self, index: int) -> MipmapLevel:
        """Dimensions of level ``index`` (clamped to the last level)."""
        return self.levels[min(index, self.num_levels - 1)]

    def total_texels(self) -> int:
        """Texels over the whole pyramid."""
        return sum(level.texels for level in self.levels)

    def total_bytes(self) -> int:
        """Memory footprint of the whole pyramid."""
        return self.total_texels() * BYTES_PER_TEXEL

    def __repr__(self) -> str:
        return f"MipmappedTexture({self.width}x{self.height}, {self.num_levels} levels)"
