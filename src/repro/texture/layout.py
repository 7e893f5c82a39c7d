"""Block-linear placement of textures in the node's texture memory.

Every mipmap level of every texture is stored as a row-major grid of
4x4-texel blocks; with 4-byte texels one block is exactly one 64-byte
cache line, the organisation Hakura & Gupta showed to maximise the
spatial locality a texture cache can exploit.  The layout assigns each
(texture, level) a base *line number* so that the filter can turn texel
coordinates into global cache-line addresses, and a base *texel number*
for unique-texel accounting.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.texture.texture import BYTES_PER_TEXEL, MipmappedTexture

#: Texel block edge, in texels (blocks are BLOCK_EDGE x BLOCK_EDGE).
BLOCK_EDGE = 4
#: Texels per block == texels per cache line.
TEXELS_PER_LINE = BLOCK_EDGE * BLOCK_EDGE
#: Bytes per cache line.
LINE_BYTES = 64


class TextureMemoryLayout:
    """Assigns cache-line and texel addresses for a set of textures.

    The layout is immutable once built.  All lookup tables are flat
    numpy arrays indexed by ``texture_index * max_levels + level`` so the
    trilinear filter can translate whole fragment batches with pure
    array arithmetic.
    """

    def __init__(
        self,
        textures: Sequence[MipmappedTexture],
        block_shape: tuple = None,
        bytes_per_texel: int = BYTES_PER_TEXEL,
    ) -> None:
        """``bytes_per_texel`` sets the texel format (4 = the paper's
        32-bit RGBA; 2 = a 16-bit format, doubling the texels one
        64-byte line holds).  ``block_shape`` is the (width, height) of
        the texel tile one cache line holds; it must contain exactly
        ``64 / bytes_per_texel`` texels.  The default is the squarest
        power-of-two tile (Hakura & Gupta's 2D blocking: 4x4 at 32-bit,
        8x4 at 16-bit); (16, 1) reproduces a plain raster-linear layout,
        kept for the blocking ablation."""
        if not textures:
            raise ConfigurationError("a texture layout needs at least one texture")
        if bytes_per_texel < 1 or LINE_BYTES % bytes_per_texel:
            raise ConfigurationError(
                f"bytes per texel must divide {LINE_BYTES}, got {bytes_per_texel}"
            )
        self.bytes_per_texel = bytes_per_texel
        self.texels_per_line = LINE_BYTES // bytes_per_texel
        if block_shape is None:
            block_h = 1
            while (block_h * 2) * (block_h * 2) <= self.texels_per_line:
                block_h *= 2
            block_shape = (self.texels_per_line // block_h, block_h)
        block_w, block_h = block_shape
        if block_w * block_h != self.texels_per_line or block_w < 1 or block_h < 1:
            raise ConfigurationError(
                f"a line block must hold exactly {self.texels_per_line} texels, "
                f"got {block_w}x{block_h}"
            )
        if block_w & (block_w - 1) or block_h & (block_h - 1):
            raise ConfigurationError("block dimensions must be powers of two")
        self.block_shape = (block_w, block_h)
        self._shift_w = block_w.bit_length() - 1
        self._shift_h = block_h.bit_length() - 1
        self.textures: List[MipmappedTexture] = list(textures)
        self.max_levels = max(t.num_levels for t in self.textures)

        n = len(self.textures)
        stride = self.max_levels
        self.level_width = np.ones(n * stride, dtype=np.int64)
        self.level_height = np.ones(n * stride, dtype=np.int64)
        self.blocks_wide = np.ones(n * stride, dtype=np.int64)
        self.line_base = np.zeros(n * stride, dtype=np.int64)
        self.texel_base = np.zeros(n * stride, dtype=np.int64)
        self.num_levels = np.ones(n, dtype=np.int64)

        next_line = 0
        next_texel = 0
        for t_index, texture in enumerate(self.textures):
            self.num_levels[t_index] = texture.num_levels
            for l_index in range(stride):
                level = texture.level(l_index)
                slot = t_index * stride + l_index
                self.level_width[slot] = level.width
                self.level_height[slot] = level.height
                blocks_w = -(-level.width // block_w)
                blocks_h = -(-level.height // block_h)
                self.blocks_wide[slot] = blocks_w
                if l_index < texture.num_levels:
                    self.line_base[slot] = next_line
                    self.texel_base[slot] = next_texel
                    next_line += blocks_w * blocks_h
                    next_texel += level.texels
                else:
                    # Clamped duplicate of the 1x1 tail level.
                    self.line_base[slot] = self.line_base[slot - 1]
                    self.texel_base[slot] = self.texel_base[slot - 1]
        self.total_lines = next_line
        self.total_texels = next_texel
        # Line addresses fit 32 bits for any realistic layout; the
        # filter's per-fragment arithmetic then runs in int32, which
        # halves its memory traffic.
        self.narrow = self.total_lines < 2**31

    def total_bytes(self) -> int:
        """Bytes of texture memory the layout occupies."""
        return self.total_lines * LINE_BYTES
