"""Two-level texture-cache hierarchy.

The paper's future work points at a second cache level (after Cox et
al.): an L2 in the graphics-card memory that catches *inter-frame*
locality.  This model stacks two LRU caches — misses of the on-chip L1
flow into the L2; only L2 misses touch the texture memory — and is
stateful across frames so the inter-frame study can measure how much
of a panned frame the L2 still holds.
"""

from __future__ import annotations

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.lru import LruCache
from repro.cache.models import TextureCacheModel
from repro.texture.layout import TEXELS_PER_LINE

#: Cox et al. evaluate 2-8 MB second-level caches; default to 2 MB,
#: 8-way, with the same 64-byte lines as the L1.
DEFAULT_L2 = CacheConfig(total_bytes=2 * 1024 * 1024, ways=8)


class TwoLevelCache(TextureCacheModel):
    """L1 -> L2 -> memory; ``misses`` reports memory fetches."""

    texels_per_fetch = TEXELS_PER_LINE

    def __init__(
        self,
        l1_config: CacheConfig = CacheConfig(),
        l2_config: CacheConfig = DEFAULT_L2,
    ) -> None:
        self.l1_config = l1_config
        self.l2_config = l2_config
        self.name = (
            f"lru{l1_config.total_bytes // 1024}k"
            f"+l2-{l2_config.total_bytes // 1024}k"
        )
        self._l1 = LruCache(l1_config)
        self._l2 = LruCache(l2_config)
        #: L1 misses seen since the last reset (L1->L2 traffic).
        self.l1_misses = 0
        #: L2 misses seen since the last reset (memory traffic).
        self.l2_misses = 0

    def misses(self, lines: np.ndarray) -> np.ndarray:
        lines = np.asarray(lines, dtype=np.int64)
        l1_miss_mask = self._l1.simulate(lines)
        memory = np.zeros(len(lines), dtype=bool)
        positions = np.flatnonzero(l1_miss_mask)
        if len(positions):
            l2_miss_mask = self._l2.simulate(lines[positions])
            memory[positions] = l2_miss_mask
            self.l1_misses += len(positions)
            self.l2_misses += int(np.count_nonzero(l2_miss_mask))
        return memory

    def reset(self) -> None:
        self._l1.reset()
        self._l2.reset()
        self.l1_misses = 0
        self.l2_misses = 0

    def reset_l1_only(self) -> None:
        """Start a new frame on the same board: L1 cold, L2 warm.

        (A 16 KB L1 retains nothing useful across a frame anyway; this
        just makes the per-frame accounting clean.)
        """
        self._l1.reset()
