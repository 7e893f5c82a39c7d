"""Set-associative LRU cache simulation.

:meth:`LruCache.simulate` replays whole address streams at once.  It
exploits two exact identities to stay fast in Python: accesses to
different sets never interact (so the stream can be stably
partitioned per set and each set replayed independently), and in a
set's own order an access that repeats the access ``k <= W`` places
back always hits — every whole repeat of such a period changes
nothing, so those re-reads can be dropped (``k = 1`` is a re-read of
the set's MRU line).  The chunk-parallel batch replay
(:mod:`repro.cache.batchlru`) collapses consecutive repeats, drops
MRU re-reads it can see a few stream positions back, sorts the rest
by set, drops the other periodic per-set re-reads and replays what
is left.  The stepwise and scalar per-set references it must match
bit for bit live in ``tests/oracles``.

The cache is *stateful across calls*, so long streams can be fed in
chunks.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.cache import batchlru
from repro.cache.config import CacheConfig


class LruCache:
    """An N-way set-associative cache with true-LRU replacement."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: Dict[int, List[int]] = {}

    def reset(self) -> None:
        """Empty the cache."""
        self._sets.clear()

    def simulate(self, lines: np.ndarray) -> np.ndarray:
        """Access a stream of lines; returns a per-access miss mask.

        Raises :class:`~repro.errors.ConfigurationError` on a negative
        line address, or on addresses so large that the replay's int64
        sort keys would overflow.
        """
        lines = np.asarray(lines)
        if lines.dtype != np.int32 and lines.dtype != np.int64:
            lines = lines.astype(np.int64)
        misses, self._sets = batchlru.replay(
            lines, self.config.num_sets, self.config.ways, self._sets
        )
        return misses

    def contents(self) -> Dict[int, List[int]]:
        """Snapshot of each non-empty set, MRU first (for tests)."""
        return {index: list(ways) for index, ways in self._sets.items() if ways}
