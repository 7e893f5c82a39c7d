"""Set-associative LRU cache simulation.

Two equivalent interfaces are provided:

* :meth:`LruCache.access` — one line at a time; the obvious reference
  implementation, used directly by unit and property tests.
* :meth:`LruCache.simulate` — whole address streams at once.  It
  exploits two exact identities to stay fast in Python: an access to
  the line its set accessed last always hits and changes nothing (so
  such re-reads can be dropped), and accesses to different sets never
  interact (so the stream can be stably partitioned per set and each
  set replayed independently).  Both replays drop consecutive
  repeats; the batch replay (:mod:`repro.cache.batchlru`) then drops
  every other per-set re-read too.  All paths produce bit-identical
  miss masks.

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

    # -- reference path ------------------------------------------------------

    def access(self, line: int) -> bool:
        """Access one line; returns True on hit."""
        line = int(line)
        ways = self._sets.setdefault(line % self.config.num_sets, [])
        try:
            position = ways.index(line)
        except ValueError:
            if len(ways) >= self.config.ways:
                ways.pop()
            ways.insert(0, line)
            return False
        if position:
            del ways[position]
            ways.insert(0, line)
        return True

    # -- batched path ----------------------------------------------------------

    def simulate(
        self, lines: np.ndarray, *, force_scalar: bool = False
    ) -> np.ndarray:
        """Access a stream of lines; returns a per-access miss mask.

        The replay normally runs through the chunk-parallel batch path
        (:mod:`repro.cache.batchlru`); ``force_scalar`` pins the scalar
        per-set reference loop instead, which equivalence tests compare
        against bit-exactly.
        """
        lines = np.asarray(lines)
        if lines.dtype != np.int32 and lines.dtype != np.int64:
            lines = lines.astype(np.int64)
        n = len(lines)
        misses = np.zeros(n, dtype=bool)
        if n == 0:
            return misses

        # Collapse consecutive duplicates: repeats always hit.  The batch
        # replay finds these too (with every other re-read of a set's MRU
        # line), but this one compare halves the input of its set sort.
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        positions = np.flatnonzero(keep)
        deduped = lines[positions]

        if not force_scalar:
            replayed = batchlru.replay(
                deduped, self.config.num_sets, self.config.ways, self._sets
            )
            if replayed is not None:
                deduped_misses, self._sets = replayed
                misses[positions] = deduped_misses
                return misses

        # -- scalar reference replay ---------------------------------------
        # Stable partition by set; each set's subsequence keeps its order.
        sets = deduped % self.config.num_sets
        order = np.argsort(sets, kind="stable")
        sorted_sets = sets[order]
        boundaries = np.flatnonzero(np.diff(sorted_sets)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(order)]))

        deduped_misses = np.zeros(len(positions), dtype=bool)
        max_ways = self.config.ways
        for start, end in zip(starts, ends):
            indices = order[start:end]
            ways = self._sets.setdefault(int(sorted_sets[start]), [])
            for index in indices:
                line = int(deduped[index])
                try:
                    position = ways.index(line)
                except ValueError:
                    deduped_misses[index] = True
                    if len(ways) >= max_ways:
                        ways.pop()
                    ways.insert(0, line)
                else:
                    if position:
                        del ways[position]
                        ways.insert(0, line)

        misses[positions] = deduped_misses
        return misses

    def contents(self) -> Dict[int, List[int]]:
        """Snapshot of each non-empty set, MRU first (for tests)."""
        return {index: list(ways) for index, ways in self._sets.items() if ways}
