"""Reference set-associative LRU: the stepwise walk and the scalar replay.

:class:`ReferenceLru` extends the shipped :class:`~repro.cache.lru.LruCache`
with the two obvious implementations the batch replay
(:mod:`repro.cache.batchlru`) must match bit for bit:

* :meth:`ReferenceLru.access` — one line at a time;
* :meth:`ReferenceLru.replay` — a whole stream, consecutive repeats
  collapsed, then stably partitioned by set and each set replayed with
  a per-access Python loop.

Both read and write the same per-set recency lists as the inherited
:meth:`~repro.cache.lru.LruCache.simulate`, so one instance can mix
all three entry points and tests can check they leave identical state.
"""

from __future__ import annotations

import numpy as np

from repro.cache.lru import LruCache


class ReferenceLru(LruCache):
    """An :class:`LruCache` with the per-access reference paths."""

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

    def replay(self, lines: np.ndarray) -> np.ndarray:
        """Scalar per-set replay of a stream; returns the miss mask."""
        lines = np.asarray(lines)
        if lines.dtype != np.int32 and lines.dtype != np.int64:
            lines = lines.astype(np.int64)
        n = len(lines)
        misses = np.zeros(n, dtype=bool)
        if n == 0:
            return misses

        # Collapse consecutive duplicates: repeats always hit.
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        positions = np.flatnonzero(keep)
        deduped = lines[positions]

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
