"""Reference page table: per-call page arithmetic and sorted feedback.

:class:`ReferencePageTable` extends the shipped
:class:`~repro.texture.pages.PageTable` with the two straightforward
bodies its hot paths were derived from, which the shipped ones must
match bit for bit:

* :meth:`ReferencePageTable.translate` — split each line into page and
  offset, look the page's frame up (the fallback frame when it is not
  resident) and recombine, on every call;
* :meth:`ReferencePageTable.observe` — ``np.unique`` over the chunk's
  whole page stream gives each page's first index, and the pages new
  this frame are ranked by it.

Both read and write the same per-page state as the inherited
:meth:`~repro.texture.pages.PageTable.advance_frame`, so a reference
table and a shipped one fed the same streams must keep identical
mappings, histories and cache keys.
"""

from __future__ import annotations

import numpy as np

from repro.texture.pages import PageTable


class ReferencePageTable(PageTable):
    """A :class:`PageTable` with the per-call reference paths."""

    def translate(self, lines: np.ndarray) -> np.ndarray:
        if self.identity:
            return lines
        pages = lines >> self._shift
        offsets = lines & (self.config.page_lines - 1)
        frames = self._frame_of_page[pages]
        frames = np.where(frames >= 0, frames, self.fallback_frame)
        return frames * self.config.page_lines + offsets

    def observe(self, lines: np.ndarray) -> None:
        pages = np.asarray(lines) >> self._shift
        counts = np.bincount(pages, minlength=self.num_pages)
        self._touch_count += counts
        self._fault_count += np.where(self._frame_of_page < 0, counts, 0)

        # np.unique returns sorted pages with each one's first index in
        # this chunk; ordering fresh pages by that index is the stream's
        # first-touch order — deterministic, no hash order anywhere.
        uniq, first_index = np.unique(pages, return_index=True)
        fresh_mask = self._touch_rank[uniq] < 0
        fresh = uniq[fresh_mask]
        if fresh.size:
            order = np.argsort(first_index[fresh_mask], kind="stable")
            ranked = fresh[order]
            self._touch_rank[ranked] = self._next_rank + np.arange(
                fresh.size, dtype=np.int64
            )
            self._next_rank += int(fresh.size)
