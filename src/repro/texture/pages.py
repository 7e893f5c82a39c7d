"""Virtual texturing: a page table between the filter and the cache.

The direct path hands :class:`~repro.texture.filtering.TrilinearFilter`
line addresses straight to the cache model — every texture line has a
fixed physical address.  Virtual texturing (Neu's thesis in PAPERS.md)
decouples the two: the *virtual* line space of the mipmap layout is
split into pages of ``page_lines`` cache lines, and only a resident
subset of pages is mapped to physical page frames at any time.  An
access to a non-resident page is a **fault**: it is serviced from a
single shared fallback frame this frame (the classic "render with what
you have" fallback of feedback-driven virtual texturing) and recorded
so the paging loop can adjust residency for the next frame of a
:func:`~repro.workloads.sequence.pan_sequence`.

Design constraints, in order:

* **Exactness identity.**  At ``residency_fraction=1.0`` every page is
  resident under the identity mapping, nothing can ever fault or be
  evicted, and :meth:`PageTable.translate` is a bit-exact no-op: the
  VT path collapses onto the direct path (property tests and golden
  points enforce this).
* **Pure translation.**  ``translate`` never mutates the table, so it
  is chunk-stable and call-split invariant by construction and the
  artifact pipeline can key a replay on :meth:`PageTable.cache_key`.
  Feedback is collected by the separate :meth:`observe` pass over the
  frame's submission-order access stream — which also keeps the
  residency trajectory independent of the machine's distribution (all
  distributions draw the same fragments, only split differently).
* **Linear-time hot paths.**  ``translate`` is one gather through a
  per-frame line map (virtual line → physical line, fallback frame
  and in-page offset folded in), rebuilt only where the mapping
  changes: at construction and at the end of :meth:`advance_frame`.
  ``observe`` never sorts the access stream: a page's first
  occurrence in a chunk is always a point where the page changes, so
  its first index is an O(n) minimum over the chunk's change points,
  and only the pages new this frame are ranked.
* **Deterministic paging.**  Feedback accumulates through array ops
  only — per-page bincounts plus a first-touch rank ordered by each
  page's first index in the stream — so the trajectory is a pure
  function of the access stream, with no set/dict iteration order
  anywhere.  The per-frame residency update is the LRU
  self-synchronisation identity of DESIGN.md §10: the new resident
  set is the ``num_frames`` most-recently-touched pages among
  (touched ∪ resident), which is exactly what demand-paged LRU
  converges to after the frame.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.texture.filtering import TEXELS_PER_FRAGMENT

if TYPE_CHECKING:
    import numpy.typing as npt

    from repro.raster.fragments import FragmentBuffer
    from repro.texture.filtering import TrilinearFilter

#: Default page size, in 64-byte cache lines (16 lines = 1 KB pages).
DEFAULT_PAGE_LINES = 16


@dataclass(frozen=True)
class VirtualTextureConfig:
    """The two knobs of the virtual-texturing model.

    ``page_lines`` is the page size in cache lines (power of two, so
    line→page is a shift); ``residency_fraction`` is the fraction of
    virtual pages backed by physical frames (1.0 = fully resident, the
    exactness-identity configuration).
    """

    page_lines: int = DEFAULT_PAGE_LINES
    residency_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.page_lines < 1 or (self.page_lines & (self.page_lines - 1)):
            raise ConfigurationError(
                f"page_lines must be a power of two >= 1, got {self.page_lines}"
            )
        if not 0.0 < self.residency_fraction <= 1.0:
            raise ConfigurationError(
                f"residency_fraction must be in (0, 1], got {self.residency_fraction}"
            )

    def describe(self) -> str:
        return f"pages{self.page_lines}l/res{self.residency_fraction:g}"


class PageTable:
    """LRU-paged mapping from virtual texture lines to physical frames.

    The table is frozen within a frame: :meth:`translate` rewrites a
    line-address stream through the current mapping without side
    effects, :meth:`observe` accumulates the frame's touch/fault
    feedback, and :meth:`advance_frame` applies that feedback — paging
    faulted pages in, evicting least-recently-touched residents — and
    clears it for the next frame.
    """

    def __init__(
        self, total_lines: int, config: Optional[VirtualTextureConfig] = None
    ) -> None:
        if total_lines < 1:
            raise ConfigurationError(f"need at least one line, got {total_lines}")
        self.config = config or VirtualTextureConfig()
        self.total_lines = int(total_lines)
        page_lines = self.config.page_lines
        self._shift = page_lines.bit_length() - 1
        self.num_pages = -(-self.total_lines // page_lines)
        if self.config.residency_fraction >= 1.0:
            self.num_frames = self.num_pages
        else:
            self.num_frames = max(
                1, int(self.num_pages * self.config.residency_fraction)
            )
        #: Fully resident tables keep the identity mapping forever (no
        #: page can ever fault or be evicted), so translation is a
        #: guaranteed bit-exact no-op — returned as the *same* array.
        self.identity = self.num_frames == self.num_pages

        # Cold state: the lowest-numbered pages are resident, identity
        # mapped, with page p's recency stamp p (page 0 is the LRU).
        frame_of_page = np.full(self.num_pages, -1, dtype=np.int64)
        frame_of_page[: self.num_frames] = np.arange(self.num_frames, dtype=np.int64)
        self._frame_of_page = frame_of_page
        self._recency = np.arange(self.num_pages, dtype=np.int64)
        self._recency[self.num_frames :] = -1
        self._clock = self.num_frames
        #: Virtual line -> physical line for the current mapping; the
        #: identity table needs none (it returns its input).
        self._line_map: Optional[np.ndarray] = None
        if not self.identity:
            self._build_line_map()

        # Per-frame feedback accumulators (cleared by advance_frame).
        self._touch_rank = np.full(self.num_pages, -1, dtype=np.int64)
        self._touch_count = np.zeros(self.num_pages, dtype=np.int64)
        self._fault_count = np.zeros(self.num_pages, dtype=np.int64)
        self._next_rank = 0

        self.frame_index = 0
        #: Per-frame paging statistics, appended by :meth:`advance_frame`.
        self.history: List[Dict[str, int]] = []

    # -- translation (pure) -------------------------------------------

    @property
    def address_space_lines(self) -> int:
        """Size of the translated (physical) line address space.

        One extra frame past the resident set is the shared fallback
        frame faulted accesses land in.
        """
        return (self.num_frames + 1) * self.config.page_lines

    @property
    def fallback_frame(self) -> int:
        return self.num_frames

    def translate(self, lines: np.ndarray) -> np.ndarray:
        """Rewrite virtual line addresses through the page table.

        Pure and elementwise: resident pages map to their frame's
        lines, faulted pages collapse onto the shared fallback frame
        (offset preserved).  One gather through the line map; never
        mutates the table, so the result is independent of chunking
        and call splits.
        """
        if self._line_map is None:
            return lines
        return self._line_map[lines]

    def translated_dtype(self, virtual: "npt.DTypeLike") -> "np.dtype[Any]":
        """The dtype :meth:`translate` returns for lines of dtype ``virtual``."""
        if self._line_map is None:
            return np.dtype(virtual)
        return self._line_map.dtype

    def _build_line_map(self) -> None:
        """Fold the current page→frame map into a per-line map.

        Entry ``v`` is virtual line ``v``'s physical line: its page's
        frame (the fallback frame when not resident) times the page
        size plus its in-page offset.  Narrowed to int32 whenever the
        physical space fits.
        """
        page_lines = self.config.page_lines
        dtype = np.int32 if self.address_space_lines < 2**31 else np.int64
        frames = np.where(
            self._frame_of_page >= 0, self._frame_of_page, self.fallback_frame
        ).astype(dtype)
        frames *= page_lines
        offsets = np.arange(page_lines, dtype=dtype)
        self._line_map = (frames[:, None] + offsets).reshape(-1)

    # -- feedback (accumulating) --------------------------------------

    def observe(self, lines: np.ndarray) -> None:
        """Accumulate one chunk of the frame's access stream as feedback.

        Chunk splits do not matter: counts are bincount sums and the
        first-touch rank is assigned in global first-occurrence order
        (a page first seen in an earlier chunk keeps its earlier rank).
        """
        pages = np.asarray(lines) >> self._shift
        counts = np.bincount(pages, minlength=self.num_pages)
        self._touch_count += counts
        self._fault_count += np.where(self._frame_of_page < 0, counts, 0)

        if not pages.size:
            return
        # A page's first occurrence is always a change point of the
        # stream, so each page's first index in this chunk is an O(n)
        # minimum over the change points; ranking the pages new this
        # frame by it is the stream's first-touch order —
        # deterministic, no sort of the stream, no hash order anywhere.
        change = np.empty(pages.size, dtype=bool)
        change[0] = True
        np.not_equal(pages[1:], pages[:-1], out=change[1:])
        at = np.flatnonzero(change)
        first_index = np.full(self.num_pages, pages.size, dtype=np.int64)
        np.minimum.at(first_index, pages[at], at)
        fresh = np.flatnonzero((counts > 0) & (self._touch_rank < 0))
        if fresh.size:
            ranked = fresh[np.argsort(first_index[fresh], kind="stable")]
            self._touch_rank[ranked] = self._next_rank + np.arange(
                fresh.size, dtype=np.int64
            )
            self._next_rank += int(fresh.size)

    def advance_frame(self) -> Dict[str, int]:
        """Apply the frame's feedback to residency; returns its stats.

        This frame's touches outrank every older recency stamp, so the
        new resident set is the ``num_frames`` most recent pages among
        (touched ∪ resident) — the state demand-paged LRU ends the
        frame in.  Freed frames are granted to incoming pages in
        first-touch order (fault-service order), frames sorted
        ascending, keeping the reassignment deterministic.
        """
        touched = np.flatnonzero(self._touch_rank >= 0)
        stats = {
            "frame": self.frame_index,
            "access_count": int(self._touch_count.sum()),
            "touched_pages": int(touched.size),
            "fault_accesses": int(self._fault_count.sum()),
            "faulted_pages": int(np.count_nonzero(self._fault_count)),
        }

        self._recency[touched] = self._clock + self._touch_rank[touched]
        self._clock += self._next_rank

        resident = self._frame_of_page >= 0
        candidates = np.flatnonzero(resident | (self._touch_rank >= 0))
        if candidates.size > self.num_frames:
            keep_order = np.argsort(self._recency[candidates], kind="stable")
            keep = candidates[keep_order[-self.num_frames :]]
        else:
            keep = candidates
        new_resident = np.zeros(self.num_pages, dtype=bool)
        new_resident[keep] = True

        evicted = np.flatnonzero(resident & ~new_resident)
        incoming = np.flatnonzero(new_resident & ~resident)
        incoming = incoming[np.argsort(self._touch_rank[incoming], kind="stable")]
        freed = np.sort(self._frame_of_page[evicted])
        self._frame_of_page[evicted] = -1
        self._frame_of_page[incoming] = freed[: incoming.size]

        stats["paged_in"] = int(incoming.size)
        stats["evicted"] = int(evicted.size)
        stats["resident_pages"] = int(np.count_nonzero(new_resident))

        self._touch_rank.fill(-1)
        self._touch_count.fill(0)
        self._fault_count.fill(0)
        self._next_rank = 0
        if not self.identity:
            self._build_line_map()
        self.frame_index += 1
        self.history.append(stats)
        return stats

    # -- identity -----------------------------------------------------

    def resident_mask(self) -> np.ndarray:
        """Boolean per-page residency (a copy; for tests/analysis)."""
        return self._frame_of_page >= 0

    def mapping(self) -> np.ndarray:
        """The page→frame map (a copy; -1 marks non-resident pages)."""
        return self._frame_of_page.copy()

    def cache_key(self) -> str:
        """Content identity of the *current* mapping (pipeline keying).

        Changes whenever :meth:`advance_frame` changes the mapping, so
        a memoized replay can never serve a stale frame's translation.
        """
        digest = hashlib.sha1(self._frame_of_page.tobytes()).hexdigest()[:16]
        return (
            f"vt{self.config.page_lines}l"
            f"f{self.num_frames}of{self.num_pages}"
            f"#{digest}"
        )

    def describe(self) -> str:
        return (
            f"{self.config.describe()}: {self.num_frames}/{self.num_pages} pages "
            f"resident, frame {self.frame_index}"
        )


@dataclass(frozen=True, eq=False)
class FrameLines:
    """One frame's physical line table, built once and read by every replay.

    Row ``i`` of ``lines`` holds the eight translated line addresses of
    fragment ``i`` of ``fragments``, in submission order.  ``key`` and
    ``address_space_lines`` are the page table's ``cache_key()`` and
    physical line space when the table was built.  This is the one
    form a replay's translator takes
    (:func:`repro.core.routing.compute_replay`), and it keys the replay
    by the mapping it was translated through.
    """

    key: str
    address_space_lines: int
    lines: np.ndarray
    fragments: "FragmentBuffer"

    def cache_key(self) -> str:
        """The page table's ``cache_key()`` when the table was built."""
        return self.key

    def lines_for(self, fragments: "FragmentBuffer") -> np.ndarray:
        """The table, if it was built from ``fragments``.

        A table from another fragment buffer (another frame, or an
        early-Z survivor stream) would hand the cache another stream's
        lines, so it is refused.
        """
        if fragments is not self.fragments or len(self.lines) != len(fragments):
            raise ConfigurationError(
                f"line table of {len(self.lines)} fragments was built from another "
                f"fragment buffer than the {len(fragments)}-fragment stream replayed"
            )
        return self.lines


def build_frame_lines(
    table: PageTable,
    tex_filter: "TrilinearFilter",
    fragments: "FragmentBuffer",
    chunk_size: int,
    observe: bool = False,
) -> FrameLines:
    """Filter, optionally observe, and translate one frame, chunk by chunk.

    One pass in submission order: each chunk of fragments is filtered
    to virtual lines, fed to :meth:`PageTable.observe` when ``observe``
    is set, and translated into its rows of a frame-sized ``(n, 8)``
    table of the translated dtype.  Observing inside the pass is exact:
    ``observe`` only accumulates feedback and never changes the mapping,
    so neither :meth:`PageTable.translate` nor
    :meth:`PageTable.cache_key` can see it.  The filter takes each
    chunk's ``int16`` half-texel indices and triangle ids with the
    buffer's per-triangle level and texture tables, and reads those once
    per run of equal ids.
    """
    n = len(fragments)
    dtype = table.translated_dtype(tex_filter.line_dtype)
    out = np.empty((n, TEXELS_PER_FRAGMENT), dtype=dtype)
    for start in range(0, n, chunk_size):
        stop = min(n, start + chunk_size)
        virtual = tex_filter.line_addresses(
            fragments.u_half[start:stop],
            fragments.v_half[start:stop],
            fragments.triangle[start:stop],
            fragments.triangle_level,
            fragments.triangle_texture,
        ).reshape(-1)
        if observe:
            table.observe(virtual)
        out[start:stop] = table.translate(virtual).reshape(-1, TEXELS_PER_FRAGMENT)
    return FrameLines(
        key=table.cache_key(),
        address_space_lines=table.address_space_lines,
        lines=out,
        fragments=fragments,
    )
