"""Chunk-parallel vectorized LRU replay.

:meth:`repro.cache.lru.LruCache.simulate` historically replayed each
set's substream with a per-access Python loop — the dominant cost of
every cache run.  This module replaces that loop with numpy passes
built on exact identities (derivations in DESIGN.md §10):

1. **Periodic per-set re-reads.**  In a set's own access order, a run
   of accesses that each repeat the access ``k`` places back, for a
   period ``k <= W``, hits: at most ``k`` distinct lines cycle through
   the top of the stack.  Every whole repeat of the period also leaves
   the stack as it found it, so it can be dropped before any replay
   work.  Period 1 is an access to the line its set touched last.
   Texture footprints alternate between 2–4 lines (A B C D A B C D …),
   so most of a frame's accesses that are not consecutive repeats are
   such re-reads.  Most period-1 re-reads show in stream order too:
   consecutive repeats are collapsed first, then an access whose
   nearest earlier same-set access among the last ``MRU_WINDOW``
   positions read the same line re-reads its set's MRU line, so those
   are dropped before the set sort, which then orders only what is
   left.
2. **Self-synchronization.**  A true-LRU set's stack after any access
   sequence is exactly its W most-recently-used *distinct* lines in
   recency order — independent of hit/miss outcomes and of whatever
   the stack held before those W distinct lines appeared.
3. **Chunk decomposition.**  Splitting a set's substream into chunks,
   the stack after a chunk equals the chunk's own recency list (as if
   replayed from an empty stack) merged in front of the pre-chunk
   stack's not-reaccessed lines, truncated to W.  So every (set, chunk)
   group can be replayed from an *empty* stack in parallel, and only
   the short merge is sequential across chunks.
4. **Boundary distances.**  Within a group, any access after the first
   occurrence of its line has a stack distance fully determined by the
   group's own history, so the empty-stack replay classifies it
   exactly.  A group-first access to line L hits iff L sits at depth k
   in the group's start stack and ``A + |{lines above L in the start
   stack not reaccessed in-group before this access}| < W`` where A is
   the number of distinct in-group lines seen so far — the start-stack
   lines already reaccessed would otherwise be double counted.

After the re-read filters, the replay runs three vector stages on the
surviving accesses: a round-based replay of all (set, chunk) groups at
once from empty stacks, a prefix scan that merges per-chunk recency
lists into running per-set stacks, and one batch pass resolving every
group-first access against its recorded start stack.  The stepwise
and scalar per-set replays in ``tests/oracles`` are the bit-exact
references; property tests assert equivalence.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Stream positions per chunk, counted after consecutive repeats are
#: collapsed and before the other re-read filters.  More chunks widen
#: the parallel replay (more groups per round, fewer rounds) but add
#: boundary accesses and prefix-scan work.  A replay chunks at most 512
#: positions per set, so few-set geometries still get many short groups.
CHUNK_TARGET_LEN = 32768

#: Stream positions the MRU re-read filter looks back: the width of a
#: trilinear footprint, so position ``i - 8`` is the same corner of the
#: previous fragment.
MRU_WINDOW = 8

_PAD = np.int64(-1)


def replay(
    lines: np.ndarray,
    num_sets: int,
    ways: int,
    initial: Dict[int, List[int]],
) -> Tuple[np.ndarray, Dict[int, List[int]]]:
    """Vectorized equivalent of the scalar per-set LRU replay.

    ``lines`` is the access stream; ``initial`` is the current
    MRU-first content of each set (not mutated).  Returns the
    per-access miss mask and the replacement set contents.  Raises
    :class:`ConfigurationError` on negative lines and on address ranges
    whose sort keys would overflow int64 (texture layouts stay far
    below both limits).
    """
    stream_len = int(len(lines))
    if stream_len == 0:
        return np.zeros(0, dtype=bool), {k: list(v) for k, v in initial.items()}
    # Collapse consecutive repeats: a repeat re-reads its set's MRU line
    # and always hits.  Every pass below sees a stream without equal
    # neighbours, and chunk ids count the collapsed stream's positions.
    distinct = np.empty(stream_len, dtype=bool)
    distinct[0] = True
    np.not_equal(lines[1:], lines[:-1], out=distinct[1:])
    positions = np.flatnonzero(distinct)
    lines = lines[positions]
    total = len(positions)
    if int(lines.min()) < 0:
        raise ConfigurationError(
            f"cache line addresses must be non-negative, got {int(lines.min())}"
        )

    sets_total = int(num_sets)
    width = int(ways)
    chunk_len = int(min(CHUNK_TARGET_LEN, 512 * sets_total))
    chunks = max(1, -(-total // chunk_len))

    max_line = int(lines.max())
    init_stack = np.full((sets_total, width), _PAD, dtype=np.int64)
    for set_index, ways_list in initial.items():
        head = ways_list[:width]
        init_stack[set_index, : len(head)] = head
    # Line-major boundary keys are line * chunks + chunk; guard the
    # int64 arithmetic for both the stream and the start stacks.
    key_cap = 2**62 // chunks
    highest = max(max_line, int(init_stack.max()))
    if highest >= key_cap:
        raise ConfigurationError(
            f"cache line addresses must stay below {key_cap} for a "
            f"{total}-access replay, got {highest}"
        )

    if sets_total & (sets_total - 1) == 0:
        line_sets = lines & (sets_total - 1)
    else:
        line_sets = lines % sets_total

    # Work order: stably sorting by *set* alone yields exactly the
    # stable sort by (set, chunk) group id — chunk ids are
    # non-decreasing in stream order — and set indices are narrow
    # enough for numpy's radix pass (stable sort of <= 16-bit keys).
    if sets_total <= 256:
        sort_sets = line_sets.astype(np.uint8)
    elif sets_total <= 65536:
        sort_sets = line_sets.astype(np.uint16)
    elif sets_total < 2**31:
        sort_sets = line_sets.astype(np.int32)
    else:
        sort_sets = line_sets

    # -- identity 1: drop periodic per-set re-reads -----------------------
    # Period 1 in stream order, before the sort: after an access its
    # line is its set's MRU line until the set's next access, so an
    # access whose nearest earlier same-set access among the last
    # MRU_WINDOW positions read the same line hits at depth 0 and
    # changes nothing.  A set's first access has no such predecessor
    # and always stays; chunk ids keep counting the collapsed positions.
    # The collapsed stream has no equal neighbours, so no line matches
    # at distance 1; a same-set neighbour there still decides the
    # access, as its nearest same-set access, with another line.
    undecided = np.ones(total, dtype=bool)
    reread = np.zeros(total, dtype=bool)
    np.not_equal(sort_sets[1:], sort_sets[:-1], out=undecided[1:])
    for d in range(2, min(MRU_WINDOW + 1, total)):
        same_line = lines[d:] == lines[:-d]
        same_line &= undecided[d:]
        reread[d:] |= same_line
        undecided[d:] &= sort_sets[d:] != sort_sets[:-d]
    kept = np.flatnonzero(~reread)
    order = kept[np.argsort(sort_sets[kept], kind="stable")]
    sorted_lines = lines[order]
    # Period 1 in set order: an access re-reads its set's MRU line iff
    # it equals its predecessor (equal lines share a set) or, as the
    # set's first access, the MRU line the set held on entry.
    fresh = np.empty(len(order), dtype=bool)
    fresh[0] = True
    np.not_equal(sorted_lines[1:], sorted_lines[:-1], out=fresh[1:])
    sorted_sets = sort_sets[order]
    # First position of every set (an absent set repeats the next one's).
    entry = np.searchsorted(sorted_sets, np.arange(sets_total))
    entry = entry[entry < len(order)]
    fresh[entry] = sorted_lines[entry] != init_stack[sorted_sets[entry], 0]
    survivors = np.flatnonzero(fresh)
    wl = sorted_lines[survivors]
    # Periods 2..W, on what the shorter periods left.  A run of
    # accesses each equal to the one k places back (so in the same set)
    # hits throughout, and each whole repeat of its period restores the
    # set's stack: drop those repeats, keep the partial period's tail.
    for k in range(2, width + 1):
        repeats = np.zeros(len(wl) + 1, dtype=bool)
        np.equal(wl[k:], wl[:-k], out=repeats[k:-1])
        edges = np.flatnonzero(repeats[1:] != repeats[:-1]) + 1
        run_starts, run_ends = edges[0::2], edges[1::2]
        whole = run_ends - run_starts
        whole -= whole % k
        cut = whole > 0
        if not cut.any():
            continue
        run_starts, whole = run_starts[cut], whole[cut]
        toggles = np.zeros(len(wl) + 1, dtype=np.int8)
        toggles[run_starts] = 1
        toggles[run_starts + whole] = -1
        stay = np.flatnonzero(np.cumsum(toggles[:-1]) == 0)
        survivors = survivors[stay]
        wl = wl[stay]
    n = len(survivors)
    if n == 0:
        return np.zeros(stream_len, dtype=bool), {k: list(v) for k, v in initial.items()}

    ws = sorted_sets[survivors]
    source = order[survivors]
    wc = source // chunk_len

    bounds = np.flatnonzero((ws[1:] != ws[:-1]) | (wc[1:] != wc[:-1])) + 1
    gstarts = np.concatenate(([0], bounds))
    counts = np.diff(np.concatenate((gstarts, [n])))
    num_groups = len(gstarts)
    gids = ws[gstarts].astype(np.int64) * chunks + wc[gstarts]

    # First occurrence of each (group, line) pair from one stable sort
    # by line value.  A (group, line) pair maps 1:1 to (line, chunk) —
    # the line fixes the set — and ties keep work order, chunk
    # ascending, so ``line * chunks + chunk`` comes out sorted: the
    # boundary pass below can binary-search it directly.
    if max_line <= 65535:
        by_key = np.argsort(wl.astype(np.uint16), kind="stable")
    else:
        by_key = np.argsort(wl, kind="stable")
    keys_sorted = wl[by_key].astype(np.int64) * chunks + wc[by_key]
    fo_sorted = np.empty(n, dtype=bool)
    fo_sorted[0] = True
    np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=fo_sorted[1:])
    first_occ = np.empty(n, dtype=bool)
    first_occ[by_key] = fo_sorted
    # In-group rank of each first occurrence, without materialising a
    # full per-access rank array: rank = position - its group's start.
    fo_positions = by_key[fo_sorted]
    fo_keys = keys_sorted[fo_sorted]
    fo_ranks = fo_positions - gstarts[
        np.searchsorted(gstarts, fo_positions, side="right") - 1
    ]

    # Distinct in-group lines seen before each access (exclusive),
    # needed only at group-first accesses.
    fo_cum = np.cumsum(first_occ)
    fo_cum -= first_occ

    # -- phase 1: replay every group from an empty stack ----------------
    # Round r touches each group's r-th access; sorting groups by length
    # makes the still-active groups a shrinking prefix.  The stack is
    # kept transposed — one contiguous row per way — so each round runs
    # a handful of 1-D column ops instead of 2-D reductions: an access
    # hits iff some way matches, and way k inherits way k-1's line
    # exactly while no shallower way has matched.
    by_len = np.argsort(-counts, kind="stable")
    starts_l = gstarts[by_len]
    counts_l = counts[by_len]
    neg_counts = -counts_l
    wl_narrow = wl.astype(np.int32, copy=False) if max_line < 2**31 else wl
    stack = np.full((width, num_groups), _PAD, dtype=wl_narrow.dtype)
    miss = np.zeros(n, dtype=bool)
    cols = np.arange(width)

    for r in range(int(counts_l[0])):
        active = int(np.searchsorted(neg_counts, -(r + 1), side="right"))
        at_r = starts_l[:active] + r
        lines_r = wl_narrow[at_r]
        matched = [stack[k, :active] == lines_r for k in range(width)]
        # shifts[k-1]: no way shallower than k matched, so way k
        # inherits way k-1's line.  Writing deepest-first needs no
        # copies of the displaced lines.
        seen = matched[0].copy()
        shifts = [~seen]
        for k in range(1, width - 1):
            seen |= matched[k]
            shifts.append(~seen)
        hit = seen | matched[width - 1] if width > 1 else seen
        for k in range(width - 1, 0, -1):
            stack[k, :active] = np.where(
                shifts[k - 1], stack[k - 1, :active], stack[k, :active]
            )
        stack[0, :active] = lines_r
        miss[at_r] = ~hit

    # -- phase 2: merge per-chunk recency lists into per-set stacks -----
    # Stack merge is associative (DESIGN.md §10), so the running stack
    # ahead of every chunk is an inclusive prefix scan of the per-chunk
    # finals under :func:`_merge_stacks` — O(log chunks) vectorized
    # doubling steps instead of a sequential chunk loop.
    finals = np.full((chunks, sets_total, width), _PAD, dtype=np.int64)
    g_sorted = gids[by_len]
    finals[g_sorted % chunks, g_sorted // chunks] = stack.T

    prefix = finals
    d = 1
    while d < chunks:
        prefix[d:] = _merge_stacks(prefix[d:], prefix[:-d], width)
        d *= 2

    start_states = np.empty((chunks, sets_total, width), dtype=np.int64)
    start_states[0] = init_stack
    if chunks > 1:
        behind = np.broadcast_to(init_stack, (chunks - 1, sets_total, width))
        start_states[1:] = _merge_stacks(prefix[:-1], behind, width)
    cur = _merge_stacks(prefix[-1], init_stack, width)

    # -- phase 3: resolve every group-first access against its start stack
    boundary = np.flatnonzero(first_occ)
    b_index = np.searchsorted(gstarts, boundary, side="right") - 1
    b_start = gstarts[b_index]
    b_rank = boundary - b_start
    b_group = gids[b_index]
    b_chunk = b_group % chunks
    rows = start_states[b_chunk, b_group // chunks]
    eq = rows == wl[boundary][:, None]
    found = eq.any(axis=1)
    miss[boundary] = ~found
    # Only lines found in the start stack can hit; most group-first
    # accesses are first touches, so narrow the distance work to them.
    kept = np.flatnonzero(found)
    boundary, b_start, b_rank = boundary[kept], b_start[kept], b_rank[kept]
    rows, eq, b_chunk = rows[kept], eq[kept], b_chunk[kept]
    depth = eq.argmax(axis=1)
    above = cols[None, :] < depth[:, None]
    # Rank of each start-stack line's own first in-group access (n when
    # never reaccessed); lines reaccessed before this access are
    # already counted in distinct_before.  Pad entries never sit above
    # a found line, so their negative keys are harmless.
    row_keys = rows * chunks + b_chunk[:, None]
    at = np.minimum(np.searchsorted(fo_keys, row_keys), len(fo_keys) - 1)
    known = fo_keys[at] == row_keys
    row_rank = np.where(known, fo_ranks[at], np.int64(n))
    surviving = row_rank >= b_rank[:, None]
    distinct_before = fo_cum[boundary] - fo_cum[b_start]
    dist = distinct_before + np.sum(above & surviving, axis=1)
    miss[boundary] = dist >= width

    result_sets: Dict[int, List[int]] = {}
    for set_index in range(sets_total):
        row_list = [int(v) for v in cur[set_index] if v != _PAD]
        if row_list:
            result_sets[set_index] = row_list

    out = np.zeros(stream_len, dtype=bool)
    out[positions[source[miss]]] = True
    return out, result_sets


def _merge_stacks(newer: np.ndarray, older: np.ndarray, width: int) -> np.ndarray:
    """Recency-merge stack arrays of shape ``(..., width)``.

    ``newer`` holds the most recent distinct lines; ``older`` lines
    already present in ``newer`` sit there at their new recency and are
    dropped, the rest follow in order, truncated to ``width``.  Both
    are packed MRU-first, so a kept older line lands at column
    ``count(newer lines) + (kept lines up to it) - 1``.  The operation
    is associative, which is what lets the caller scan it.
    """
    newer, older = np.broadcast_arrays(newer, older)
    carried = (older[..., :, None] == newer[..., None, :]).any(axis=-1)
    kept = (older != _PAD) & ~carried
    dest = np.cumsum(kept, axis=-1)
    dest += np.count_nonzero(newer != _PAD, axis=-1)[..., None] - 1
    kept &= dest < width
    merged = newer.copy()
    at = np.nonzero(kept)
    merged[at[:-1] + (dest[at],)] = older[at]
    return merged
