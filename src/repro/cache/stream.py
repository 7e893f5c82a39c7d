"""Replaying fragment streams through a cache model.

Bridges the rasterizer/filter world (fragments with half-texel
indices) and the cache world (line-address streams), in bounded
memory: fragments are processed in chunks, relying on the cache models
being stateful across calls.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.cache.models import TextureCacheModel
from repro.cache.stats import CacheRunResult
from repro.errors import ConfigurationError
from repro.raster.fragments import FragmentBuffer
from repro.texture.filtering import TEXELS_PER_FRAGMENT, TrilinearFilter

#: Fragments per replay chunk.  Two nodes replay at once, each thread
#: in its own malloc arena, so the chunk's temporaries (8 line addresses
#: a fragment and the cache's passes over them) count twice; ``1 << 16``
#: keeps the second arena a few percent of a frame's resident set.
DEFAULT_CHUNK = 1 << 16


def replay_fragments(
    fragments: FragmentBuffer,
    tex_filter: TrilinearFilter,
    model: TextureCacheModel,
    seen_lines: Optional[np.ndarray] = None,
    chunk_size: int = DEFAULT_CHUNK,
    reset: bool = True,
    rows: Optional[np.ndarray] = None,
    lines: Optional[np.ndarray] = None,
) -> CacheRunResult:
    """Replay one node's fragment stream; returns aggregate statistics.

    ``model`` is reset first (``reset=True``), so a call simulates one
    cold engine drawing the given stream in order; pass ``reset=False``
    to continue with warm state — how the inter-frame L2 study chains
    consecutive frames through one hierarchy.  ``seen_lines`` (a
    boolean array covering the addressed line space) enables
    compulsory-miss classification: a miss is compulsory when it is the
    first miss on its line; pass a fresh zeroed array per node.
    ``rows`` selects the stream as row indices into ``fragments`` (one
    node's share of a frame); each chunk casts its slice of ``rows`` to
    ``intp`` once and gathers only the columns the filter and the
    attribution read: the ``int16`` half-texel indices ``u_half`` and
    ``v_half`` (4 bytes a fragment) and ``triangle``.  The filter reads
    the mip level and texture from the buffer's per-triangle tables once
    per run of the chunk's triangle ids, which also attribute its
    misses.
    ``lines`` is an optional ``(len(fragments), 8)`` line table aligned
    with ``fragments`` — the page-translated table of a
    virtual-texturing frame
    (:func:`repro.texture.pages.build_frame_lines`); each chunk then
    gathers its rows from it instead of running ``tex_filter``, and
    gathers the triangle ids of its miss rows only.
    """
    if lines is not None and len(lines) != len(fragments):
        raise ConfigurationError(
            f"line table has {len(lines)} rows for {len(fragments)} fragments"
        )
    if reset:
        model.reset()
    n = len(fragments) if rows is None else len(rows)
    result = CacheRunResult(
        fragments=n,
        texels_by_triangle=np.zeros(fragments.num_triangles, dtype=np.int64),
    )
    seen_count = 0 if seen_lines is None else int(np.count_nonzero(seen_lines))
    for start in range(0, n, chunk_size):
        stop = min(n, start + chunk_size)
        index = None if rows is None else rows[start:stop].astype(np.intp, copy=False)
        take: Union[slice, np.ndarray] = slice(start, stop) if index is None else index
        triangles: Optional[np.ndarray] = None
        if lines is None:
            triangles = fragments.triangle[take]
            chunk = tex_filter.line_addresses(
                fragments.u_half[take],
                fragments.v_half[take],
                triangles,
                fragments.triangle_level,
                fragments.triangle_texture,
            )
        else:
            chunk = lines[take]
        flat = chunk.reshape(-1)
        miss_mask = model.misses(flat)
        misses = int(np.count_nonzero(miss_mask))

        result.texel_accesses += flat.size
        result.line_accesses += flat.size
        result.misses += misses
        result.texels_fetched += misses * model.texels_per_fetch

        if misses:
            miss_rows = np.flatnonzero(miss_mask)
            if seen_lines is not None:
                # Count the lines newly marked, not the misses: a line
                # that misses twice in one chunk is compulsory once.
                seen_lines[flat[miss_rows]] = True
                now_seen = int(np.count_nonzero(seen_lines))
                result.compulsory_misses += now_seen - seen_count
                seen_count = now_seen
            # Attribute fetched texels to the owning triangles for the
            # timing model's per-triangle bus demand.
            frag_rows = miss_rows // TEXELS_PER_FRAGMENT
            if triangles is None:
                # Gather the triangle ids of the miss rows only.
                frag_rows = frag_rows + start if index is None else index[frag_rows]
                missed = fragments.triangle[frag_rows]
            else:
                missed = triangles[frag_rows]
            np.add.at(result.texels_by_triangle, missed, model.texels_per_fetch)
    return result
