"""Reference per-node cache replay: sort, copy and replay node by node.

The shipped :func:`repro.core.routing.compute_replay` partitions a
frame once on a narrow radix key and replays each node's rows straight
out of the frame's buffer, gathering only the columns it reads.  This
is the straightforward path it was derived from:

* a stable argsort of the ``int64`` owners;
* a full :meth:`~repro.raster.fragments.FragmentBuffer.select` of each
  node's fragments;
* a chunked replay loop of its own, which classifies a miss as
  compulsory when its line was never missed before (``np.unique`` over
  each chunk's missed lines).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.cache.models import TextureCacheModel, make_cache_model
from repro.cache.stats import CacheRunResult
from repro.cache.stream import DEFAULT_CHUNK
from repro.core.routing import ReplayResult
from repro.raster.fragments import FragmentBuffer
from repro.texture.filtering import TEXELS_PER_FRAGMENT, TrilinearFilter


def replay_node(
    fragments: FragmentBuffer,
    tex_filter: TrilinearFilter,
    model: TextureCacheModel,
    address_lines: int,
    chunk_size: int = DEFAULT_CHUNK,
    translate: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> CacheRunResult:
    """Replay one node's own fragment buffer through a cold cache."""
    model.reset()
    seen = np.zeros(address_lines, dtype=bool)
    result = CacheRunResult(
        fragments=len(fragments),
        texels_by_triangle=np.zeros(fragments.num_triangles, dtype=np.int64),
    )
    for start in range(0, len(fragments), chunk_size):
        stop = min(len(fragments), start + chunk_size)
        # Fragment by fragment: each fragment is a run of its own.
        chunk_triangles = fragments.triangle[start:stop]
        flat = tex_filter.line_addresses(
            fragments.u_half[start:stop],
            fragments.v_half[start:stop],
            np.arange(stop - start),
            fragments.triangle_level[chunk_triangles],
            fragments.triangle_texture[chunk_triangles],
        ).reshape(-1)
        if translate is not None:
            flat = translate(flat)
        miss_rows = np.flatnonzero(model.misses(flat))
        result.texel_accesses += flat.size
        result.line_accesses += flat.size
        result.misses += len(miss_rows)
        result.texels_fetched += len(miss_rows) * model.texels_per_fetch
        missed = np.unique(flat[miss_rows])
        result.compulsory_misses += int(np.count_nonzero(~seen[missed]))
        seen[missed] = True
        triangles = chunk_triangles[miss_rows // TEXELS_PER_FRAGMENT]
        np.add.at(result.texels_by_triangle, triangles, model.texels_per_fetch)
    return result


def reference_replay(
    scene,
    distribution,
    fragments: FragmentBuffer,
    cache_spec="lru",
    cache_config=None,
    layout=None,
    chunk_size: Optional[int] = None,
    translator=None,
) -> ReplayResult:
    """Every node's stream replayed through its own cache, the long way."""
    layout = layout or scene.memory_layout()
    tex_filter = TrilinearFilter(layout)
    translate = None if translator is None else translator.translate
    address_lines = layout.total_lines
    if translator is not None:
        address_lines = max(address_lines, translator.address_space_lines)
    n_proc = distribution.num_processors

    owners = np.asarray(distribution.owners(fragments.x, fragments.y), dtype=np.int64)
    order = np.argsort(owners, kind="stable")
    sorted_owners = owners[order]
    starts = np.searchsorted(sorted_owners, np.arange(n_proc))
    ends = np.searchsorted(sorted_owners, np.arange(n_proc) + 1)

    total = CacheRunResult(
        texels_by_triangle=np.zeros(scene.num_triangles, dtype=np.int64)
    )
    per_node = []
    for node in range(n_proc):
        model = make_cache_model(cache_spec, cache_config)
        if model.texels_per_fetch != 1:
            model.texels_per_fetch = layout.texels_per_line
        run = replay_node(
            fragments.select(order[starts[node] : ends[node]]),
            tex_filter,
            model,
            address_lines,
            chunk_size or DEFAULT_CHUNK,
            translate,
        )
        total = total.merged_with(run)
        per_node.append(run.texels_by_triangle)
    return ReplayResult(texels_per_node_tri=per_node, cache=total)
