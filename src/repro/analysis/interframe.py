"""Inter-frame L2 texture-cache study (the paper's future work, Sec. 9).

The paper's closing hypothesis: in a parallel machine each node's L2
holds only its own tiles' textures, so if the viewpoint translates by
more than the tile size between frames, a tile's content lands on a
*different* node and its L2 warmth is wasted.  This study measures it:
frames of a panning camera are replayed through persistent per-node
L1+L2 hierarchies, and the metric is memory texels per fragment on the
frames after the first — low when the L2 still holds the frame,
rising toward the cold-frame value as the pan outruns the tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from repro.analysis.tables import format_table
from repro.cache.config import CacheConfig
from repro.cache.hierarchy import DEFAULT_L2, TwoLevelCache
from repro.cache.stream import replay_fragments
from repro.core.routing import frame_owners, partition_by_node
from repro.distribution.base import Distribution
from repro.geometry.scene import Scene
from repro.texture.filtering import TrilinearFilter


@dataclass
class FrameTraffic:
    """Per-frame memory/bandwidth outcome, machine-wide."""

    frame: int
    fragments: int
    memory_texels: int
    l1_to_l2_texels: int

    @property
    def memory_ratio(self) -> float:
        """Memory texels per fragment (the L2-efficiency metric)."""
        if self.fragments == 0:
            return 0.0
        return self.memory_texels / self.fragments


def replay_sequence(
    frames: Sequence[Scene],
    distribution: Distribution,
    l1_config: CacheConfig = CacheConfig(),
    l2_config: CacheConfig = DEFAULT_L2,
) -> List[FrameTraffic]:
    """Replay a frame sequence through persistent per-node hierarchies.

    All frames must share one texture table (pan_sequence guarantees
    it).  L1s are cold per frame; L2s stay warm across frames.
    """
    layout = frames[0].memory_layout()
    tex_filter = TrilinearFilter(layout)
    nodes = [
        TwoLevelCache(l1_config, l2_config)
        for _ in range(distribution.num_processors)
    ]
    results: List[FrameTraffic] = []
    for index, frame in enumerate(frames):
        fragments = frame.fragments()
        order, bounds = partition_by_node(
            frame_owners(distribution, fragments), len(nodes)
        )
        memory_texels = 0
        l1_to_l2 = 0
        for node_id, cache in enumerate(nodes):
            cache.reset_l1_only()
            l1_before, l2_before = cache.l1_misses, cache.l2_misses
            replay_fragments(
                fragments,
                tex_filter,
                cache,
                reset=False,
                rows=order[bounds[node_id] : bounds[node_id + 1]],
            )
            memory_texels += (cache.l2_misses - l2_before) * cache.texels_per_fetch
            l1_to_l2 += (cache.l1_misses - l1_before) * cache.texels_per_fetch
        results.append(
            FrameTraffic(
                frame=index,
                fragments=len(fragments),
                memory_texels=memory_texels,
                l1_to_l2_texels=l1_to_l2,
            )
        )
    return results


def warm_frame_ratio(traffic: Sequence[FrameTraffic]) -> float:
    """Mean memory texels/fragment over the warm (non-first) frames."""
    warm = [t.memory_ratio for t in traffic[1:]]
    if not warm:
        return traffic[0].memory_ratio if traffic else 0.0
    return float(np.mean(warm))


def render_interframe_table(
    rows: Iterable[tuple],
    scene_name: str,
    num_processors: int,
    scale: float,
) -> str:
    """Render (pan, width, cold, warm) rows in paper style."""
    table = format_table(
        ["pan px/frame", "tile width", "cold frame t/f", "warm frames t/f",
         "L2 benefit"],
        [
            [
                pan,
                width,
                round(cold, 3),
                round(warm, 3),
                f"{1 - warm / cold:.0%}" if cold else "-",
            ]
            for pan, width, cold, warm in rows
        ],
    )
    return (
        f"Future work (Sec. 9): inter-frame L2 efficiency vs viewpoint pan, "
        f"{scene_name}, {num_processors} processors (scale={scale})\n{table}"
    )
