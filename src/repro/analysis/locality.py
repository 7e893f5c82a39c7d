"""Texel-locality analysis (Figure 6).

The paper's locality experiment: simulate every node's 16 KB cache with
an infinite-bandwidth bus and report the machine-wide *texel-to-fragment
ratio* — external texels fetched per fragment drawn.  Splitting the
image over more processors cuts a cache line's reuse (Figure 2), so the
ratio grows as tiles shrink or processors multiply; a scene whose whole
working set fits in the *combined* caches bends the other way.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.analysis.batch import distribution_from_spec
from repro.cache.config import CacheConfig
from repro.core.routing import build_routed_work
from repro.distribution.base import Distribution
from repro.distribution.single import SingleProcessor
from repro.geometry.scene import Scene


def texel_to_fragment_ratio(
    scene: Scene,
    distribution: Distribution,
    cache_config: Optional[CacheConfig] = None,
    layout=None,
) -> float:
    """Machine-wide external texels per fragment for one configuration.

    ``layout`` overrides the block-linear texture layout (ablations).
    """
    work = build_routed_work(
        scene, distribution, cache_spec="lru", cache_config=cache_config, layout=layout
    )
    return work.cache.texel_to_fragment


def locality_sweep(
    scene: Scene,
    family: str,
    sizes: Iterable[int],
    processor_counts: Iterable[int],
    cache_config: Optional[CacheConfig] = None,
) -> Dict[Tuple[int, int], float]:
    """Ratio for every (size, processors) point — one Figure-6 panel."""
    results: Dict[Tuple[int, int], float] = {}
    solo_ratio: Optional[float] = None
    for size in sizes:
        for count in processor_counts:
            if count == 1:
                # One processor renders the whole screen whatever the
                # tile size; compute that ratio once per scene.
                if solo_ratio is None:
                    solo_ratio = texel_to_fragment_ratio(
                        scene, SingleProcessor(), cache_config
                    )
                results[(size, count)] = solo_ratio
                continue
            distribution = distribution_from_spec(
                {"family": family, "processors": count, "size": size}, scene.height
            )
            results[(size, count)] = texel_to_fragment_ratio(
                scene, distribution, cache_config
            )
    return results
