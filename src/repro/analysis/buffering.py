"""Triangle-buffer study (Figure 8).

Sweeps the FIFO depth in front of the texture-mapping engines.  For
each block width the expensive part — routing and cache replay — is
computed once and reused across every buffer size, since the FIFO only
affects timing.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.analysis.batch import distribution_from_spec
from repro.cache.config import CacheConfig
from repro.core.config import MachineConfig, TimingConfig
from repro.core.machine import simulate_machine
from repro.core.routing import build_routed_work
from repro.distribution.single import SingleProcessor
from repro.geometry.scene import Scene


def buffer_sweep(
    scene: Scene,
    family: str,
    sizes: Iterable[int],
    buffer_sizes: Iterable[int],
    num_processors: int = 64,
    cache: str = "lru",
    cache_config: Optional[CacheConfig] = None,
    bus_ratio: float = 2.0,
) -> Dict[Tuple[int, int], float]:
    """Speedup for every (tile size, buffer entries) point of Figure 8.

    The paper's panel uses ``truc640``, 64 processors, the block
    distribution, and either a perfect cache or the 16 KB cache with a
    2 texels/pixel bus; all of those are parameters here.
    """
    baseline_config = MachineConfig(
        distribution=SingleProcessor(),
        cache=cache,
        cache_config=cache_config,
        bus_ratio=bus_ratio,
    )
    baseline = simulate_machine(scene, baseline_config).cycles

    results: Dict[Tuple[int, int], float] = {}
    for size in sizes:
        distribution = distribution_from_spec(
            {"family": family, "processors": num_processors, "size": size}, scene.height
        )
        routed = build_routed_work(
            scene, distribution, cache_spec=cache, cache_config=cache_config
        )
        for buffer_size in buffer_sizes:
            timing = TimingConfig(bus_ratio=bus_ratio, fifo_capacity=buffer_size)
            result = simulate_machine(routed, timing)
            results[(size, buffer_size)] = (
                baseline / result.cycles if result.cycles else float(num_processors)
            )
    return results
