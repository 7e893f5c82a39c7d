"""Speedup studies (Figure 5 bottom, Figure 7, and the ratio-2 variant).

A :class:`SpeedupStudy` fixes a scene, cache model and bus ratio, and
memoises the single-processor baseline so a whole sweep of
distributions pays for it once.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.analysis.batch import distribution_from_spec
from repro.cache.config import CacheConfig
from repro.core.config import DEFAULT_BUS_RATIO, DEFAULT_FIFO_CAPACITY, MachineConfig
from repro.core.machine import simulate_machine
from repro.core.results import MachineResult
from repro.distribution.base import Distribution
from repro.distribution.single import SingleProcessor
from repro.geometry.scene import Scene


class SpeedupStudy:
    """Speedups of one scene over many distributions, shared baseline."""

    def __init__(
        self,
        scene: Scene,
        cache: str = "lru",
        cache_config: Optional[CacheConfig] = None,
        bus_ratio: float = DEFAULT_BUS_RATIO,
        fifo_capacity: int = DEFAULT_FIFO_CAPACITY,
    ) -> None:
        self.scene = scene
        self.cache = cache
        self.cache_config = cache_config
        self.bus_ratio = bus_ratio
        self.fifo_capacity = fifo_capacity
        self._baseline: Optional[float] = None

    def _config(self, distribution: Distribution) -> MachineConfig:
        return MachineConfig(
            distribution=distribution,
            cache=self.cache,
            cache_config=self.cache_config,
            bus_ratio=self.bus_ratio,
            fifo_capacity=self.fifo_capacity,
        )

    @property
    def baseline_cycles(self) -> float:
        """Frame time of the one-processor machine (memoised)."""
        if self._baseline is None:
            result = simulate_machine(self.scene, self._config(SingleProcessor()))
            self._baseline = result.cycles
        return self._baseline

    def run(self, distribution: Distribution) -> MachineResult:
        """Simulate one distribution, with the baseline attached."""
        return simulate_machine(
            self.scene, self._config(distribution), baseline_cycles=self.baseline_cycles
        )

    def speedup(self, distribution: Distribution) -> float:
        result = self.run(distribution)
        if result.cycles == 0:
            return float(distribution.num_processors)
        return self.baseline_cycles / result.cycles

    def sweep(
        self,
        family: str,
        sizes: Iterable[int],
        processor_counts: Iterable[int],
    ) -> Dict[Tuple[int, int], float]:
        """Speedup at every (size, processors) point — a Figure-7 panel."""
        return {
            (size, count): self.speedup(
                distribution_from_spec(
                    {"family": family, "processors": count, "size": size},
                    self.scene.height,
                )
            )
            for size in sizes
            for count in processor_counts
        }

    def best_size(
        self, family: str, sizes: Iterable[int], num_processors: int
    ) -> Tuple[int, float]:
        """The tile size with the highest speedup, and that speedup."""
        sweep = self.sweep(family, sizes, [num_processors])
        best = max(sweep.items(), key=lambda item: item[1])
        (size, _count), value = best
        return size, value

