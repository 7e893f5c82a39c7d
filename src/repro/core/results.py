"""Machine simulation results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.cache.stats import CacheRunResult


@dataclass
class NodeTimings:
    """Per-node cycle accounting.

    ``busy`` sums each triangle's ``max(pixels, setup)`` engine cycles
    (the routed work's ``node_work``); ``stall`` sums the cycles a
    finished engine waited for its bus, ``max(0, data_done -
    engine_end)`` per triangle, on both timing paths.  Waiting for a
    triangle to arrive counts in neither.
    """

    finish: np.ndarray
    busy: np.ndarray
    stall: np.ndarray

    @property
    def critical_node(self) -> int:
        """The node that determines the frame time."""
        return int(np.argmax(self.finish))


@dataclass
class MachineResult:
    """Everything one machine simulation produced.

    ``cycles`` is the frame time; speedups divide a single-processor
    baseline's cycles by it.
    """

    scene_name: str
    distribution: str
    cache_name: str
    bus_ratio: float
    fifo_capacity: int
    num_processors: int
    cycles: float
    timings: NodeTimings
    node_pixels: np.ndarray
    cache: CacheRunResult
    baseline_cycles: Optional[float] = None
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def speedup(self) -> Optional[float]:
        """Speedup over the recorded single-processor baseline."""
        if self.baseline_cycles is None or self.cycles == 0:
            return None
        return self.baseline_cycles / self.cycles

    @property
    def efficiency(self) -> Optional[float]:
        """Speedup per processor (1.0 == linear scaling)."""
        if self.speedup is None:
            return None
        return self.speedup / self.num_processors

    def work_imbalance_percent(self) -> float:
        """Figure-5 metric: busiest node's extra work over the average."""
        work = self.timings.busy
        average = work.mean()
        if average == 0:
            return 0.0
        return (work.max() / average - 1.0) * 100.0

    @property
    def texel_to_fragment(self) -> float:
        """Figure-6 metric, aggregated over every node."""
        return self.cache.texel_to_fragment

    def summary(self) -> str:
        """One-line report, the grain ``run`` prints."""
        parts = [
            f"{self.scene_name:<16}",
            f"{self.distribution:<14}",
            f"cache={self.cache_name:<8}",
            f"bus={self.bus_ratio:g}",
            f"fifo={self.fifo_capacity}",
            f"cycles={self.cycles:.0f}",
        ]
        if self.speedup is not None:
            parts.append(f"speedup={self.speedup:.2f}")
        parts.append(f"t/f={self.texel_to_fragment:.3f}")
        return "  ".join(parts)
