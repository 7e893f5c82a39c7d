"""The parallel sort-middle texture-mapping machine.

This is the paper's primary object of study: N commodity texture-mapping
nodes (Figure 3), each with a triangle FIFO, a setup engine limited to
one triangle per 25 pixels, a 1 pixel/cycle scanner, a private 16 KB
texture cache and a bandwidth-limited texture bus, fed in strict OpenGL
order by an ideal geometry stage through an interleaved static image
distribution (Figure 4).
"""

from repro.core.config import MachineConfig, TimingConfig
from repro.core.results import MachineResult, NodeTimings
from repro.core.machine import simulate_machine, single_processor_baseline
from repro.core.sortlast import simulate_sort_last, sort_last_assignment
from repro.core.prefetch import PrefetchResult, latency_hiding_curve, simulate_prefetch_pipeline

__all__ = [
    "MachineConfig",
    "MachineResult",
    "NodeTimings",
    "TimingConfig",
    "simulate_machine",
    "single_processor_baseline",
    "simulate_sort_last",
    "sort_last_assignment",
    "PrefetchResult",
    "simulate_prefetch_pipeline",
    "latency_hiding_curve",
]
