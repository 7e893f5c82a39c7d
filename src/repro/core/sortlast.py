"""Sort-last texture mapping — the comparison architecture.

In Molnar's taxonomy the paper's machine is sort-middle (image-space
distribution); the alternative the authors studied in their earlier
work ([13], [14]) is *sort-last*: triangles are distributed over the
nodes regardless of screen position, each node rasterizes its own
triangles over the whole screen, and a compositing network merges the
full-screen images.  Textures of one object stay on one node — good
texture locality — but strict OpenGL drawing order is lost in the
composition, which is the paper's argument for sort-middle.

This module simulates that machine as a baseline: round-robin
distribution of (chunks of) triangles, per-node full-screen
rasterization, private caches, and an ideal compositing network (the
paper likewise idealises its distribution network).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.cache.models import make_cache_model
from repro.cache.stats import CacheRunResult
from repro.cache.stream import replay_fragments
from repro.core.config import DEFAULT_BUS_RATIO, DEFAULT_SETUP_CYCLES
from repro.core.node import drain_node
from repro.core.results import MachineResult, NodeTimings
from repro.core.routing import partition_by_node
from repro.errors import ConfigurationError
from repro.geometry.scene import Scene
from repro.texture.filtering import TrilinearFilter

if TYPE_CHECKING:
    from repro.cache.config import CacheConfig


def sort_last_assignment(
    num_triangles: int, num_processors: int, chunk_size: int = 1
) -> np.ndarray:
    """Round-robin triangle-to-node table.

    ``chunk_size`` groups consecutive triangles before dealing them
    out; since scenes submit each object's triangles contiguously, a
    chunk of ~an object's size approximates per-object distribution
    (the realistic sort-last granularity — an object's texture then
    lives on one node).
    """
    if num_processors < 1:
        raise ConfigurationError("need at least one processor")
    if chunk_size < 1:
        raise ConfigurationError(f"chunk size must be >= 1, got {chunk_size}")
    chunks = np.arange(num_triangles) // chunk_size
    return chunks % num_processors


def simulate_sort_last(
    scene: Scene,
    num_processors: int,
    chunk_size: int = 1,
    cache: str = "lru",
    cache_config: Optional["CacheConfig"] = None,
    bus_ratio: float = DEFAULT_BUS_RATIO,
    setup_cycles: int = DEFAULT_SETUP_CYCLES,
    baseline_cycles: Optional[float] = None,
) -> MachineResult:
    """Simulate one frame on the sort-last machine.

    Composition is ideal (as the sort-middle machine's networks are),
    so the frame time is the slowest node's rasterisation time.
    """
    fragments = scene.fragments()
    layout = scene.memory_layout()
    tex_filter = TrilinearFilter(layout)
    assignment = sort_last_assignment(scene.num_triangles, num_processors, chunk_size)

    pixel_counts = fragments.triangle_pixel_counts()
    owners = (
        assignment[fragments.triangle]
        if len(fragments)
        else np.zeros(0, dtype=np.int64)
    )
    order, bounds = partition_by_node(owners, num_processors)

    finish = np.zeros(num_processors)
    stall = np.zeros(num_processors)
    node_pixels = np.zeros(num_processors, dtype=np.int64)
    node_work = np.zeros(num_processors, dtype=np.int64)
    total_cache = CacheRunResult(
        texels_by_triangle=np.zeros(scene.num_triangles, dtype=np.int64)
    )

    for node in range(num_processors):
        triangle_ids = np.flatnonzero(assignment == node)
        model = make_cache_model(cache, cache_config)
        run = replay_fragments(
            fragments, tex_filter, model, rows=order[bounds[node] : bounds[node + 1]]
        )
        total_cache = total_cache.merged_with(run)

        pixels = pixel_counts[triangle_ids]
        texels = run.texels_by_triangle[triangle_ids]
        finish[node], stall[node] = drain_node(pixels, texels, setup_cycles, bus_ratio)
        node_pixels[node] = pixels.sum()
        node_work[node] = np.maximum(pixels, setup_cycles).sum()

    cache_model = make_cache_model(cache, cache_config)
    return MachineResult(
        scene_name=scene.name,
        distribution=f"sortlast-c{chunk_size}x{num_processors}",
        cache_name=cache_model.name,
        bus_ratio=bus_ratio,
        fifo_capacity=0,
        num_processors=num_processors,
        cycles=float(finish.max()) if num_processors else 0.0,
        timings=NodeTimings(finish=finish, busy=node_work, stall=stall),
        node_pixels=node_pixels,
        cache=total_cache,
        baseline_cycles=baseline_cycles,
        extras={"chunk_size": chunk_size},
    )
