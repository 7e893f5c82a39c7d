"""Architecture comparison: sort-middle vs sort-last."""

from __future__ import annotations

from repro.analysis.experiments.common import register_scale_specs
from repro.analysis.tables import format_table
from repro.distribution import BlockInterleaved
from repro.workloads import SCENE_NAMES, build_scene


def comparison_sort_last(scale: float, num_processors: int = 16) -> str:
    """Sort-middle vs sort-last (the architecture of refs [13]/[14]).

    Sort-last deals whole objects to nodes, keeping each texture on one
    engine — better locality — but it gives up the strict OpenGL
    drawing order that motivates the paper's sort-middle choice, and
    its balance depends on object sizes rather than the tile grid.
    """
    from repro.core.machine import simulate_machine, single_processor_baseline
    from repro.core.config import MachineConfig
    from repro.core.sortlast import simulate_sort_last

    rows = []
    for name in SCENE_NAMES:
        scene = build_scene(name, scale)
        config = MachineConfig(
            distribution=BlockInterleaved(num_processors, 16),
            cache="lru",
            bus_ratio=1.0,
        )
        baseline = single_processor_baseline(scene, config)
        middle = simulate_machine(scene, config, baseline_cycles=baseline)
        # Chunk ~ one generated object (object_grid**2 quads).
        chunk = max(1, 2 * 3 * 3)
        last = simulate_sort_last(
            scene,
            num_processors,
            chunk_size=chunk,
            cache="lru",
            bus_ratio=1.0,
            baseline_cycles=baseline,
        )
        rows.append(
            [
                name,
                round(middle.speedup or 0.0, 2),
                round(last.speedup or 0.0, 2),
                round(middle.texel_to_fragment, 3),
                round(last.texel_to_fragment, 3),
            ]
        )
    table = format_table(
        ["scene", "speedup sort-middle", "speedup sort-last",
         "t/f sort-middle", "t/f sort-last"],
        rows,
    )
    return (
        f"Comparison: sort-middle block16 vs sort-last (object chunks), "
        f"{num_processors} processors, 16KB cache, 1x bus (scale={scale})\n{table}"
    )


register_scale_specs(
    ("sort-last", "comparison: sort-middle vs sort-last architecture", comparison_sort_last),
)
