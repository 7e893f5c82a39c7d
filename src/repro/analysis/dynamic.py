"""Dynamic load balancing study (the paper's future work, Section 9).

"Future performance studies should include impact of dynamic load
balancing on such a cache and evaluate the trade-offs between the cost
of its implementation in a PC 3D accelerator with the performance
gains."  This module runs that study: per-tile work is measured with
the identity tile grid, an idealised dynamic balancer (LPT greedy)
computes the assignment a runtime tile queue would converge to, and
the resulting machine is simulated with the ordinary pipeline — cache
effects included, which is the part the paper flags as unknown (a
dynamically assigned tile set is scattered, so locality may suffer
exactly like small static tiles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.analysis.performance import SpeedupStudy
from repro.analysis.tables import format_table
from repro.core.config import DEFAULT_BUS_RATIO, DEFAULT_SETUP_CYCLES
from repro.core.routing import build_routed_work
from repro.distribution.assigned import AssignedTiles, TileGrid, lpt_assignment
from repro.distribution.block import BlockInterleaved
from repro.geometry.scene import Scene


@dataclass
class DynamicComparison:
    """Static-vs-dynamic outcome for one tile width."""

    width: int
    static_imbalance: float
    dynamic_imbalance: float
    static_speedup: float
    dynamic_speedup: float
    static_ratio: float
    dynamic_ratio: float


def dynamic_assignment_for(
    scene: Scene, width: int, num_processors: int, setup_cycles: int = DEFAULT_SETUP_CYCLES
) -> AssignedTiles:
    """The idealised dynamic (LPT) assignment of a scene's tiles."""
    grid = TileGrid(width, scene.width, scene.height)
    per_tile = build_routed_work(
        scene, grid, cache_spec="perfect", setup_cycles=setup_cycles
    )
    assignment = lpt_assignment(per_tile.node_work, num_processors)
    return AssignedTiles(grid, assignment, num_processors, label="dynamic")


def compare_static_dynamic(
    scene: Scene,
    widths: Iterable[int],
    num_processors: int,
    cache: str = "lru",
    bus_ratio: float = DEFAULT_BUS_RATIO,
) -> List[DynamicComparison]:
    """Run both machines for every tile width."""
    study = SpeedupStudy(scene, cache=cache, bus_ratio=bus_ratio)
    rows: List[DynamicComparison] = []
    for width in widths:
        static = BlockInterleaved(num_processors, width)
        dynamic = dynamic_assignment_for(scene, width, num_processors)
        static_result = study.run(static)
        dynamic_result = study.run(dynamic)
        rows.append(
            DynamicComparison(
                width=width,
                static_imbalance=static_result.work_imbalance_percent(),
                dynamic_imbalance=dynamic_result.work_imbalance_percent(),
                static_speedup=static_result.speedup or 0.0,
                dynamic_speedup=dynamic_result.speedup or 0.0,
                static_ratio=static_result.texel_to_fragment,
                dynamic_ratio=dynamic_result.texel_to_fragment,
            )
        )
    return rows


def render_comparison(
    scene_name: str,
    rows: List[DynamicComparison],
    num_processors: int,
    scale: float,
) -> str:
    """Paper-style text table for the study."""
    table = format_table(
        [
            "width",
            "imbal% static",
            "imbal% dynamic",
            "speedup static",
            "speedup dynamic",
            "t/f static",
            "t/f dynamic",
        ],
        [
            [
                row.width,
                round(row.static_imbalance, 1),
                round(row.dynamic_imbalance, 1),
                round(row.static_speedup, 2),
                round(row.dynamic_speedup, 2),
                round(row.static_ratio, 3),
                round(row.dynamic_ratio, 3),
            ]
            for row in rows
        ],
    )
    return (
        f"Future work (Sec. 9): static interleave vs idealised dynamic (LPT) "
        f"tile assignment, {scene_name}, {num_processors} processors "
        f"(scale={scale})\n{table}"
    )
