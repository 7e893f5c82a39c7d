"""Section-9 future work and the finite-geometry extension."""

from __future__ import annotations

from repro.analysis.experiments.common import register_scale_specs
from repro.analysis.tables import format_table
from repro.core.config import DEFAULT_GEOMETRY_CYCLES
from repro.distribution import BlockInterleaved
from repro.workloads import build_scene


def future_dynamic(scale: float, num_processors: int = 16, widths=(8, 16, 32, 64)) -> str:
    """Section-9 future work: static vs idealised dynamic tile assignment."""
    from repro.analysis.dynamic import compare_static_dynamic, render_comparison

    scene = build_scene("massive32_1255", scale)
    rows = compare_static_dynamic(scene, widths, num_processors)
    return render_comparison("massive32_1255", rows, num_processors, scale)


def future_l2_interframe(
    scale: float,
    num_processors: int = 16,
    pans=(0, 8, 32, 96),
    widths=(16, 64),
    frames: int = 4,
    scene_name: str = "quake",
) -> str:
    """Section-9 future work: inter-frame L2 efficiency vs viewpoint pan.

    ``quake`` is the right testbed: its texels are spatially bound to
    the surfaces that use them (unique t/f > 1), so a viewpoint
    translation genuinely moves texture demand between nodes.  Scenes
    with screen-global texture repetition (the massive family) keep
    most of their L2 benefit at any pan, because every node's L2 holds
    the shared texture set regardless of which tiles it owns.
    """
    from repro.analysis.interframe import (
        render_interframe_table,
        replay_sequence,
        warm_frame_ratio,
    )
    from repro.workloads import SCENE_SPECS
    from repro.workloads.sequence import pan_sequence

    rows = []
    for pan in pans:
        for width in widths:
            sequence = pan_sequence(SCENE_SPECS[scene_name], scale, frames, pan)
            traffic = replay_sequence(sequence, BlockInterleaved(num_processors, width))
            rows.append(
                (pan, width, traffic[0].memory_ratio, warm_frame_ratio(traffic))
            )
    return render_interframe_table(rows, scene_name, num_processors, scale)


def extension_geometry_stage(
    scale: float,
    num_processors: int = 16,
    engines=(1, 2, 4, 8, 16),
    geometry_cycles: float = DEFAULT_GEOMETRY_CYCLES,
) -> str:
    """Balanced-machine study: when does geometry become the bottleneck?

    The paper idealises the geometry stage (Section 2.3, factor 1).
    This extension gives it a finite rate — round-robin engines at a
    fixed per-triangle cost — and shows how many geometry engines a
    texture-mapping configuration needs before the idealisation holds.
    """
    from repro.core.config import TimingConfig
    from repro.core.machine import simulate_machine
    from repro.core.routing import build_routed_work

    scene = build_scene("massive32_1255", scale)
    dist = BlockInterleaved(num_processors, 16)
    work = build_routed_work(scene, dist, cache_spec="lru")
    ideal = simulate_machine(work, TimingConfig()).cycles
    rows = []
    for count in engines:
        timing = TimingConfig(geometry_engines=count, geometry_cycles=geometry_cycles)
        cycles = simulate_machine(work, timing).cycles
        rows.append(
            [count, round(cycles), f"{ideal / cycles:.0%}"]
        )
    rows.append(["ideal", round(ideal), "100%"])
    table = format_table(
        ["geometry engines", "frame cycles", "of ideal throughput"], rows
    )
    return (
        f"Extension: finite-rate geometry stage "
        f"({geometry_cycles:g} cycles/triangle/engine), massive32_1255, "
        f"{num_processors}P block16 (scale={scale})\n{table}"
    )


register_scale_specs(
    ("future-dynamic", "Sec. 9 future work: dynamic tile assignment", future_dynamic),
    ("future-l2", "Sec. 9 future work: inter-frame L2 vs viewpoint pan", future_l2_interframe),
    (
        "geometry-stage",
        "extension: finite-rate geometry stage (balanced machine)",
        extension_geometry_stage,
    ),
)
