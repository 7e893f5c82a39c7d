"""Table 1: characteristics of the seven benchmark scenes."""

from __future__ import annotations

from repro.analysis.experiments.common import register_scale_specs
from repro.analysis.tables import format_table
from repro.workloads import SCENE_NAMES, build_scene


def table1(scale: float) -> str:
    """Table 1: characteristics of the seven benchmark scenes."""
    rows = []
    for name in SCENE_NAMES:
        stats = build_scene(name, scale).statistics()
        rows.append(
            [
                stats.name,
                f"{stats.screen_width}x{stats.screen_height}",
                round(stats.pixels_rendered / 1e6, 3),
                round(stats.depth_complexity, 2),
                stats.num_triangles,
                stats.num_textures,
                round(stats.texture_megabytes, 2),
                round(stats.unique_texel_to_fragment * stats.pixels_rendered * 4 / 2**20, 2),
                round(stats.unique_texel_to_fragment, 3),
            ]
        )
    table = format_table(
        ["scene", "screen", "Mpixels", "depth", "triangles", "textures",
         "alloc MB", "used MB", "uniq t/f"],
        rows,
    )
    return f"Table 1 (scale={scale}): scene characteristics\n{table}"


register_scale_specs(("table1", "scene characteristics", table1))
