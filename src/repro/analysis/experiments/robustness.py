"""Robustness and methodology studies: seeds, CAD contrast, scale."""

from __future__ import annotations

from repro.analysis.experiments.common import BLOCK_WIDTHS, register_scale_specs
from repro.analysis.load_balance import imbalance_percent
from repro.analysis.locality import texel_to_fragment_ratio
from repro.analysis.performance import SpeedupStudy
from repro.analysis.tables import format_table
from repro.distribution import BlockInterleaved, ScanLineInterleaved
from repro.workloads import build_scene


def seed_sensitivity(scale: float, seeds=(104, 1, 2, 3, 4), num_processors: int = 16) -> str:
    """Generator-noise check: do the conclusions survive a reseed?

    The workloads are synthetic, so the headline findings must not
    hinge on one random draw.  Regenerates ``massive32_1255`` under
    several seeds and reports the best block width, its speedup and the
    block-16 texel/fragment ratio per seed.
    """
    from dataclasses import replace as dataclass_replace

    from repro.workloads import SCENE_SPECS
    from repro.workloads.generator import generate_scene

    rows = []
    for seed in seeds:
        spec = dataclass_replace(SCENE_SPECS["massive32_1255"], seed=seed)
        scene = generate_scene(spec, scale=scale)
        study = SpeedupStudy(scene, cache="lru", bus_ratio=1.0)
        best_width, best_speedup = study.best_size(
            "block", BLOCK_WIDTHS, num_processors
        )
        ratio = texel_to_fragment_ratio(
            scene, BlockInterleaved(num_processors, 16)
        )
        rows.append([seed, best_width, round(best_speedup, 2), round(ratio, 3)])
    table = format_table(
        ["seed", "best width", "best speedup", "t/f @ block16"], rows
    )
    return (
        f"Robustness: massive32_1255 regenerated under different seeds, "
        f"{num_processors} processors (scale={scale})\n{table}"
    )


def cad_contrast(scale: float, num_processors: int = 16) -> str:
    """Why the paper rejected SPEC Viewperf (Section 4.2), measured.

    A Viewperf-like CAD frame next to a VR frame: the CAD scene's huge
    magnified-texture triangles leave the cache almost nothing to do
    (texel/fragment near the compulsory floor for every distribution),
    so a texture-cache distribution study run on it would conclude the
    design choice barely matters — which is exactly why the paper built
    its own virtual-reality benchmarks.
    """
    from repro.workloads.generator import generate_scene
    from repro.workloads.scenes import CAD_CONTRAST_SPEC

    cad = generate_scene(CAD_CONTRAST_SPEC, scale=scale)
    vr = build_scene("massive32_1255", scale)
    rows = []
    for scene in (cad, vr):
        stats = scene.statistics()
        ratios = {}
        for label, dist in (
            ("block16", BlockInterleaved(num_processors, 16)),
            ("sli1", ScanLineInterleaved(num_processors, 1)),
        ):
            ratios[label] = texel_to_fragment_ratio(scene, dist)
        spread = (
            ratios["sli1"] / ratios["block16"] if ratios["block16"] else 1.0
        )
        rows.append(
            [
                stats.name,
                round(stats.depth_complexity, 2),
                round(stats.pixels_per_triangle),
                round(stats.unique_texel_to_fragment, 3),
                round(ratios["block16"], 3),
                round(ratios["sli1"], 3),
                f"{spread:.2f}x",
            ]
        )
    table = format_table(
        [
            "scene",
            "depth",
            "px/tri",
            "uniq t/f",
            "t/f block16",
            "t/f sli1 (worst case)",
            "distribution sensitivity",
        ],
        rows,
    )
    return (
        f"Contrast: Viewperf-style CAD frame vs VR frame, "
        f"{num_processors} processors (scale={scale})\n{table}"
    )


def scale_stability(
    scale: float, scales=(0.0625, 0.125, 0.25), num_processors: int = 16
) -> str:
    """Which conclusions survive the scene-scale substitution?

    The reproduction runs reduced frames; this study re-measures the
    headline quantities at several scales so readers can see what is
    scale-stable (texel/fragment regimes, best-width plateau) and what
    shifts (absolute imbalance, buffer knees).  The ``scale`` argument
    is ignored — the sweep IS the scales.
    """
    del scale
    rows = []
    for s in scales:
        scene = build_scene("massive32_1255", s)
        study = SpeedupStudy(scene, cache="lru", bus_ratio=1.0)
        best_width, best = study.best_size("block", BLOCK_WIDTHS, num_processors)
        ratio = texel_to_fragment_ratio(scene, BlockInterleaved(num_processors, 16))
        imbalance = imbalance_percent(scene, BlockInterleaved(num_processors, 16))
        rows.append(
            [
                s,
                f"{scene.width}x{scene.height}",
                best_width,
                round(best, 2),
                round(ratio, 3),
                round(imbalance, 1),
            ]
        )
    table = format_table(
        ["scale", "screen", "best width", "best speedup",
         "t/f @ block16", "imbal% @ block16"],
        rows,
    )
    return (
        f"Methodology: scale stability of the headline metrics, "
        f"massive32_1255, {num_processors} processors\n{table}"
    )


register_scale_specs(
    ("seeds", "robustness: conclusions across generator seeds", seed_sensitivity),
    ("cad-contrast", "contrast: Viewperf-style CAD frame vs VR frame (Sec. 4.2)", cad_contrast),
    ("scale-stability", "methodology: headline metrics across scene scales", scale_stability),
)
