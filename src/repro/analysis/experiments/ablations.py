"""Ablations: cache geometry, interleaving, blocking, routing, order."""

from __future__ import annotations

from repro.analysis.buffering import buffer_sweep
from repro.analysis.experiments.common import register_scale_specs
from repro.analysis.load_balance import imbalance_percent
from repro.analysis.locality import texel_to_fragment_ratio
from repro.analysis.performance import SpeedupStudy
from repro.analysis.tables import format_table
from repro.cache import CacheConfig
from repro.distribution import BlockInterleaved, ContiguousBands, ScanLineInterleaved, SingleProcessor
from repro.texture.layout import TextureMemoryLayout
from repro.workloads import SCENE_NAMES, build_scene


def ablation_cache_size(scale: float, sizes_kb=(4, 8, 16, 32, 64)) -> str:
    scene = build_scene("massive32_1255", scale)
    dist = BlockInterleaved(16, 16)
    rows = [
        [f"{kb}KB", round(texel_to_fragment_ratio(scene, dist, CacheConfig(total_bytes=kb * 1024)), 3)]
        for kb in sizes_kb
    ]
    return (
        f"Ablation: texel/fragment vs cache size, massive32_1255, block16x16 "
        f"(scale={scale})\n" + format_table(["cache", "texel/frag"], rows)
    )


def ablation_cache_associativity(scale: float, ways=(1, 2, 4, 8)) -> str:
    scene = build_scene("massive32_1255", scale)
    dist = BlockInterleaved(16, 16)
    rows = [
        [f"{w}-way", round(texel_to_fragment_ratio(scene, dist, CacheConfig(ways=w)), 3)]
        for w in ways
    ]
    return (
        f"Ablation: texel/fragment vs associativity (16KB), massive32_1255, "
        f"block16x16 (scale={scale})\n"
        + format_table(["organisation", "texel/frag"], rows)
    )


def ablation_interleaving(scale: float, processors: int = 16) -> str:
    rows = []
    for name in SCENE_NAMES:
        scene = build_scene(name, scale)
        interleaved = BlockInterleaved(processors, 16)
        bands = ContiguousBands(processors, scene.height)
        study = SpeedupStudy(scene, cache="perfect")
        rows.append(
            [
                name,
                round(imbalance_percent(scene, interleaved), 1),
                round(imbalance_percent(scene, bands), 1),
                round(study.speedup(interleaved), 2),
                round(study.speedup(bands), 2),
            ]
        )
    return (
        f"Ablation: interleaved block16 vs contiguous bands, {processors} "
        f"processors, perfect cache (scale={scale})\n"
        + format_table(
            ["scene", "imbal% interleaved", "imbal% bands",
             "speedup interleaved", "speedup bands"],
            rows,
        )
    )


def ablation_texture_blocking(scale: float) -> str:
    scene = build_scene("massive32_1255", scale)
    blocked = TextureMemoryLayout(scene.textures, block_shape=(4, 4))
    linear = TextureMemoryLayout(scene.textures, block_shape=(16, 1))
    rows = []
    for dist in (
        SingleProcessor(),
        BlockInterleaved(16, 16),
        ScanLineInterleaved(16, 2),
        ScanLineInterleaved(16, 1),
    ):
        rows.append(
            [
                dist.describe(),
                round(texel_to_fragment_ratio(scene, dist, layout=blocked), 3),
                round(texel_to_fragment_ratio(scene, dist, layout=linear), 3),
            ]
        )
    return (
        f"Ablation: texel/fragment with 4x4 blocking vs 16x1 raster lines, "
        f"massive32_1255 (scale={scale})\n"
        + format_table(["distribution", "blocked 4x4", "raster 16x1"], rows)
    )


def ablation_submission_order(scale: float, num_processors: int = 64) -> str:
    """How triangle submission order interacts with the triangle buffer.

    One might expect a clustered (BSP-walk-like) stream to need much
    deeper buffers than a raster or random re-emission of the same
    workload.  Measured finding: with an *interleaved* distribution the
    orders are nearly indistinguishable — fine interleaving spatially
    de-clusters any stream (every burst still touches every node), so
    the Figure-8 buffer requirement is a property of the machine, not
    of scene traversal order.  A negative result, and a reassuring one
    for the synthetic traces.
    """
    from dataclasses import replace as dataclass_replace

    from repro.workloads import SCENE_SPECS
    from repro.workloads.generator import generate_scene

    buffers = (1, 5, 20, 10000)
    rows = []
    for order in ("clustered", "raster", "random"):
        spec = dataclass_replace(SCENE_SPECS["truc640"], emit_order=order)
        scene = generate_scene(spec, scale=scale)
        sweep = buffer_sweep(
            scene,
            "block",
            sizes=[16],
            buffer_sizes=buffers,
            num_processors=num_processors,
            cache="perfect",
        )
        ideal = sweep[(16, buffers[-1])]
        rows.append(
            [order]
            + [round(sweep[(16, b)], 2) for b in buffers]
            + [f"{sweep[(16, buffers[0])] / ideal:.0%}"]
        )
    table = format_table(
        ["submission order"] + [f"buf{b}" for b in buffers] + ["buf1 retains"],
        rows,
    )
    return (
        f"Ablation: submission order vs triangle-buffer need, truc640, "
        f"{num_processors}P block16, perfect cache (scale={scale})\n{table}"
    )


def ablation_routing(scale: float, num_processors: int = 64) -> str:
    """Bounding-box routing vs oracle exact-coverage routing.

    Quantifies the grazed-tile setup slots a real distributor pays:
    the gap widens as tiles shrink below the triangle size.
    """
    from repro.core.config import TimingConfig
    from repro.core.machine import simulate_machine
    from repro.core.routing import build_routed_work

    scene = build_scene("room3", scale)
    rows = []
    for width in (4, 8, 16, 32):
        dist = BlockInterleaved(num_processors, width)
        cycles = {}
        for mode in ("bbox", "coverage"):
            work = build_routed_work(
                scene, dist, cache_spec="perfect", route_by=mode
            )
            cycles[mode] = simulate_machine(work, TimingConfig()).cycles
        overhead = cycles["bbox"] / cycles["coverage"] - 1.0
        rows.append(
            [width, round(cycles["bbox"]), round(cycles["coverage"]), f"{overhead:.1%}"]
        )
    table = format_table(
        ["width", "cycles bbox", "cycles oracle", "setup overhead"], rows
    )
    return (
        f"Ablation: bbox vs oracle coverage routing, room3, "
        f"{num_processors}P block, perfect cache (scale={scale})\n{table}"
    )


def ablation_texel_format(scale: float, num_processors: int = 16) -> str:
    """32-bit vs 16-bit texels — a format axis the paper fixes.

    The paper assumes 4-byte texels, so a 64-byte line holds a 4x4
    block.  Many era parts stored 16-bit textures: a line then holds an
    8x4 block, halving the *byte* cost of a fill and widening the
    spatial footprint a line covers.  The metric here is external
    **bytes per fragment** (texel counts are not comparable across
    formats).
    """
    scene = build_scene("massive32_1255", scale)
    from repro.core.routing import build_routed_work

    rows = []
    for label, bytes_per_texel in (("32-bit (paper)", 4), ("16-bit", 2)):
        layout = TextureMemoryLayout(scene.textures, bytes_per_texel=bytes_per_texel)
        per_dist = []
        for dist in (SingleProcessor(), BlockInterleaved(num_processors, 16),
                     ScanLineInterleaved(num_processors, 1)):
            work = build_routed_work(scene, dist, cache_spec="lru", layout=layout)
            bytes_per_fragment = (
                work.cache.misses * 64 / work.cache.fragments
                if work.cache.fragments
                else 0.0
            )
            per_dist.append(round(bytes_per_fragment, 2))
        rows.append([label, f"{layout.block_shape[0]}x{layout.block_shape[1]}"] + per_dist)
    table = format_table(
        ["texel format", "line block", "B/frag single",
         f"B/frag block16x{num_processors}", f"B/frag sli1x{num_processors}"],
        rows,
    )
    return (
        f"Ablation: texel format (bytes/fragment of external traffic), "
        f"massive32_1255 (scale={scale})\n{table}"
    )


def ablation_interleave_pattern(scale: float, widths=(8, 16, 32)) -> str:
    """Grid-repeat vs Morton-curve dealing of the same square tiles.

    Two ways to interleave identical blocks: the repeating processor
    grid the machine uses, and a Z-curve round-robin (adopted by some
    real rasterisers).  For power-of-two processor counts the two are
    *provably the same partition* — Morton-code mod ``2^(2k)`` is a
    bit-relabelling of the square ``2^k x 2^k`` grid — which the 16P
    and 64P rows confirm to the cycle.  At awkward (non-power-of-two)
    counts the patterns diverge and the *grid* wins: a Z-curve dealt
    round-robin over a count that does not divide its period clusters
    consecutive tiles onto the same node.  Either way the design space
    the paper studies — tile size and shape — dominates the dealing
    pattern wherever the pattern is sane.
    """
    from repro.distribution.morton import MortonInterleaved

    scene = build_scene("massive32_1255", scale)
    study = SpeedupStudy(scene, cache="lru", bus_ratio=1.0)
    rows = []
    for processors in (12, 16, 48, 64):
        for width in widths:
            grid = BlockInterleaved(processors, width)
            morton = MortonInterleaved(processors, width)
            rows.append(
                [
                    processors,
                    width,
                    round(imbalance_percent(scene, grid), 1),
                    round(imbalance_percent(scene, morton), 1),
                    round(study.speedup(grid), 2),
                    round(study.speedup(morton), 2),
                ]
            )
    table = format_table(
        ["procs", "width", "imbal% grid", "imbal% morton",
         "speedup grid", "speedup morton"],
        rows,
    )
    return (
        f"Ablation: grid vs Morton block interleave, massive32_1255 "
        f"(scale={scale})\n{table}"
    )


def ablation_early_z(scale: float, num_processors: int = 16) -> str:
    """Quantify the paper's 'no Z-buffer' assumption against early-Z.

    The paper textures every rasterised fragment (hidden-surface
    removal happens after texturing), arguing the Z-buffer cannot
    affect the texture system.  A modern early-Z engine rejects
    occluded fragments *before* texturing; this ablation re-runs the
    machine on the depth-resolved survivor stream and reports how much
    texture traffic, load imbalance and frame time actually move.
    """
    from repro.core.config import TimingConfig
    from repro.core.machine import simulate_machine
    from repro.core.routing import build_routed_work
    from repro.raster.depth import resolve_depth

    rows = []
    for name in ("room3", "massive32_1255", "truc640"):
        scene = build_scene(name, scale)
        full = scene.fragments()
        survivors = resolve_depth(scene, full)
        dist = BlockInterleaved(num_processors, 16)
        timing = TimingConfig(bus_ratio=1.0)

        results = {}
        for label, stream in (("late-Z", full), ("early-Z", survivors)):
            work = build_routed_work(scene, dist, cache_spec="lru", fragments=stream)
            solo = build_routed_work(
                scene, SingleProcessor(), cache_spec="lru", fragments=stream
            )
            baseline = simulate_machine(solo, timing).cycles
            results[label] = simulate_machine(work, timing, baseline_cycles=baseline)
        late, early = results["late-Z"], results["early-Z"]
        rows.append(
            [
                name,
                f"{len(survivors) / len(full):.0%}",
                round(late.texel_to_fragment, 3),
                round(early.texel_to_fragment, 3),
                round(late.speedup or 0.0, 2),
                round(early.speedup or 0.0, 2),
                round(late.work_imbalance_percent(), 1),
                round(early.work_imbalance_percent(), 1),
            ]
        )
    table = format_table(
        [
            "scene",
            "fragments kept",
            "t/f late-Z",
            "t/f early-Z",
            "speedup late-Z",
            "speedup early-Z",
            "imbal% late-Z",
            "imbal% early-Z",
        ],
        rows,
    )
    return (
        f"Ablation: late-Z (the paper's machine) vs early-Z fragment "
        f"rejection, {num_processors}P block16, 1x bus (scale={scale})\n{table}"
    )


register_scale_specs(
    ("ablation-cache-size", "ablation: texel/fragment vs cache size", ablation_cache_size),
    (
        "ablation-cache-associativity",
        "ablation: texel/fragment vs cache associativity",
        ablation_cache_associativity,
    ),
    (
        "ablation-interleaving",
        "ablation: interleaved blocks vs contiguous bands",
        ablation_interleaving,
    ),
    (
        "ablation-texture-blocking",
        "ablation: 4x4 texture blocking vs 16x1 raster lines",
        ablation_texture_blocking,
    ),
    (
        "ablation-order",
        "ablation: submission order vs triangle-buffer need",
        ablation_submission_order,
    ),
    ("ablation-routing", "ablation: bounding-box vs oracle coverage routing", ablation_routing),
    ("ablation-texel-format", "ablation: 32-bit vs 16-bit texel formats", ablation_texel_format),
    (
        "ablation-interleave-pattern",
        "ablation: grid vs Morton-curve block dealing",
        ablation_interleave_pattern,
    ),
    (
        "ablation-early-z",
        "ablation: late-Z (paper) vs early-Z fragment rejection",
        ablation_early_z,
    ),
)
