"""Scan conversion of triangles into fragment buffers."""

from __future__ import annotations

import math

from repro.geometry.scene import Scene
from repro.raster.fragments import FragmentBuffer

#: Deepest mip level the engine addresses (a 2**15 texture edge is far
#: beyond anything the era's hardware supported).
MAX_MIP_LEVEL = 15


def mip_level_for_scale(scale: float) -> int:
    """Base mipmap level for a texel:pixel scale.

    Standard GL selection: ``level = floor(log2(scale))`` clamped to the
    pyramid.  A magnified mapping (scale <= 1) stays on level 0, which is
    what gives magnified textures their artificially high locality — the
    effect the paper's magnification-removal step exists to cancel.
    """
    if scale <= 1.0:
        return 0
    return min(MAX_MIP_LEVEL, int(math.floor(math.log2(scale))))


def rasterize_scene(scene: Scene) -> FragmentBuffer:
    """Rasterize every triangle of a scene, preserving submission order.

    Delegates to the batch scan converter; the per-triangle reference
    rasterizer in ``tests/oracles`` is what the equivalence property
    tests compare it against, bit for bit.
    """
    from repro.raster.batch import rasterize_scene_batch

    return rasterize_scene_batch(scene)

