"""Scene characterisation — regenerating Table 1.

Measures the statistics the paper tabulates for each benchmark scene:
pixels rendered (all drawn fragments; no Z-buffer is simulated), depth
complexity, triangle and texture counts, the texture-memory footprint
and the *unique* texel-to-fragment ratio (distinct texels touched per
fragment — the compulsory-miss floor of an ideal cache).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.scene import Scene, SceneStatistics
from repro.texture.filtering import TrilinearFilter

#: Fragments per chunk while scanning for unique texels.
_CHUNK = 1 << 18


def unique_texels_touched(scene: Scene) -> int:
    """Number of distinct texels any fragment of the scene samples.

    The filter reads each chunk's half-texel indices, and each
    triangle's mip level and texture from the buffer's per-triangle
    tables, once per run of a chunk's triangle ids.
    """
    fragments = scene.fragments()
    layout = scene.memory_layout()
    tex_filter = TrilinearFilter(layout)
    seen = np.zeros(layout.total_texels, dtype=bool)
    for start in range(0, len(fragments), _CHUNK):
        stop = min(len(fragments), start + _CHUNK)
        texels = tex_filter.texel_addresses(
            fragments.u_half[start:stop],
            fragments.v_half[start:stop],
            fragments.triangle[start:stop],
            fragments.triangle_level,
            fragments.triangle_texture,
        )
        seen[texels.reshape(-1)] = True
    return int(seen.sum())


def characterize_scene(scene: Scene) -> SceneStatistics:
    """Measure the scene's Table-1 row."""
    fragments = scene.fragments()
    pixels = len(fragments)
    unique = unique_texels_touched(scene) if pixels else 0
    return SceneStatistics(
        name=scene.name,
        screen_width=scene.width,
        screen_height=scene.height,
        pixels_rendered=pixels,
        depth_complexity=pixels / scene.screen_pixels,
        num_triangles=scene.num_triangles,
        num_textures=len(scene.textures),
        texture_bytes=scene.texture_bytes(),
        unique_texel_to_fragment=(unique / pixels) if pixels else 0.0,
    )
