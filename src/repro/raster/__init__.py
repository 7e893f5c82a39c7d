"""Rasterizer substrate.

Scan-converts the trace's screen-space triangles into fragments in the
same order a hardware engine would visit them (triangle order, then
scanline order), with the exact fill convention needed so that meshes
of adjacent triangles draw every covered pixel exactly once.
"""

from repro.raster.fragments import FragmentBuffer
from repro.raster.raster import mip_level_for_scale, rasterize_scene
from repro.raster.depth import depth_visible_mask, fragment_depths, resolve_depth

__all__ = [
    "FragmentBuffer",
    "rasterize_scene",
    "mip_level_for_scale",
    "depth_visible_mask",
    "fragment_depths",
    "resolve_depth",
]
