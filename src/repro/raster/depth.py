"""Depth testing — the substrate the paper deliberately leaves out.

The paper's machine textures *every* rasterised fragment and performs
hidden-surface removal afterwards, so the Z-buffer "has no impact" on
texture-cache behaviour and is not simulated.  A modern early-Z engine
rejects occluded fragments *before* texturing, which changes both the
texture traffic and the spatial work distribution — this module
provides the test so the ablation can quantify that assumption.

Semantics are the sequential Z-buffer's: fragments are processed in
submission order; a fragment survives if its depth is strictly smaller
than every earlier surviving depth at its pixel (GL_LESS against an
initially infinite buffer).  The implementation is a vectorised
segmented running-minimum, one segment per pixel.

Fragment buffers carry no depth column; :func:`fragment_depths`
recomputes the rasterizer's interpolated depth for the fragments the
test is asked about.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.scene import Scene
from repro.raster.batch import fragment_depths
from repro.raster.fragments import FragmentBuffer


def depth_visible_mask(
    fragments: FragmentBuffer, depths: np.ndarray, width: int, height: int
) -> np.ndarray:
    """Which fragments pass a GL_LESS Z-test, in submission order.

    ``depths`` holds each fragment's depth (:func:`fragment_depths`).
    """
    n = len(fragments)
    if n == 0:
        return np.zeros(0, dtype=bool)
    pixel = fragments.y.astype(np.int64) * width + fragments.x
    # Stable-sort by pixel: each pixel's fragments stay in submission
    # order inside their segment.
    order = np.argsort(pixel, kind="stable")
    sorted_pixel = pixel[order]
    sorted_z = depths[order]

    # Running minimum of the *previous* entries within each segment: a
    # fragment passes iff z < min(earlier z at the pixel).  Depths are
    # first densely ranked (strictly monotone, so all < comparisons are
    # preserved) so the segmented prefix-min trick below runs in exact
    # integer arithmetic: shift each segment's ranks down by a large
    # per-segment offset (later segments lower), making earlier
    # segments' keys strictly larger — a plain cumulative minimum then
    # cannot leak across segment boundaries.
    starts = np.ones(n, dtype=bool)
    starts[1:] = sorted_pixel[1:] != sorted_pixel[:-1]
    segment_id = np.cumsum(starts) - 1
    unique_depths, ranks = np.unique(sorted_z, return_inverse=True)
    ranks = ranks.astype(np.int64)
    span = np.int64(len(unique_depths) + 1)
    sentinel = span  # larger than every rank
    keyed = ranks - segment_id * span
    best_keyed = np.minimum.accumulate(keyed)
    prev_best = np.empty(n, dtype=np.int64)
    prev_best[0] = sentinel
    prev_best[1:] = best_keyed[:-1] + segment_id[1:] * span
    prev_best[starts] = sentinel
    visible_sorted = ranks < prev_best

    visible = np.empty(n, dtype=bool)
    visible[order] = visible_sorted
    return visible


def resolve_depth(scene: Scene, fragments: FragmentBuffer) -> FragmentBuffer:
    """The early-Z machine's fragment stream: ``scene``'s survivors only."""
    depths = fragment_depths(scene, fragments)
    return fragments.select(depth_visible_mask(fragments, depths, scene.width, scene.height))
