"""Tests for triangle routing and per-node work extraction."""

import numpy as np
import pytest

from repro.analysis.load_balance import imbalance_percent
from repro.core.routing import build_routed_work, route_triangles
from repro.distribution import BlockInterleaved, ScanLineInterleaved, SingleProcessor


def test_single_processor_gets_all_work(flat_scene):
    work = build_routed_work(flat_scene, SingleProcessor(), cache_spec="perfect")
    assert work.num_processors == 1
    assert work.node_pixels[0] == len(flat_scene.fragments())
    assert len(work.triangles[0]) == flat_scene.num_triangles
    # Triangle ids arrive in submission order.
    assert (np.diff(work.triangles[0]) > 0).all()


def test_node_pixels_partition_fragments(flat_scene):
    dist = BlockInterleaved(4, 8)
    work = build_routed_work(flat_scene, dist, cache_spec="perfect")
    assert work.node_pixels.sum() == len(flat_scene.fragments())


def test_pixel_counts_match_owner_map(flat_scene):
    dist = ScanLineInterleaved(4, 8)
    work = build_routed_work(flat_scene, dist, cache_spec="perfect")
    fragments = flat_scene.fragments()
    owners = dist.owners(fragments.x, fragments.y)
    for node in range(4):
        assert work.pixels[node].sum() == (owners == node).sum()


def test_routing_superset_of_coverage(tiny_bench_scene):
    """Every node that draws a pixel of a triangle must receive it."""
    scene = tiny_bench_scene
    dist = BlockInterleaved(16, 8)
    routed = route_triangles(scene, dist)
    fragments = scene.fragments()
    owners = dist.owners(fragments.x, fragments.y)
    for node in range(dist.num_processors):
        drawn = set(np.unique(fragments.triangle[owners == node]).tolist())
        assert drawn <= set(routed[node].tolist())


def test_routed_zero_pixel_triangles_cost_setup(flat_scene):
    """Bounding-box routing bills setup on grazed tiles.

    node_work must equal sum(max(25, pixels)) including zero-pixel
    entries, which is what makes tiny tiles setup-bound.
    """
    dist = BlockInterleaved(4, 2)
    work = build_routed_work(flat_scene, dist, cache_spec="perfect", setup_cycles=25)
    for node in range(4):
        expected = np.maximum(work.pixels[node], 25).sum()
        assert work.node_work[node] == expected


def test_imbalance_zero_for_uniform_scene_fine_blocks(flat_scene):
    assert imbalance_percent(flat_scene, BlockInterleaved(4, 8)) == pytest.approx(0.0, abs=1.0)


def test_cache_replay_aggregates_across_nodes(flat_scene):
    solo = build_routed_work(flat_scene, SingleProcessor(), cache_spec="lru")
    split = build_routed_work(flat_scene, BlockInterleaved(4, 8), cache_spec="lru")
    assert split.cache.fragments == solo.cache.fragments
    # Splitting the image can only lose line reuse, never gain it.
    assert split.cache.misses >= solo.cache.misses


def test_perfect_cache_skips_fetches(flat_scene):
    work = build_routed_work(flat_scene, BlockInterleaved(4, 8), cache_spec="perfect")
    assert work.cache.texels_fetched == 0
    for node in range(4):
        assert (work.texels[node] == 0).all()


def test_texels_align_with_routed_triangles(flat_scene):
    dist = BlockInterleaved(4, 8)
    work = build_routed_work(flat_scene, dist, cache_spec="lru")
    total = sum(work.texels[node].sum() for node in range(4))
    assert total == work.cache.texels_fetched
    for node in range(4):
        assert len(work.texels[node]) == len(work.triangles[node])
        assert len(work.pixels[node]) == len(work.triangles[node])
