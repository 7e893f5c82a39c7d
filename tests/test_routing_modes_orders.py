"""Tests for coverage routing, emit orders and the new experiments."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import experiments
from repro.core import MachineConfig, simulate_machine
from repro.core.routing import build_routed_work, route_by_coverage
from repro.distribution import BlockInterleaved
from repro.errors import ConfigurationError
from repro.workloads import SCENE_SPECS
from repro.workloads.generator import generate_scene

SCALE = 0.0625


class TestCoverageRouting:
    def test_coverage_is_subset_of_bbox(self, tiny_bench_scene):
        dist = BlockInterleaved(8, 8)
        bbox = build_routed_work(tiny_bench_scene, dist, cache_spec="perfect")
        oracle = build_routed_work(
            tiny_bench_scene, dist, cache_spec="perfect", route_by="coverage"
        )
        for node in range(8):
            assert set(oracle.triangles[node]) <= set(bbox.triangles[node])

    def test_coverage_routes_exactly_covering_nodes(self, flat_scene):
        dist = BlockInterleaved(4, 8)
        work = build_routed_work(
            flat_scene, dist, cache_spec="perfect", route_by="coverage"
        )
        for node in range(4):
            assert (work.pixels[node] > 0).all()

    def test_oracle_never_slower(self, tiny_bench_scene):
        dist = BlockInterleaved(8, 4)
        config = MachineConfig(distribution=dist, cache="perfect")
        bbox_work = build_routed_work(tiny_bench_scene, dist, cache_spec="perfect")
        oracle_work = build_routed_work(
            tiny_bench_scene, dist, cache_spec="perfect", route_by="coverage"
        )
        t_bbox = simulate_machine(bbox_work, config.timing).cycles
        t_oracle = simulate_machine(oracle_work, config.timing).cycles
        assert t_oracle <= t_bbox

    def test_route_by_validation(self, flat_scene):
        with pytest.raises(ConfigurationError):
            build_routed_work(
                flat_scene, BlockInterleaved(4, 8), route_by="psychic"
            )

    def test_route_by_coverage_helper(self):
        pixel_matrix = np.array([0, 3, 0, 2, 0, 0, 5, 1])  # 2 tris x 4 nodes
        routed = route_by_coverage(pixel_matrix, 2, 4)
        assert [ids.tolist() for ids in routed] == [[], [0], [1], [0, 1]]


class TestEmitOrders:
    def test_orders_preserve_content(self):
        base = SCENE_SPECS["blowout775"]
        scenes = {
            order: generate_scene(replace(base, emit_order=order), scale=SCALE)
            for order in ("clustered", "raster", "random")
        }
        counts = {order: scene.num_triangles for order, scene in scenes.items()}
        assert len(set(counts.values())) == 1
        pixel_totals = {
            order: len(scene.fragments()) for order, scene in scenes.items()
        }
        assert len(set(pixel_totals.values())) == 1

    def test_raster_order_sorted_by_y(self):
        spec = replace(SCENE_SPECS["blowout775"], emit_order="raster")
        scene = generate_scene(spec, scale=SCALE)
        # Objects are emitted in centre-y order; estimate each object's
        # centre as the mean over its 18 triangles' vertices.
        per_object = scene.num_triangles // 18
        centres = []
        for index in range(per_object):
            tris = scene.triangles[index * 18 : (index + 1) * 18]
            centres.append(np.mean([v.y for t in tris for v in t.vertices]))
        assert (np.diff(centres) >= -1e-6).all()

    def test_invalid_order_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(SCENE_SPECS["blowout775"], emit_order="spiral")


class TestNewExperiments:
    def test_ablation_routing_text(self):
        text = experiments.ablation_routing(SCALE, num_processors=8)
        assert "oracle" in text and "setup overhead" in text

    def test_ablation_order_text(self):
        text = experiments.ablation_submission_order(SCALE, num_processors=8)
        assert "clustered" in text and "random" in text

    def test_seed_sensitivity_text(self):
        text = experiments.seed_sensitivity(SCALE, seeds=(104, 1), num_processors=4)
        assert "seed" in text
        assert "104" in text


class TestTexelFormat:
    def test_layout_16bit_packs_more_texels(self):
        from repro.texture import MipmappedTexture, TextureMemoryLayout

        narrow = TextureMemoryLayout([MipmappedTexture(64, 64)], bytes_per_texel=2)
        wide = TextureMemoryLayout([MipmappedTexture(64, 64)])
        assert narrow.texels_per_line == 32
        assert narrow.block_shape == (8, 4)
        assert narrow.total_lines < wide.total_lines

    def test_bad_texel_size_rejected(self):
        from repro.texture import MipmappedTexture, TextureMemoryLayout

        with pytest.raises(ConfigurationError):
            TextureMemoryLayout([MipmappedTexture(8, 8)], bytes_per_texel=3)

    def test_16bit_texels_cost_fewer_bytes(self, tiny_bench_scene):
        from repro.texture import TextureMemoryLayout

        dist = BlockInterleaved(8, 16)
        results = {}
        for bpt in (2, 4):
            layout = TextureMemoryLayout(tiny_bench_scene.textures, bytes_per_texel=bpt)
            work = build_routed_work(tiny_bench_scene, dist, cache_spec="lru", layout=layout)
            results[bpt] = work.cache.misses * 64
        assert results[2] < results[4]

    def test_fetch_granularity_follows_layout(self, tiny_bench_scene):
        from repro.texture import TextureMemoryLayout

        layout = TextureMemoryLayout(tiny_bench_scene.textures, bytes_per_texel=2)
        work = build_routed_work(
            tiny_bench_scene, BlockInterleaved(4, 16), cache_spec="lru", layout=layout
        )
        assert work.cache.texels_fetched == work.cache.misses * 32

    def test_ablation_text(self):
        text = experiments.ablation_texel_format(SCALE, num_processors=4)
        assert "16-bit" in text and "8x4" in text

    def test_interleave_pattern_text(self):
        text = experiments.ablation_interleave_pattern(SCALE, widths=(16,))
        assert "morton" in text
