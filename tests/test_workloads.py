"""Tests for the synthetic workload generator and the named scenes."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads import (
    SCENE_NAMES,
    SCENE_SPECS,
    ClusterSpec,
    SceneSpec,
    build_scene,
    generate_scene,
)
from repro.workloads.generator import _visible_area
from repro.workloads.scenes import experiment_scale


def small_spec(**overrides) -> SceneSpec:
    base = dict(
        name="test",
        screen_width=256,
        screen_height=256,
        depth_complexity=2.0,
        pixels_per_triangle=100.0,
        num_textures=4,
        texture_edges=((32, 1.0),),
        texel_scale=1.0,
        seed=5,
    )
    base.update(overrides)
    return SceneSpec(**base)


class TestSpecValidation:
    def test_rejects_bad_depth(self):
        with pytest.raises(ConfigurationError):
            small_spec(depth_complexity=0)

    def test_rejects_bad_texel_scale(self):
        with pytest.raises(ConfigurationError):
            small_spec(texel_scale=-1)

    def test_rejects_empty_texture_mix(self):
        with pytest.raises(ConfigurationError):
            small_spec(texture_edges=())

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            small_spec(texture_window=0)

    def test_cluster_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(count=-1)
        with pytest.raises(ConfigurationError):
            ClusterSpec(weight=1.5)
        with pytest.raises(ConfigurationError):
            ClusterSpec(sigma_fraction=0)


class TestScaling:
    def test_scale_one_is_identity(self):
        spec = small_spec()
        assert spec.scaled(1.0) is spec

    def test_scale_shrinks_screen_linearly(self):
        spec = small_spec().scaled(0.5)
        assert spec.screen_width == 128
        assert spec.screen_height == 128

    def test_scale_keeps_per_pixel_quantities(self):
        spec = small_spec().scaled(0.25)
        assert spec.pixels_per_triangle == 100.0
        assert spec.texel_scale == 1.0
        assert spec.texture_edges == ((32, 1.0),)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            small_spec().scaled(0)
        with pytest.raises(ConfigurationError):
            small_spec().scaled(1.5)


class TestGeneration:
    def test_deterministic(self):
        a = generate_scene(small_spec())
        b = generate_scene(small_spec())
        assert a.num_triangles == b.num_triangles
        va = a.triangles[0].v0
        vb = b.triangles[0].v0
        assert (va.x, va.y, va.u, va.v) == (vb.x, vb.y, vb.u, vb.v)

    def test_seed_changes_scene(self):
        a = generate_scene(small_spec(seed=1))
        b = generate_scene(small_spec(seed=2))
        assert (a.triangles[0].v0.x, a.triangles[0].v0.y) != (
            b.triangles[0].v0.x,
            b.triangles[0].v0.y,
        )

    def test_depth_complexity_hits_target(self):
        scene = generate_scene(small_spec(depth_complexity=3.0))
        stats = scene.statistics()
        assert stats.depth_complexity == pytest.approx(3.0, rel=0.25)

    def test_pixels_per_triangle_in_range(self):
        scene = generate_scene(small_spec(pixels_per_triangle=50.0))
        stats = scene.statistics()
        assert 20 <= stats.pixels_per_triangle <= 80

    def test_magnified_scene_has_low_unique_ratio(self):
        magnified = generate_scene(small_spec(texel_scale=0.25, texture_edges=((16, 1.0),)))
        minified = generate_scene(small_spec(texel_scale=2.0, texture_edges=((256, 1.0),)))
        ratio_mag = magnified.statistics().unique_texel_to_fragment
        ratio_min = minified.statistics().unique_texel_to_fragment
        assert ratio_mag < ratio_min

    def test_texture_count_respected(self):
        scene = generate_scene(small_spec(num_textures=7))
        assert len(scene.textures) == 7

    def test_all_triangles_reference_valid_textures(self):
        scene = generate_scene(small_spec())
        for triangle in scene.triangles:
            assert 0 <= triangle.texture < len(scene.textures)


class TestVisibleArea:
    def test_fully_inside(self):
        square = [(10, 10), (20, 10), (20, 20), (10, 20)]
        assert _visible_area(square, 64, 64) == pytest.approx(100.0)

    def test_half_clipped(self):
        square = [(-10, 0), (10, 0), (10, 10), (-10, 10)]
        assert _visible_area(square, 64, 64) == pytest.approx(100.0)

    def test_fully_outside(self):
        square = [(100, 100), (110, 100), (110, 110), (100, 110)]
        assert _visible_area(square, 64, 64) == 0.0


class TestNamedScenes:
    def test_all_seven_scenes_defined(self):
        assert len(SCENE_NAMES) == 7
        assert set(SCENE_NAMES) == set(SCENE_SPECS)

    def test_unknown_scene_rejected(self):
        with pytest.raises(ConfigurationError):
            build_scene("doom")

    def test_build_is_memoised(self):
        a = build_scene("quake", scale=0.0625)
        b = build_scene("quake", scale=0.0625)
        assert a is b

    def test_screen_sizes_match_table_one(self):
        assert (SCENE_SPECS["room3"].screen_width, SCENE_SPECS["room3"].screen_height) == (1280, 1024)
        assert (SCENE_SPECS["quake"].screen_width, SCENE_SPECS["quake"].screen_height) == (1152, 870)
        assert SCENE_SPECS["truc640"].screen_width == 1600

    def test_unique_ratio_ordering_matches_table_one(self):
        """quake and teapot are compulsory-heavy; blowout/massive1 are
        the most reuse-heavy — the rank order of Table 1."""
        ratios = {
            name: build_scene(name, scale=0.0625).statistics().unique_texel_to_fragment
            for name in ("quake", "teapot_full", "massive32_1255", "massive1_1255", "blowout775")
        }
        assert ratios["quake"] > ratios["massive32_1255"] > ratios["massive1_1255"]
        assert ratios["teapot_full"] > ratios["massive32_1255"]
        assert ratios["blowout775"] < ratios["massive32_1255"]

    def test_depth_complexity_ranking(self):
        room = build_scene("room3", scale=0.0625).statistics().depth_complexity
        quake = build_scene("quake", scale=0.0625).statistics().depth_complexity
        assert room > 2 * quake


class TestExperimentScale:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert experiment_scale() == 0.25

    def test_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert experiment_scale() == 0.5

    def test_bad_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "zero")
        with pytest.raises(ConfigurationError):
            experiment_scale()
        monkeypatch.setenv("REPRO_SCALE", "2.0")
        with pytest.raises(ConfigurationError):
            experiment_scale()
