"""Tests for vertices, triangles and scenes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.geometry import Scene, Triangle, Vertex
from repro.texture.texture import MipmappedTexture
from tests.oracles import bounding_box, is_degenerate


def tri(coords, texture=0):
    vertices = [Vertex(*c) for c in coords]
    return Triangle(vertices[0], vertices[1], vertices[2], texture=texture)


class TestTriangle:
    def test_area_of_right_triangle(self):
        t = tri([(0, 0), (10, 0), (0, 10)])
        assert t.area() == pytest.approx(50.0)

    def test_area_is_winding_independent(self):
        a = tri([(0, 0), (10, 0), (0, 10)])
        b = tri([(0, 0), (0, 10), (10, 0)])
        assert a.area() == b.area()
        assert a.signed_area() == -b.signed_area()

    def test_bounding_box(self):
        t = tri([(2, 3), (9, 1), (4, 8)])
        assert bounding_box(t) == (2, 1, 9, 8)

    def test_degenerate_detection(self):
        collinear = tri([(0, 0), (5, 5), (10, 10)])
        assert is_degenerate(collinear)
        assert not is_degenerate(tri([(0, 0), (1, 0), (0, 1)]))

    def test_negative_texture_rejected(self):
        with pytest.raises(ConfigurationError):
            tri([(0, 0), (1, 0), (0, 1)], texture=-1)

    def test_texel_scale_identity_mapping(self):
        t = Triangle(
            Vertex(0, 0, 0, 0), Vertex(10, 0, 10, 0), Vertex(0, 10, 0, 10)
        )
        assert t.texel_to_pixel_scale() == pytest.approx(1.0)

    def test_texel_scale_minified_mapping(self):
        t = Triangle(
            Vertex(0, 0, 0, 0), Vertex(10, 0, 40, 0), Vertex(0, 10, 0, 40)
        )
        assert t.texel_to_pixel_scale() == pytest.approx(4.0)

    def test_texel_scale_of_degenerate_is_zero(self):
        t = tri([(0, 0), (5, 5), (10, 10)])
        assert t.texel_to_pixel_scale() == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        angle=st.floats(min_value=0.0, max_value=2 * math.pi),
        scale=st.floats(min_value=0.05, max_value=16.0),
    )
    def test_property_texel_scale_is_rotation_invariant(self, angle, scale):
        """Rotating the screen footprint never changes the texel scale.

        The affine-Jacobian derivation must see through any rigid motion
        of the screen triangle.
        """
        cos_a, sin_a = math.cos(angle), math.sin(angle)

        def rotated(x, y, u, v):
            return Vertex(cos_a * x - sin_a * y, sin_a * x + cos_a * y, u, v)

        t = Triangle(
            rotated(0, 0, 0, 0),
            rotated(8, 0, 8 * scale, 0),
            rotated(0, 8, 0, 8 * scale),
        )
        assert t.texel_to_pixel_scale() == pytest.approx(scale, rel=1e-6)


class TestVertex:
    def test_translated_moves_position_only(self):
        v = Vertex(1, 2, u=3, v=4).translated(10, 20)
        assert (v.x, v.y, v.u, v.v) == (11, 22, 3, 4)


class TestScene:
    def test_requires_valid_screen(self):
        with pytest.raises(ConfigurationError):
            Scene("bad", 0, 64, [MipmappedTexture(8, 8)])

    def test_requires_textures(self):
        with pytest.raises(ConfigurationError):
            Scene("bad", 64, 64, [])

    def test_add_validates_texture_reference(self):
        scene = Scene("s", 64, 64, [MipmappedTexture(8, 8)])
        with pytest.raises(ConfigurationError):
            scene.add(tri([(0, 0), (1, 0), (0, 1)], texture=1))

    def test_counts_and_bytes(self):
        scene = Scene(
            "s", 64, 64, [MipmappedTexture(8, 8), MipmappedTexture(16, 16)]
        )
        scene.add(tri([(0, 0), (8, 0), (0, 8)], texture=1))
        assert scene.num_triangles == 1
        assert scene.screen_pixels == 64 * 64
        expected = (
            MipmappedTexture(8, 8).total_bytes()
            + MipmappedTexture(16, 16).total_bytes()
        )
        assert scene.texture_bytes() == expected

    def test_adding_triangle_invalidates_fragment_cache(self, flat_scene):
        before = len(flat_scene.fragments())
        flat_scene.add(tri([(0, 0), (4, 0), (0, 4)]))
        after = len(flat_scene.fragments())
        assert after > before

    def test_statistics_of_fully_tiled_screen(self, flat_scene):
        stats = flat_scene.statistics()
        assert stats.pixels_rendered == 64 * 64
        assert stats.depth_complexity == pytest.approx(1.0)
        assert stats.num_triangles == 128
        assert stats.pixels_per_triangle == pytest.approx(32.0)
        assert stats.num_textures == 1
