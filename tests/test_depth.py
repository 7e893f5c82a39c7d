"""Tests for the recomputed fragment depths and the early-Z resolve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Scene, Triangle, Vertex
from repro.raster.depth import depth_visible_mask, fragment_depths, resolve_depth
from repro.raster.fragments import FragmentBuffer
from repro.texture.texture import MipmappedTexture


def layered_quads(depths, size=16):
    """Stacked full-size quads at the given depths, submission order."""
    scene = Scene("layers", size, size, [MipmappedTexture(16, 16)])
    for depth in depths:
        a = Vertex(0, 0, 0, 0, z=depth)
        b = Vertex(size, 0, size, 0, z=depth)
        c = Vertex(0, size, 0, size, z=depth)
        d = Vertex(size, size, size, size, z=depth)
        scene.add(Triangle(a, b, c))
        scene.add(Triangle(b, d, c))
    return scene


def reference_zbuffer(fragments: FragmentBuffer, depths, width: int, height: int):
    """Straightforward sequential Z-buffer, for cross-checking."""
    buffer = np.full(width * height, np.inf)
    visible = np.zeros(len(fragments), dtype=bool)
    for index in range(len(fragments)):
        pixel = int(fragments.y[index]) * width + int(fragments.x[index])
        if depths[index] < buffer[pixel]:
            buffer[pixel] = depths[index]
            visible[index] = True
    return visible


def visible_mask(scene, fragments):
    """The GL_LESS mask of ``scene``'s fragments, at their recomputed depths."""
    depths = fragment_depths(scene, fragments)
    return depth_visible_mask(fragments, depths, scene.width, scene.height)


class TestDepthInterpolation:
    def test_constant_depth_triangle(self):
        scene = layered_quads([3.5], size=8)
        fragments = scene.fragments()
        depths = fragment_depths(scene, fragments)
        assert depths == pytest.approx(np.full(len(fragments), 3.5))

    def test_sloped_depth(self):
        scene = Scene("slope", 16, 16, [MipmappedTexture(16, 16)])
        scene.add(
            Triangle(
                Vertex(0, 0, z=0.0), Vertex(16, 0, z=16.0), Vertex(0, 16, z=0.0)
            )
        )
        fragments = scene.fragments()
        # z = x at pixel centres.
        assert fragment_depths(scene, fragments) == pytest.approx(fragments.x + 0.5)


class TestDepthVisibleMask:
    def test_front_to_back_keeps_only_first(self):
        scene = layered_quads([1.0, 2.0, 3.0])
        fragments = scene.fragments()
        visible = visible_mask(scene, fragments)
        # Only the closest (first submitted) layer survives.
        assert visible[fragments.triangle < 2].all()
        assert not visible[fragments.triangle >= 2].any()

    def test_back_to_front_keeps_every_layer(self):
        scene = layered_quads([3.0, 2.0, 1.0])
        fragments = scene.fragments()
        visible = visible_mask(scene, fragments)
        # Painter's order: every fragment beats the one before it.
        assert visible.all()

    def test_equal_depth_keeps_first_only(self):
        scene = layered_quads([2.0, 2.0])
        fragments = scene.fragments()
        visible = visible_mask(scene, fragments)
        assert visible[fragments.triangle < 2].all()
        assert not visible[fragments.triangle >= 2].any()

    def test_empty_buffer(self):
        scene = Scene("empty", 8, 8, [MipmappedTexture(16, 16)])
        assert fragment_depths(scene, FragmentBuffer.empty()).size == 0
        assert depth_visible_mask(FragmentBuffer.empty(), np.zeros(0), 8, 8).size == 0

    def test_resolve_covers_each_pixel_once_for_opaque_stack(self):
        scene = layered_quads([5.0, 1.0, 3.0])
        survivors = resolve_depth(scene, scene.fragments())
        keys = survivors.y.astype(np.int64) * scene.width + survivors.x
        # Survivors at a pixel are its strictly-decreasing-depth prefix.
        assert len(np.unique(keys)) == scene.width * scene.height

    @settings(max_examples=40, deadline=None)
    @given(
        depths=st.lists(
            st.floats(min_value=0, max_value=100, width=32), min_size=1, max_size=8
        )
    )
    def test_property_matches_sequential_zbuffer(self, depths):
        scene = layered_quads(depths, size=8)
        fragments = scene.fragments()
        frag_depths = fragment_depths(scene, fragments)
        fast = depth_visible_mask(fragments, frag_depths, scene.width, scene.height)
        slow = reference_zbuffer(fragments, frag_depths, scene.width, scene.height)
        assert (fast == slow).all()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_property_random_geometry_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        scene = Scene("rand", 24, 24, [MipmappedTexture(16, 16)])
        for _ in range(rng.integers(1, 8)):
            verts = [
                Vertex(
                    rng.uniform(-4, 28),
                    rng.uniform(-4, 28),
                    z=float(rng.uniform(0, 10)),
                )
                for _ in range(3)
            ]
            scene.add(Triangle(*verts))
        fragments = scene.fragments()
        depths = fragment_depths(scene, fragments)
        fast = depth_visible_mask(fragments, depths, scene.width, scene.height)
        slow = reference_zbuffer(fragments, depths, scene.width, scene.height)
        assert (fast == slow).all()
