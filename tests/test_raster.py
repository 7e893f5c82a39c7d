"""Tests for scan conversion.

Behaviour tests (coverage, clipping, the fill rule, interpolation)
drive the shipped ``rasterize_scene`` on small scenes; ``TestSetup``
checks the edge-equation contract of the reference setup in
``tests/oracles``, which the batch/reference equivalence tests in
``test_batch_chunking`` rest on.  ``TestOracleEquivalence`` feeds both
adversarial scenes, where a span's ends are hardest to place.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.geometry import Scene, Triangle, Vertex
from repro.raster import (
    FragmentBuffer,
    fragment_depths,
    mip_level_for_scale,
    rasterize_scene,
)
from repro.texture.texture import MipmappedTexture
from tests.conftest import quad
from tests.oracles import bounding_box, rasterize_scene_scalar, triangle_setup


def tri(coords, texture=0):
    vertices = [Vertex(*c) for c in coords]
    return Triangle(vertices[0], vertices[1], vertices[2], texture=texture)


def iter_rows(fragments):
    """Yield ``(x, y, u_half, v_half, level, texture, triangle)`` tuples."""
    for i in range(len(fragments)):
        triangle = int(fragments.triangle[i])
        yield (
            int(fragments.x[i]),
            int(fragments.y[i]),
            int(fragments.u_half[i]),
            int(fragments.v_half[i]),
            int(fragments.triangle_level[triangle]),
            int(fragments.triangle_texture[triangle]),
            triangle,
        )


def rasterize(*triangles, size=64):
    """Rasterize ``triangles`` as one ``size`` x ``size`` scene."""
    scene = Scene("raster", size, size, [MipmappedTexture(64, 64)], triangles)
    return rasterize_scene(scene)


class TestSetup:
    def test_covers_interior_and_excludes_exterior(self):
        eq = triangle_setup(tri([(0, 0), (10, 0), (0, 10)]))
        inside = eq.covers(np.array([2.5]), np.array([2.5]))
        outside = eq.covers(np.array([9.5]), np.array([9.5]))
        assert inside[0] and not outside[0]

    def test_winding_is_normalised(self):
        cw = triangle_setup(tri([(0, 0), (10, 0), (0, 10)]))
        ccw = triangle_setup(tri([(0, 0), (0, 10), (10, 0)]))
        px = np.array([1.5, 8.0])
        py = np.array([1.5, 8.0])
        assert (cw.covers(px, py) == ccw.covers(px, py)).all()

    def test_double_area_positive(self):
        eq = triangle_setup(tri([(0, 0), (0, 10), (10, 0)]))
        assert eq.double_area == pytest.approx(100.0)


class TestRasterizeTriangle:
    def test_degenerate_returns_none(self):
        assert len(rasterize(tri([(0, 0), (5, 5), (10, 10)]))) == 0

    def test_offscreen_returns_none(self):
        assert len(rasterize(tri([(100, 100), (110, 100), (100, 110)]))) == 0

    def test_covers_no_pixel_centre_returns_none(self):
        # A sliver between two pixel-centre columns.
        sliver = tri([(3.6, 0), (3.9, 0), (3.75, 40)])
        assert len(rasterize(sliver)) == 0

    def test_axis_aligned_right_triangle_pixel_count(self):
        result = rasterize(tri([(0, 0), (8, 0), (0, 8)]))
        # Pixel centres strictly inside x + y < 8: rows of 7, 6, ... 0.
        # (The diagonal is not a top-left edge, so it is excluded; the
        # matching quad half owns it — see the shared-diagonal test.)
        assert len(result) == 28

    def test_clips_to_screen(self):
        result = rasterize(tri([(-8, -8), (16, -8), (-8, 16)]))
        assert len(result) > 0
        assert (result.x >= 0).all() and (result.y >= 0).all()

    def test_scanline_order(self):
        result = rasterize(tri([(0, 0), (10, 0), (0, 10)]))
        y = result.y
        x = result.x
        assert (np.diff(y) >= 0).all()
        same_row = np.diff(y) == 0
        assert (np.diff(x)[same_row] > 0).all()

    def test_interpolates_texture_coordinates(self):
        t = Triangle(
            Vertex(0, 0, 0, 0), Vertex(16, 0, 32, 0), Vertex(0, 16, 0, 32)
        )
        result = rasterize(t)
        # The mapping is u = 2x, v = 2y at pixel centres; at level 1 the
        # half-texel index is floor(u * 2**0) = 2x + 1.
        assert np.array_equal(result.u_half, 2 * result.x + 1)
        assert np.array_equal(result.v_half, 2 * result.y + 1)
        assert result.u_half.dtype == result.v_half.dtype == np.int16
        # scale 2 -> base mip level 1.
        assert (result.triangle_level[result.triangle] == 1).all()

    def test_shared_quad_diagonal_drawn_exactly_once(self):
        result = rasterize(*quad(0, 0, 16))
        assert len(result) == 256
        # 120 pixel centres lie strictly on each side of the diagonal;
        # its 16 go to the half for which it is a top-left edge.
        assert result.triangle_pixel_counts().tolist() == [120, 136]
        keys = result.y.astype(np.int64) * 64 + result.x
        assert len(np.unique(keys)) == 256

    @settings(max_examples=60, deadline=None)
    @given(
        x0=st.integers(min_value=0, max_value=40),
        y0=st.integers(min_value=0, max_value=40),
        size=st.integers(min_value=1, max_value=20),
    )
    def test_property_quad_pixel_count_is_exact(self, x0, y0, size):
        """Two triangles of any on-screen quad cover size*size pixels once."""
        result = rasterize(*quad(x0, y0, size))
        keys = result.y.astype(np.int64) * 64 + result.x
        assert len(np.unique(keys)) == len(result)
        clipped_w = min(x0 + size, 64) - x0
        clipped_h = min(y0 + size, 64) - y0
        assert len(result) == clipped_w * clipped_h

    @settings(max_examples=40, deadline=None)
    @given(
        coords=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=63),
                st.floats(min_value=0, max_value=63),
            ),
            min_size=3,
            max_size=3,
        )
    )
    def test_property_fragment_count_close_to_area(self, coords):
        """Pixel count approximates geometric area for random triangles."""
        triangle = tri(coords)
        count = len(rasterize(triangle))
        area = triangle.area()
        # Sampling error is bounded by roughly half the perimeter.
        perimeter = sum(
            np.hypot(a[0] - b[0], a[1] - b[1])
            for a, b in zip(coords, coords[1:] + coords[:1])
        )
        assert abs(count - area) <= 0.75 * perimeter + 2


#: Screen edge of the adversarial scenes.
SIZE = 40

#: ``|dy|`` of the near-horizontal edges, on both sides of the span
#: generator's small-slope fallback.
NEAR_HORIZONTAL = [1e-13, 1e-9, 1e-7, 1e-5, 1e-3]

#: Pixel corners and pixel centres over the screen and a margin past
#: every screen edge.
corner = st.integers(min_value=-4, max_value=SIZE + 4).map(float)
centre = corner.map(lambda x: x + 0.5)

#: A position anywhere around the screen with a full mantissa (the
#: fraction is a multiple of the golden ratio's, modulo 1), or a pixel
#: corner or centre.  The range reaches past every screen edge, so
#: triangles are clipped on all four sides.
rough = st.builds(
    lambda pixel, n: pixel + (n * 0.6180339887498949) % 1.0,
    st.integers(min_value=-SIZE // 2, max_value=3 * SIZE // 2),
    st.integers(min_value=0, max_value=10**6),
)
position = st.one_of(rough, corner, centre)


@st.composite
def adversarial_triangle(draw):
    a, b, c = ([draw(position), draw(position)] for _ in range(3))
    shape = draw(
        st.sampled_from(
            ["free", "centre", "horizontal", "near_horizontal", "sliver", "subpixel"]
        )
    )
    if shape == "centre":
        # Two edges end exactly on a pixel centre; their crossing of
        # that row, computed from the far end, carries rounding error.
        a = [draw(centre), draw(centre)]
        b, c = [draw(rough), draw(rough)], [draw(rough), draw(rough)]
    elif shape == "horizontal":
        b[1] = a[1]
    elif shape == "near_horizontal":
        b[1] = a[1] + draw(st.sampled_from(NEAR_HORIZONTAL)) * draw(st.sampled_from([-1, 1]))
    elif shape == "sliver":
        # Near-vertical: two vertices within a fraction of a pixel in x.
        b[0] = a[0] + draw(st.sampled_from([0.0, 1e-9, 1e-5, 0.01, 0.3]))
        c[0] = a[0] + draw(st.floats(min_value=-0.5, max_value=0.5))
    elif shape == "subpixel":
        for vertex in (b, c):
            vertex[0] = a[0] + draw(st.floats(min_value=-1, max_value=1))
            vertex[1] = a[1] + draw(st.floats(min_value=-1, max_value=1))
    texel = st.floats(min_value=-100, max_value=100)
    return Triangle(
        *(Vertex(x, y, draw(texel), draw(texel), draw(texel)) for x, y in (a, b, c)),
        texture=draw(st.integers(min_value=0, max_value=1)),
    )


@st.composite
def centre_fan(draw):
    """Triangles around a vertex on a pixel centre, as in a mesh.

    Every edge of the fan meets the centre exactly, and exactly one
    triangle owns that pixel.  Each edge's crossing of the centre's row
    is computed from its far end and carries rounding error.
    """
    cx, cy = draw(centre), draw(centre)
    spokes = draw(st.integers(min_value=3, max_value=7))
    turn = draw(st.floats(min_value=0, max_value=2 * math.pi))
    rim = []
    for i in range(spokes):
        angle = turn + 2 * math.pi * (i + draw(st.floats(min_value=0, max_value=0.9))) / spokes
        radius = draw(st.floats(min_value=0.7, max_value=SIZE))
        rim.append((cx + radius * math.cos(angle), cy + radius * math.sin(angle)))
    return [tri([(cx, cy), rim[i], rim[(i + 1) % spokes]]) for i in range(spokes)]


#: Scenes mixing single adversarial triangles and pixel-centre fans.
adversarial_triangles = st.lists(
    st.one_of(adversarial_triangle().map(lambda t: [t]), centre_fan()),
    min_size=1,
    max_size=12,
).map(lambda groups: [t for group in groups for t in group])


#: Free triangles over the screen and past its edges, each vertex with
#: its own texture coordinates and depth.
random_triangles = st.lists(
    st.builds(
        tri,
        st.lists(
            st.tuples(
                st.floats(min_value=-10, max_value=SIZE + 10),
                st.floats(min_value=-10, max_value=SIZE + 10),
                st.floats(min_value=-100, max_value=100),
                st.floats(min_value=-100, max_value=100),
                st.floats(min_value=-100, max_value=100),
            ),
            min_size=3,
            max_size=3,
        ),
    ),
    min_size=1,
    max_size=12,
)


def adversarial_scene(triangles):
    textures = [MipmappedTexture(64, 64), MipmappedTexture(16, 16)]
    return Scene("adversarial", SIZE, SIZE - 7, textures, triangles)


def assert_same_buffers(left: FragmentBuffer, right: FragmentBuffer) -> None:
    for name in FragmentBuffer.COLUMNS + FragmentBuffer.TABLES:
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


class TestOracleEquivalence:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(triangles=adversarial_triangles)
    @example(
        # Clipped by every screen edge: one triangle covers the screen.
        triangles=[tri([(-30, -25), (3 * SIZE, -3), (-5, 3 * SIZE)])],
    )
    @example(
        # A wide triangle over a near-horizontal edge of each listed |dy|.
        triangles=[
            tri([(-9, 20.5), (SIZE + 9, 20.5 + dy), (13.25, 2.5)]) for dy in NEAR_HORIZONTAL
        ],
    )
    def test_matches_scalar_reference(self, triangles):
        scene = adversarial_scene(triangles)
        reference, _ = rasterize_scene_scalar(scene)
        assert_same_buffers(rasterize_scene(scene), reference)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(triangles=st.one_of(random_triangles, adversarial_triangles))
    @example(
        # One sloped depth plane over the whole screen.
        triangles=[tri([(-30, -25, 0, 0, 1.5), (3 * SIZE, -3, 0, 0, -7.25), (-5, 3 * SIZE, 0, 0, 3)])],
    )
    def test_fragment_depths_match_scalar_reference(self, triangles):
        """The recomputed depths equal the reference's interpolated ones, bit for bit."""
        scene = adversarial_scene(triangles)
        depths = rasterize_scene_scalar(scene)[1]["z"]
        got = fragment_depths(scene, rasterize_scene(scene))
        assert got.dtype == depths.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), depths.view(np.uint64))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(triangles=st.one_of(random_triangles, adversarial_triangles))
    def test_triangle_tables_match_scalar_columns(self, triangles):
        """Per-triangle level and texture, looked up per fragment, are the reference's columns."""
        scene = adversarial_scene(triangles)
        columns = rasterize_scene_scalar(scene)[1]
        fragments = rasterize_scene(scene)
        levels = fragments.triangle_level[fragments.triangle]
        textures = fragments.triangle_texture[fragments.triangle]
        assert levels.dtype == columns["level"].dtype == np.int16
        assert textures.dtype == columns["texture"].dtype == np.int32
        assert np.array_equal(levels, columns["level"])
        assert np.array_equal(textures, columns["texture"])
        assert len(fragments.triangle_level) == scene.num_triangles
        drawn = fragments.triangle_pixel_counts() > 0
        assert not fragments.triangle_level[~drawn].any()


class TestCandidateCounters:
    """The span generator's saving, read from ``repro.obs``.

    Coverage is the same whether a row's span or its whole box is
    edge-tested, so only the counters tell the two apart.
    """

    @staticmethod
    def counter(name: str, scene: Scene) -> float:
        return obs.registry().counter(name).labels(scene=scene.name).value

    def test_large_triangles_test_only_span_ends(self):
        scene = Scene("large", 256, 192, [MipmappedTexture(64, 64)])
        for coords in (
            [(3.2, 1.7), (250.9, 40.3), (30.1, 188.8)],
            [(128.5, -20.0), (270.0, 200.0), (-15.0, 150.25)],
            [(10.0, 10.0), (200.0, 10.0), (10.0, 180.0)],
        ):
            scene.add(tri(coords))
        before = {name: self.counter(name, scene) for name in ("raster.candidates", "raster.fragments")}
        fragments = rasterize_scene(scene)

        rows = 0
        for triangle in scene.triangles:
            _, min_y, _, max_y = bounding_box(triangle)
            top = max(0, math.ceil(min_y - 0.5))
            bottom = min(scene.height - 1, math.floor(max_y - 0.5) + 1)
            rows += bottom - top + 1
        candidates = self.counter("raster.candidates", scene) - before["raster.candidates"]
        kept = self.counter("raster.fragments", scene) - before["raster.fragments"]
        assert kept == len(fragments) > 0
        assert candidates <= kept + 4 * rows
        # The whole-box scan would test several times more.
        assert candidates < len(fragments) / 2


class TestMipSelection:
    def test_magnified_stays_level_zero(self):
        assert mip_level_for_scale(0.25) == 0
        assert mip_level_for_scale(1.0) == 0

    def test_powers_of_two(self):
        assert mip_level_for_scale(2.0) == 1
        assert mip_level_for_scale(4.0) == 2
        assert mip_level_for_scale(3.9) == 1

    def test_clamped(self):
        assert mip_level_for_scale(1e9) == 15


class TestRasterizeScene:
    def test_preserves_triangle_order(self, flat_scene):
        fragments = flat_scene.fragments()
        assert (np.diff(fragments.triangle) >= 0).all()

    def test_full_tiling_draws_every_pixel_once(self, flat_scene):
        fragments = flat_scene.fragments()
        assert len(fragments) == 64 * 64
        keys = fragments.y.astype(np.int64) * 64 + fragments.x
        assert len(np.unique(keys)) == 64 * 64

    def test_triangle_pixel_counts_sum_to_total(self, overdraw_scene):
        fragments = overdraw_scene.fragments()
        counts = fragments.triangle_pixel_counts()
        assert counts.sum() == len(fragments)
        assert len(counts) == overdraw_scene.num_triangles

    def test_empty_scene_yields_empty_buffer(self):
        scene = Scene("empty", 32, 32, [MipmappedTexture(8, 8)])
        fragments = rasterize_scene(scene)
        assert len(fragments) == 0
        assert fragments.num_triangles == 0


class TestFragmentBuffer:
    def test_select_preserves_order(self, flat_scene):
        fragments = flat_scene.fragments()
        mask = fragments.x < 8
        subset = fragments.select(mask)
        assert len(subset) == int(mask.sum())
        assert (np.diff(subset.triangle) >= 0).all()

    def test_concatenate_empty(self):
        assert len(FragmentBuffer.concatenate([], 3)) == 0

    def test_mismatched_columns_rejected(self):
        import pytest as _pytest
        from repro.errors import ConfigurationError

        z3 = np.zeros(3)
        z2 = np.zeros(2)
        with _pytest.raises(ConfigurationError):
            FragmentBuffer(z3, z3, z3, z3, z2, z3, z3)
        with _pytest.raises(ConfigurationError):
            FragmentBuffer(z3, z3, z3, z3, z3, z3, z2)

    def test_iter_rows_matches_columns(self, flat_scene):
        fragments = flat_scene.fragments().select(np.arange(5))
        rows = list(iter_rows(fragments))
        assert len(rows) == 5
        assert rows[0][0] == int(fragments.x[0])
        for row, triangle in zip(rows, fragments.triangle):
            assert row[4] == fragments.triangle_level[triangle]
            assert row[5] == fragments.triangle_texture[triangle]
            assert row[6] == triangle

    def test_select_and_concatenate_carry_the_triangle_tables(self, overdraw_scene):
        fragments = overdraw_scene.fragments()
        half = len(fragments) // 2
        rows = np.arange(len(fragments))
        parts = [fragments.select(rows[:half]), fragments.select(rows[half:])]
        joined = FragmentBuffer.concatenate(parts, overdraw_scene.num_triangles)
        assert_same_buffers(joined, fragments)
        for part in parts:
            assert part.num_triangles == fragments.num_triangles
            for name in FragmentBuffer.TABLES:
                assert getattr(part, name) is getattr(fragments, name)

    def test_concatenate_rejects_another_scenes_tables(self, flat_scene):
        from repro.errors import ConfigurationError

        fragments = flat_scene.fragments()
        other = FragmentBuffer(
            fragments.x, fragments.y, fragments.u_half, fragments.v_half, fragments.triangle,
            fragments.triangle_level, fragments.triangle_texture + 1,
        )
        with pytest.raises(ConfigurationError):
            FragmentBuffer.concatenate([fragments, other], fragments.num_triangles)
