"""Tests for textures, the memory layout and the trilinear filter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.texture import (
    MipmappedTexture,
    TextureMemoryLayout,
    TrilinearFilter,
    TEXELS_PER_FRAGMENT,
)
from repro.texture.layout import LINE_BYTES, TEXELS_PER_LINE
from repro.workloads.scenes import build_scene
from tests.oracles import reference_line_addresses, reference_texel_addresses

#: Triangle ids of a one-fragment chunk: its level and texture arrays
#: serve as the per-triangle tables.
ONE = np.arange(1)


class TestMipmappedTexture:
    def test_pyramid_goes_down_to_1x1(self):
        texture = MipmappedTexture(64, 16)
        dims = [(lvl.width, lvl.height) for lvl in texture.levels]
        assert dims == [(64, 16), (32, 8), (16, 4), (8, 2), (4, 1), (2, 1), (1, 1)]

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            MipmappedTexture(48, 64)
        with pytest.raises(ConfigurationError):
            MipmappedTexture(64, 0)

    def test_total_bytes_includes_pyramid(self):
        texture = MipmappedTexture(4, 4)
        # 16 + 4 + 1 texels, 4 bytes each.
        assert texture.total_texels() == 21
        assert texture.total_bytes() == 84

    def test_level_clamps_to_tail(self):
        texture = MipmappedTexture(8, 8)
        assert texture.level(100).width == 1


class TestTextureMemoryLayout:
    def test_needs_textures(self):
        with pytest.raises(ConfigurationError):
            TextureMemoryLayout([])

    def test_line_regions_are_disjoint_across_textures_and_levels(self):
        textures = [MipmappedTexture(16, 16), MipmappedTexture(8, 8)]
        layout = TextureMemoryLayout(textures)
        spans = []
        for t_index, texture in enumerate(textures):
            for l_index, level in enumerate(texture.levels):
                slot = t_index * layout.max_levels + l_index
                blocks = (-(-level.width // 4)) * (-(-level.height // 4))
                spans.append((int(layout.line_base[slot]), blocks))
        spans.sort()
        for (base_a, size_a), (base_b, _) in zip(spans, spans[1:]):
            assert base_a + size_a <= base_b
        assert layout.total_lines == sum(size for _, size in spans)

    def test_total_bytes_accounts_every_line(self):
        layout = TextureMemoryLayout([MipmappedTexture(16, 16)])
        assert layout.total_bytes() == layout.total_lines * LINE_BYTES

    def test_line_address_block_arithmetic(self):
        layout = TextureMemoryLayout([MipmappedTexture(16, 16)])
        tex = np.zeros(3, dtype=np.int64)
        lvl = np.zeros(3, dtype=np.int64)
        i = np.array([0, 4, 15])
        j = np.array([0, 0, 15])
        lines = layout.line_address(tex, lvl, i, j)
        # Level 0 of a 16x16 texture is a 4x4 grid of blocks.
        assert lines.tolist() == [0, 1, 3 * 4 + 3]

    def test_adjacent_texels_in_block_share_a_line(self):
        layout = TextureMemoryLayout([MipmappedTexture(16, 16)])
        tex = np.zeros(2, dtype=np.int64)
        lvl = np.zeros(2, dtype=np.int64)
        same = layout.line_address(tex, lvl, np.array([0, 3]), np.array([0, 3]))
        assert same[0] == same[1]
        cross = layout.line_address(tex, lvl, np.array([3, 4]), np.array([0, 0]))
        assert cross[0] != cross[1]

    def test_texel_addresses_unique_within_level(self):
        layout = TextureMemoryLayout([MipmappedTexture(8, 8)])
        tex = np.zeros(64, dtype=np.int64)
        lvl = np.zeros(64, dtype=np.int64)
        i, j = np.meshgrid(np.arange(8), np.arange(8))
        addresses = layout.texel_address(tex, lvl, i.ravel(), j.ravel())
        assert len(np.unique(addresses)) == 64

    @settings(max_examples=40, deadline=None)
    @given(
        edges=st.lists(
            st.sampled_from([4, 8, 16, 32]), min_size=1, max_size=5
        ),
        level=st.integers(min_value=0, max_value=5),
    )
    def test_property_line_addresses_stay_in_bounds(self, edges, level):
        textures = [MipmappedTexture(e, e) for e in edges]
        layout = TextureMemoryLayout(textures)
        for t_index, texture in enumerate(textures):
            lvl = np.full(4, level, dtype=np.int64)
            tex = np.full(4, t_index, dtype=np.int64)
            dims = texture.level(min(level, texture.num_levels - 1))
            i = np.array([0, dims.width - 1, 0, dims.width - 1])
            j = np.array([0, 0, dims.height - 1, dims.height - 1])
            lines = layout.line_address(tex, lvl, i, j)
            assert (lines >= 0).all()
            assert (lines < layout.total_lines).all()


class TestTrilinearFilter:
    def make(self, *textures):
        layout = TextureMemoryLayout(list(textures))
        return layout, TrilinearFilter(layout)

    def test_eight_addresses_per_fragment(self):
        _, filt = self.make(MipmappedTexture(16, 16))
        lines = filt.line_addresses(
            np.array([8.0]), np.array([8.0]), ONE, np.array([0]), np.array([0])
        )
        assert lines.shape == (1, TEXELS_PER_FRAGMENT)

    def test_interior_sample_covers_two_levels(self):
        layout, filt = self.make(MipmappedTexture(16, 16))
        texels = filt.texel_addresses(
            np.array([8.0]), np.array([8.0]), ONE, np.array([0]), np.array([0])
        )[0]
        level0 = texels[:4]
        level1 = texels[4:]
        # Level-1 addresses live in the level-1 region of the layout.
        assert (level0 < layout.texel_base[1]).all()
        assert (level1 >= layout.texel_base[1]).all()

    def test_bilinear_corners_wrap(self):
        _, filt = self.make(MipmappedTexture(8, 8))
        # Sampling at u=0.1 reaches the texel at the far edge via wrap.
        texels = filt.texel_addresses(
            np.array([0.1]), np.array([4.0]), ONE, np.array([0]), np.array([0])
        )[0][:4]
        columns = sorted(int(t) % 8 for t in texels)
        assert 7 in columns and 0 in columns

    def test_level_is_clamped_to_pyramid(self):
        _, filt = self.make(MipmappedTexture(4, 4))
        lines = filt.line_addresses(
            np.array([1.0]), np.array([1.0]), ONE, np.array([10]), np.array([0])
        )
        assert lines.shape == (1, 8)
        # Both halves sample the clamped 1x1 tail level: a single line.
        assert len(np.unique(lines)) == 1

    def test_sample_centre_of_texel_grid_touches_four_texels(self):
        _, filt = self.make(MipmappedTexture(16, 16))
        texels = filt.texel_addresses(
            np.array([8.0]), np.array([8.0]), ONE, np.array([0]), np.array([0])
        )[0][:4]
        assert len(np.unique(texels)) == 4

    def test_distinct_textures_never_share_addresses(self):
        _, filt = self.make(MipmappedTexture(8, 8), MipmappedTexture(8, 8))
        u = np.array([4.0, 4.0])
        v = np.array([4.0, 4.0])
        lvl = np.array([0, 0])
        tex = np.array([0, 1])
        lines = filt.line_addresses(u, v, np.arange(2), lvl, tex)
        assert set(lines[0]).isdisjoint(set(lines[1]))

    def test_texels_per_line_constant_is_consistent(self):
        assert TEXELS_PER_LINE * 4 == LINE_BYTES


#: Power-of-two texture sides, down to a 1x1 texture.
SIDES = st.sampled_from([1, 2, 4, 8, 16, 64])
#: Level-0 texel coordinates: negative, fractional and far off the
#: texture; the floored coordinates stay inside ``int32``.
COORDS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def filter_chunks(draw):
    """A layout, per-triangle tables and one chunk of fragments.

    Triangle ids come as contiguous runs (a node's stream) or shuffled,
    which interleaves triangles into runs of length 1.  Levels reach past
    each pyramid, so both halves clamp to the 1x1 tail.
    """
    textures = [
        MipmappedTexture(draw(SIDES), draw(SIDES))
        for _ in range(draw(st.integers(1, 3)))
    ]
    block_shape = draw(st.sampled_from([None, (16, 1), (2, 8)]))
    layout = TextureMemoryLayout(textures, block_shape=block_shape)
    layout.narrow = layout.narrow and draw(st.booleans())
    num_triangles = draw(st.integers(1, 6))
    triangle_level = np.array(
        draw(st.lists(st.integers(0, layout.max_levels + 2),
                      min_size=num_triangles, max_size=num_triangles)),
        dtype=np.int16,
    )
    triangle_texture = np.array(
        draw(st.lists(st.integers(0, len(textures) - 1),
                      min_size=num_triangles, max_size=num_triangles)),
        dtype=np.int32,
    )
    n = draw(st.integers(0, 40))
    triangles = np.sort(
        np.array(draw(st.lists(st.integers(0, num_triangles - 1),
                               min_size=n, max_size=n)), dtype=np.intp)
    )
    if draw(st.booleans()):
        triangles = np.random.default_rng(draw(st.integers(0, 99))).permutation(triangles)
    triangles = triangles.astype(draw(st.sampled_from([np.int32, np.intp])))
    u = np.array(draw(st.lists(COORDS, min_size=n, max_size=n)), dtype=np.float64)
    v = np.array(draw(st.lists(COORDS, min_size=n, max_size=n)), dtype=np.float64)
    return layout, u, v, triangles, triangle_level, triangle_texture


class TestFilterMatchesOracle:
    """Both address methods against the per-fragment reference footprint."""

    @settings(max_examples=150, deadline=None)
    @given(chunk=filter_chunks(), cut=st.floats(0.0, 1.0))
    def test_property_bit_identical_and_chunk_invariant(self, chunk, cut):
        layout, u, v, triangles, *tables = chunk
        filt = TrilinearFilter(layout)
        lines = filt.line_addresses(u, v, triangles, *tables)
        texels = filt.texel_addresses(u, v, triangles, *tables)
        assert lines.shape == texels.shape == (len(u), TEXELS_PER_FRAGMENT)
        assert lines.dtype == filt.line_dtype and texels.dtype == np.int64
        assert np.array_equal(
            lines, reference_line_addresses(layout, u, v, triangles, *tables)
        )
        assert np.array_equal(
            texels, reference_texel_addresses(layout, u, v, triangles, *tables)
        )
        # A chunk boundary can split a run; the halves read the same.
        k = int(cut * len(u))
        for method, whole in ((filt.line_addresses, lines), (filt.texel_addresses, texels)):
            halves = [
                method(u[a:b], v[a:b], triangles[a:b], *tables)
                for a, b in ((0, k), (k, len(u)))
            ]
            assert np.array_equal(np.concatenate(halves), whole)

    def test_empty_chunk(self):
        filt = TrilinearFilter(TextureMemoryLayout([MipmappedTexture(8, 8)]))
        empty = np.zeros(0)
        tables = (np.zeros(0, dtype=np.intp), np.array([0]), np.array([0]))
        assert filt.line_addresses(empty, empty, *tables).shape == (0, 8)
        assert filt.texel_addresses(empty, empty, *tables).shape == (0, 8)

    def test_wide_path_matches_oracle_and_narrow_path(self):
        """``layout.narrow`` False runs the same code in ``int64``."""
        scene = build_scene("quake", scale=0.0625)
        fragments = scene.fragments()
        args = (
            fragments.u, fragments.v, fragments.triangle,
            fragments.triangle_level, fragments.triangle_texture,
        )
        narrow_layout = scene.memory_layout()
        assert narrow_layout.narrow
        narrow = TrilinearFilter(narrow_layout).line_addresses(*args)
        wide_layout = TextureMemoryLayout(scene.textures)
        wide_layout.narrow = False
        filt = TrilinearFilter(wide_layout)
        wide = filt.line_addresses(*args)
        assert filt.line_dtype == np.int64 and wide.dtype == np.int64
        assert np.array_equal(wide, reference_line_addresses(wide_layout, *args))
        assert np.array_equal(wide, narrow)
