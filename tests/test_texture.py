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
from repro.texture.filtering import HALF_TEXEL_MODULUS, half_texel_index
from repro.texture.layout import LINE_BYTES, TEXELS_PER_LINE
from repro.texture.texture import MAX_TEXTURE_SIDE
from repro.workloads.scenes import build_scene
from tests.oracles import (
    rasterize_scene_scalar,
    reference_line_addresses,
    reference_texel_addresses,
)
from tests.oracles.filtering import line_address, texel_address

#: Triangle ids of a one-fragment chunk: its level and texture arrays
#: serve as the per-triangle tables.
ONE = np.arange(1)


def halves(u, v, triangles, triangle_level):
    """The filter's ``u_half``/``v_half`` of float level-0 ``u``/``v``."""
    levels = np.asarray(triangle_level)[triangles]
    return (
        half_texel_index(np.asarray(u, dtype=np.float64), levels),
        half_texel_index(np.asarray(v, dtype=np.float64), levels),
    )


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

    def test_rejects_sides_past_the_half_texel_range(self):
        assert MAX_TEXTURE_SIDE == 1 << 14
        MipmappedTexture(MAX_TEXTURE_SIDE, 1)
        with pytest.raises(ConfigurationError):
            MipmappedTexture(1 << 15, 1)
        with pytest.raises(ConfigurationError):
            MipmappedTexture(4, 1 << 15)


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
        lines = line_address(layout, tex, lvl, i, j)
        # Level 0 of a 16x16 texture is a 4x4 grid of blocks.
        assert lines.tolist() == [0, 1, 3 * 4 + 3]

    def test_adjacent_texels_in_block_share_a_line(self):
        layout = TextureMemoryLayout([MipmappedTexture(16, 16)])
        tex = np.zeros(2, dtype=np.int64)
        lvl = np.zeros(2, dtype=np.int64)
        same = line_address(layout, tex, lvl, np.array([0, 3]), np.array([0, 3]))
        assert same[0] == same[1]
        cross = line_address(layout, tex, lvl, np.array([3, 4]), np.array([0, 0]))
        assert cross[0] != cross[1]

    def test_texel_addresses_unique_within_level(self):
        layout = TextureMemoryLayout([MipmappedTexture(8, 8)])
        tex = np.zeros(64, dtype=np.int64)
        lvl = np.zeros(64, dtype=np.int64)
        i, j = np.meshgrid(np.arange(8), np.arange(8))
        addresses = texel_address(layout, tex, lvl, i.ravel(), j.ravel())
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
            lines = line_address(layout, tex, lvl, i, j)
            assert (lines >= 0).all()
            assert (lines < layout.total_lines).all()


class TestTrilinearFilter:
    def make(self, *textures):
        layout = TextureMemoryLayout(list(textures))
        return layout, TrilinearFilter(layout)

    def test_eight_addresses_per_fragment(self):
        _, filt = self.make(MipmappedTexture(16, 16))
        lines = filt.line_addresses(
            *halves([8.0], [8.0], ONE, [0]), ONE, np.array([0]), np.array([0])
        )
        assert lines.shape == (1, TEXELS_PER_FRAGMENT)

    def test_interior_sample_covers_two_levels(self):
        layout, filt = self.make(MipmappedTexture(16, 16))
        texels = filt.texel_addresses(
            *halves([8.0], [8.0], ONE, [0]), ONE, np.array([0]), np.array([0])
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
            *halves([0.1], [4.0], ONE, [0]), ONE, np.array([0]), np.array([0])
        )[0][:4]
        columns = sorted(int(t) % 8 for t in texels)
        assert 7 in columns and 0 in columns

    def test_level_is_clamped_to_pyramid(self):
        _, filt = self.make(MipmappedTexture(4, 4))
        lines = filt.line_addresses(
            *halves([1.0], [1.0], ONE, [10]), ONE, np.array([10]), np.array([0])
        )
        assert lines.shape == (1, 8)
        # Both halves sample the clamped 1x1 tail level: a single line.
        assert len(np.unique(lines)) == 1

    def test_sample_centre_of_texel_grid_touches_four_texels(self):
        _, filt = self.make(MipmappedTexture(16, 16))
        texels = filt.texel_addresses(
            *halves([8.0], [8.0], ONE, [0]), ONE, np.array([0]), np.array([0])
        )[0][:4]
        assert len(np.unique(texels)) == 4

    def test_distinct_textures_never_share_addresses(self):
        _, filt = self.make(MipmappedTexture(8, 8), MipmappedTexture(8, 8))
        u = np.array([4.0, 4.0])
        v = np.array([4.0, 4.0])
        lvl = np.array([0, 0])
        tex = np.array([0, 1])
        lines = filt.line_addresses(*halves(u, v, np.arange(2), lvl), np.arange(2), lvl, tex)
        assert set(lines[0]).isdisjoint(set(lines[1]))

    def test_texels_per_line_constant_is_consistent(self):
        assert TEXELS_PER_LINE * 4 == LINE_BYTES


#: Power-of-two texture sides, from a 1x1 texture up to the largest the
#: half-texel indices address.
SIDES = st.sampled_from([1, 2, 4, 8, 16, 64]) | st.integers(0, 14).map(lambda e: 1 << e)
#: Level-0 texel coordinates: negative, fractional and far off the
#: texture.
COORDS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
#: ``(block_shape, bytes_per_texel)``: 4x4 and 16x1 tiles of 4-byte
#: texels, 8x4 tiles of 2-byte texels, and a 2x8 tile.
LAYOUTS = st.sampled_from([(None, 4), ((16, 1), 4), (None, 2), ((2, 8), 4)])
#: Integers ``n`` whose ``n * 2**(level - 1)`` sits on a corner boundary
#: of the float filter: small ones, and ones within 2 of a power of two,
#: where a negative coordinate's ``- 0.5`` can tie and round.
BOUNDARIES = st.integers(-64, 64) | st.builds(
    lambda m, c, sign: sign * ((1 << m) - c),
    st.integers(0, 30),
    st.integers(-2, 2),
    st.sampled_from([-1, 1]),
)


def nudged(n: int, level: int, steps: int) -> float:
    """``n * 2**(level - 1)`` moved ``steps`` ulps (``nextafter``) up or down."""
    coord = np.ldexp(float(n), level - 1)
    toward = np.inf if steps > 0 else -np.inf
    for _ in range(abs(steps)):
        coord = np.nextafter(coord, toward)
    return float(coord)


@st.composite
def coordinate(draw, level: int) -> float:
    """A float coordinate, or one on or next to a boundary at ``level``."""
    if draw(st.booleans()):
        return draw(COORDS)
    return nudged(draw(BOUNDARIES), level, draw(st.integers(-3, 3)))


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
    block_shape, bytes_per_texel = draw(LAYOUTS)
    layout = TextureMemoryLayout(
        textures, block_shape=block_shape, bytes_per_texel=bytes_per_texel
    )
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
    levels = triangle_level[triangles].tolist()
    u = np.array([draw(coordinate(level)) for level in levels], dtype=np.float64)
    v = np.array([draw(coordinate(level)) for level in levels], dtype=np.float64)
    return layout, u, v, triangles, triangle_level, triangle_texture


class TestHalfTexelIndex:
    """The quantization rule on its own."""

    def test_index_is_floor_of_the_half_texel_coordinate(self):
        coord = np.array([0.0, 0.49, 0.5, 7.99, 8.0, 100.25])
        assert half_texel_index(coord, 0).tolist() == [0, 0, 1, 15, 16, 200]
        assert half_texel_index(coord, 2).tolist() == [0, 0, 0, 3, 4, 50]
        assert half_texel_index(coord, 0).dtype == np.int16

    def test_negative_and_large_indices_wrap_modulo_2_15(self):
        coord = np.array([-0.25, -1.0, 1 << 15, (1 << 20) + 3.5])
        expected = np.mod(np.floor(coord * 2), HALF_TEXEL_MODULUS)
        assert np.array_equal(half_texel_index(coord, 0), expected)

    def test_a_rounding_tie_moves_the_index_with_the_float_corner(self):
        # a = -1.5 - 2**-52: a - 0.5 ties and rounds to -2.0, so the
        # float path's low corner is -2, not floor(a - 0.5) = -3.
        a = np.nextafter(-1.5, -np.inf)
        assert np.floor(a - 0.5) == -2.0
        k = int(half_texel_index(np.array([a]), 0)[0])
        assert k == HALF_TEXEL_MODULUS - 3
        # (k - 1) >> 1 is -2 modulo 2**14, the modulus of the lower half.
        assert (k - 1) >> 1 == HALF_TEXEL_MODULUS // 2 - 2

    @settings(max_examples=100, deadline=None)
    @given(
        coords=st.lists(st.one_of(COORDS, st.builds(nudged, BOUNDARIES, st.just(1),
                                                    st.integers(-3, 3))),
                        min_size=1, max_size=30),
        level=st.integers(0, 17),
    )
    def test_property_index_does_not_depend_on_the_chunk(self, coords, level):
        """The range check picks a path per chunk; both give each value
        the same index."""
        coord = np.array(coords)
        whole = half_texel_index(coord, level)
        one_by_one = [half_texel_index(coord[i : i + 1], level)[0] for i in range(len(coord))]
        assert whole.tolist() == [int(k) for k in one_by_one]
        assert ((whole >= 0) & (whole < HALF_TEXEL_MODULUS)).all()


class TestFilterMatchesOracle:
    """Quantization and both address methods against the per-fragment
    float reference footprint."""

    @settings(max_examples=300, deadline=None)
    @given(chunk=filter_chunks(), cut=st.floats(0.0, 1.0))
    def test_property_bit_identical_and_chunk_invariant(self, chunk, cut):
        layout, u, v, triangles, *tables = chunk
        filt = TrilinearFilter(layout)
        u_half, v_half = halves(u, v, triangles, tables[0])
        lines = filt.line_addresses(u_half, v_half, triangles, *tables)
        texels = filt.texel_addresses(u_half, v_half, triangles, *tables)
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
            parts = [
                method(*halves(u[a:b], v[a:b], triangles[a:b], tables[0]),
                       triangles[a:b], *tables)
                for a, b in ((0, k), (k, len(u)))
            ]
            assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("bytes_per_texel,block_shape", [(4, None), (2, None), (4, (16, 1))])
    def test_rounding_ties_at_every_side_and_level(self, bytes_per_texel, block_shape):
        """Every ``n * 2**(level - 1)`` within 2 of ``-2**m`` and 3 ulps of
        it, at levels 0-11, on square sides 1 to 2**14 and two
        non-square textures: the float corners' rounding ties."""
        textures = [MipmappedTexture(1 << e, 1 << e) for e in range(15)]
        textures += [MipmappedTexture(1 << 14, 2), MipmappedTexture(8, 1 << 12)]
        layout = TextureMemoryLayout(
            textures, block_shape=block_shape, bytes_per_texel=bytes_per_texel
        )
        n = np.array([-((1 << m) - c) for m in range(31) for c in range(-2, 3)], float)
        steps = np.arange(-3, 4)
        levels = np.arange(12)
        grid_n, grid_step, grid_level, grid_texture = (
            part.ravel() for part in np.meshgrid(
                n, steps, levels, np.arange(len(textures)), indexing="ij"
            )
        )
        coord = np.ldexp(grid_n, grid_level - 1)
        for step in steps[steps != 0]:
            picked = grid_step == step
            toward = np.inf if step > 0 else -np.inf
            for _ in range(abs(int(step))):
                coord[picked] = np.nextafter(coord[picked], toward)
        # Each fragment is a triangle of its own; v runs the other way.
        triangles = np.arange(len(coord))
        tables = (grid_level.astype(np.int16), grid_texture.astype(np.int32))
        u, v = coord, coord[::-1].copy()
        filt = TrilinearFilter(layout)
        u_half, v_half = halves(u, v, triangles, tables[0])
        assert np.array_equal(
            filt.line_addresses(u_half, v_half, triangles, *tables),
            reference_line_addresses(layout, u, v, triangles, *tables),
        )
        assert np.array_equal(
            filt.texel_addresses(u_half, v_half, triangles, *tables),
            reference_texel_addresses(layout, u, v, triangles, *tables),
        )

    def test_empty_chunk(self):
        filt = TrilinearFilter(TextureMemoryLayout([MipmappedTexture(8, 8)]))
        empty = np.zeros(0, dtype=np.int16)
        tables = (np.zeros(0, dtype=np.intp), np.array([0]), np.array([0]))
        assert filt.line_addresses(empty, empty, *tables).shape == (0, 8)
        assert filt.texel_addresses(empty, empty, *tables).shape == (0, 8)

    def test_wide_path_matches_oracle_and_narrow_path(self):
        """``layout.narrow`` False runs the same code in ``int64``."""
        scene = build_scene("quake", scale=0.0625)
        fragments = scene.fragments()
        side = rasterize_scene_scalar(scene)[1]
        tables = (fragments.triangle, fragments.triangle_level, fragments.triangle_texture)
        args = (fragments.u_half, fragments.v_half, *tables)
        narrow_layout = scene.memory_layout()
        assert narrow_layout.narrow
        narrow = TrilinearFilter(narrow_layout).line_addresses(*args)
        wide_layout = TextureMemoryLayout(scene.textures)
        wide_layout.narrow = False
        filt = TrilinearFilter(wide_layout)
        wide = filt.line_addresses(*args)
        assert filt.line_dtype == np.int64 and wide.dtype == np.int64
        assert np.array_equal(
            wide, reference_line_addresses(wide_layout, side["u"], side["v"], *tables)
        )
        assert np.array_equal(wide, narrow)
