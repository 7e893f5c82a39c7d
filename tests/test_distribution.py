"""Tests for the image distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distribution import (
    BlockInterleaved,
    ContiguousBands,
    ScanLineInterleaved,
    SingleProcessor,
)
from repro.distribution.base import processor_grid
from repro.errors import ConfigurationError
from tests.oracles import nodes_in_box, owner_map

DISTRIBUTIONS = [
    BlockInterleaved(4, 8),
    BlockInterleaved(16, 16),
    BlockInterleaved(64, 32),
    BlockInterleaved(3, 5),
    ScanLineInterleaved(4, 2),
    ScanLineInterleaved(64, 1),
    ScanLineInterleaved(7, 4),
    ContiguousBands(4, 128),
    SingleProcessor(),
]


class TestProcessorGrid:
    def test_square_counts(self):
        assert processor_grid(64) == (8, 8)
        assert processor_grid(16) == (4, 4)
        assert processor_grid(4) == (2, 2)

    def test_rectangular_counts(self):
        assert processor_grid(8) == (4, 2)
        assert processor_grid(2) == (2, 1)

    def test_primes_degrade_to_1d(self):
        assert processor_grid(7) == (7, 1)


class TestValidation:
    def test_processor_count_positive(self):
        with pytest.raises(ConfigurationError):
            BlockInterleaved(0, 16)

    def test_block_width_positive(self):
        with pytest.raises(ConfigurationError):
            BlockInterleaved(4, 0)

    def test_sli_lines_positive(self):
        with pytest.raises(ConfigurationError):
            ScanLineInterleaved(4, 0)

    def test_bands_need_enough_lines(self):
        with pytest.raises(ConfigurationError):
            ContiguousBands(100, 10)


@pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: d.describe())
class TestPartitionInvariants:
    """Every distribution must be a total, in-range pixel partition."""

    def test_owners_in_range(self, dist):
        image = owner_map(dist, 96, 96)
        assert image.min() >= 0
        assert image.max() < dist.num_processors

    def test_every_processor_gets_pixels(self, dist):
        # The screen must contain at least one full interleave period
        # (with too few blocks for the processor count, some processors
        # legitimately starve — the paper's SLI-32 @ 64P case).
        image = owner_map(dist, 512, 512)
        assert len(np.unique(image)) == dist.num_processors

    def test_describe_is_stable(self, dist):
        assert dist.describe() == dist.describe()


class TestBlockInterleaved:
    def test_blocks_are_uniform_within_tile(self):
        dist = BlockInterleaved(4, 8)
        image = owner_map(dist, 64, 64)
        for ty in range(8):
            for tx in range(8):
                tile = image[ty * 8 : (ty + 1) * 8, tx * 8 : (tx + 1) * 8]
                assert len(np.unique(tile)) == 1

    def test_interleave_repeats_with_grid_period(self):
        dist = BlockInterleaved(4, 8)  # 2x2 processor grid
        image = owner_map(dist, 64, 64)
        assert (image[:, :16] == image[:, 16:32]).all()
        assert (image[:16, :] == image[16:32, :]).all()

    def test_adjacent_blocks_differ(self):
        dist = BlockInterleaved(4, 8)
        image = owner_map(dist, 64, 64)
        assert image[0, 0] != image[0, 8]
        assert image[0, 0] != image[8, 0]

    def test_pixel_share_is_balanced_when_grid_divides_screen(self):
        dist = BlockInterleaved(16, 8)
        counts = np.bincount(owner_map(dist, 512, 512).ravel(), minlength=16)
        assert (counts == counts[0]).all()

    @pytest.mark.parametrize("processors", [1, 3, 4, 6, 7, 64])
    @pytest.mark.parametrize("width", [1, 3, 8, 12, 32])
    def test_owners_match_the_interleave_formula(self, processors, width):
        dist = BlockInterleaved(processors, width)
        x = np.arange(-70, 300, 7, dtype=np.int32)
        y = np.arange(-50, 320, 7, dtype=np.int32)[: len(x)]
        expected = (x // width) % dist.across + dist.across * ((y // width) % dist.down)
        owners = dist.owners(x, y)
        assert owners.dtype == np.int32
        assert (owners == expected).all()
        assert x[0] == -70 and y[0] == -50  # inputs untouched


class TestScanLineInterleaved:
    def test_rows_within_group_share_owner(self):
        dist = ScanLineInterleaved(4, 4)
        image = owner_map(dist, 16, 64)
        for group in range(16):
            rows = image[group * 4 : (group + 1) * 4]
            assert len(np.unique(rows)) == 1
            assert rows[0, 0] == group % 4

    def test_single_line_interleave_is_voodoo2_style(self):
        dist = ScanLineInterleaved(2, 1)
        image = owner_map(dist, 8, 8)
        assert (image[::2] == 0).all()
        assert (image[1::2] == 1).all()


class TestContiguousBands:
    def test_bands_are_contiguous_and_ordered(self):
        dist = ContiguousBands(4, 128)
        image = owner_map(dist, 8, 128)
        owners = image[:, 0]
        assert (np.diff(owners) >= 0).all()
        assert np.bincount(owners).tolist() == [32, 32, 32, 32]


@pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: d.describe())
@settings(max_examples=25, deadline=None)
@given(
    x0=st.integers(min_value=0, max_value=90),
    y0=st.integers(min_value=0, max_value=90),
    dx=st.integers(min_value=0, max_value=40),
    dy=st.integers(min_value=0, max_value=40),
)
def test_property_nodes_in_box_covers_all_owners(dist, x0, y0, dx, dy):
    """Bounding-box routing must reach every node owning a box pixel."""
    x1, y1 = x0 + dx, y0 + dy
    ys, xs = np.mgrid[y0 : y1 + 1, x0 : x1 + 1]
    owners = set(dist.owners(xs.ravel(), ys.ravel()).tolist())
    routed = set(nodes_in_box(dist, x0, y0, x1, y1).tolist())
    assert owners <= routed
    assert all(0 <= node < dist.num_processors for node in routed)


def test_single_processor_owns_everything():
    dist = SingleProcessor()
    assert dist.num_processors == 1
    assert owner_map(dist, 16, 16).sum() == 0


class TestMortonInterleaved:
    def test_morton_index_known_values(self):
        from repro.distribution import morton_index

        assert morton_index(np.array([0]), np.array([0]))[0] == 0
        assert morton_index(np.array([1]), np.array([0]))[0] == 1
        assert morton_index(np.array([0]), np.array([1]))[0] == 2
        assert morton_index(np.array([1]), np.array([1]))[0] == 3
        assert morton_index(np.array([2]), np.array([2]))[0] == 12

    def test_morton_index_is_a_bijection_on_a_grid(self):
        from repro.distribution import morton_index

        xs, ys = np.meshgrid(np.arange(16), np.arange(16))
        codes = morton_index(xs.ravel(), ys.ravel())
        assert len(np.unique(codes)) == 256

    def test_partition_invariants(self):
        from repro.distribution import MortonInterleaved

        dist = MortonInterleaved(16, 8)
        image = owner_map(dist, 256, 256)
        assert image.min() >= 0 and image.max() < 16
        assert len(np.unique(image)) == 16

    def test_box_routing_covers_owners(self):
        from repro.distribution import MortonInterleaved

        dist = MortonInterleaved(8, 8)
        ys, xs = np.mgrid[5:60, 9:70]
        owners = set(np.unique(dist.owners(xs.ravel(), ys.ravel())).tolist())
        routed = set(nodes_in_box(dist, 9, 5, 69, 59).tolist())
        assert owners <= routed

    def test_validation(self):
        from repro.distribution import MortonInterleaved

        with pytest.raises(ConfigurationError):
            MortonInterleaved(4, 0)

    def test_pixel_share_balanced_on_pow2_screen(self):
        from repro.distribution import MortonInterleaved

        dist = MortonInterleaved(4, 16)
        counts = np.bincount(owner_map(dist, 256, 256).ravel(), minlength=4)
        assert (counts == counts[0]).all()
