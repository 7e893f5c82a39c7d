"""Tests for tile grids, explicit assignments and the dynamic study."""

import numpy as np
import pytest

from repro.analysis.dynamic import (
    compare_static_dynamic,
    dynamic_assignment_for,
    render_comparison,
)
from repro.distribution import AssignedTiles, TileGrid, lpt_assignment
from repro.errors import ConfigurationError
from tests.oracles import nodes_in_box, owner_map


class TestTileGrid:
    def test_tile_count_and_ids(self):
        grid = TileGrid(16, 64, 48)
        assert grid.num_tiles == 4 * 3
        owners = owner_map(grid, 64, 48)
        assert owners[0, 0] == 0
        assert owners[0, 63] == 3
        assert owners[47, 63] == 11

    def test_partial_edge_tiles_counted(self):
        grid = TileGrid(16, 70, 33)
        assert (grid.tiles_x, grid.tiles_y) == (5, 3)

    def test_every_tile_is_its_own_owner(self):
        grid = TileGrid(8, 64, 64)
        owners = owner_map(grid, 64, 64)
        assert len(np.unique(owners)) == grid.num_tiles

    def test_box_routing_matches_owner_map(self):
        grid = TileGrid(8, 64, 64)
        ys, xs = np.mgrid[10:30, 5:50]
        expected = set(np.unique(grid.owners(xs.ravel(), ys.ravel())).tolist())
        routed = set(nodes_in_box(grid, 5, 10, 49, 29).tolist())
        assert expected <= routed

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TileGrid(0, 64, 64)
        with pytest.raises(ConfigurationError):
            TileGrid(8, 0, 64)


class TestAssignedTiles:
    def test_assignment_applies(self):
        grid = TileGrid(16, 64, 64)
        assignment = np.arange(grid.num_tiles) % 4
        dist = AssignedTiles(grid, assignment, 4)
        owners = owner_map(dist, 64, 64)
        assert owners[0, 0] == 0
        assert owners[0, 17] == 1
        assert set(np.unique(owners)) == {0, 1, 2, 3}

    def test_wrong_length_rejected(self):
        grid = TileGrid(16, 64, 64)
        with pytest.raises(ConfigurationError):
            AssignedTiles(grid, [0, 1], 4)

    def test_out_of_range_processor_rejected(self):
        grid = TileGrid(32, 64, 64)
        with pytest.raises(ConfigurationError):
            AssignedTiles(grid, [0, 1, 2, 9], 4)

    def test_box_routing_covers_owners(self):
        grid = TileGrid(8, 64, 64)
        rng = np.random.default_rng(3)
        assignment = rng.integers(0, 5, size=grid.num_tiles)
        dist = AssignedTiles(grid, assignment, 5)
        ys, xs = np.mgrid[3:40, 7:55]
        owners = set(np.unique(dist.owners(xs.ravel(), ys.ravel())).tolist())
        routed = set(nodes_in_box(dist, 7, 3, 54, 39).tolist())
        assert owners <= routed


class TestLptAssignment:
    def test_balances_equal_work(self):
        assignment = lpt_assignment(np.ones(8), 4)
        loads = np.bincount(assignment, minlength=4)
        assert (loads == 2).all()

    def test_biggest_items_spread_first(self):
        work = np.array([10.0, 10.0, 1.0, 1.0])
        assignment = lpt_assignment(work, 2)
        assert assignment[0] != assignment[1]
        loads = np.bincount(assignment, weights=work, minlength=2)
        assert loads.max() == pytest.approx(11.0)

    def test_never_worse_than_interleave_makespan(self):
        rng = np.random.default_rng(11)
        work = rng.exponential(100, size=60)
        lpt = lpt_assignment(work, 6)
        lpt_makespan = np.bincount(lpt, weights=work, minlength=6).max()
        interleave = np.arange(60) % 6
        static_makespan = np.bincount(interleave, weights=work, minlength=6).max()
        assert lpt_makespan <= static_makespan

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            lpt_assignment(np.ones(3), 0)


class TestDynamicStudy:
    def test_dynamic_never_less_balanced(self, tiny_bench_scene):
        rows = compare_static_dynamic(
            tiny_bench_scene, [8, 16], 8, cache="perfect"
        )
        for row in rows:
            assert row.dynamic_imbalance <= row.static_imbalance + 1e-6

    def test_assignment_for_uses_every_processor(self, tiny_bench_scene):
        dist = dynamic_assignment_for(tiny_bench_scene, 16, 8)
        owners = owner_map(dist, tiny_bench_scene.width, tiny_bench_scene.height)
        assert len(np.unique(owners)) == 8

    def test_render_contains_rows(self, tiny_bench_scene):
        rows = compare_static_dynamic(tiny_bench_scene, [16], 4, cache="perfect")
        text = render_comparison("tiny", rows, 4, 0.0625)
        assert "dynamic" in text and "16" in text
