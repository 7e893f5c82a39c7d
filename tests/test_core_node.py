"""Tests for the node timing model."""

import math

import numpy as np
import pytest

from repro.core.node import bus_totals, drain_node
from repro.errors import ConfigurationError
from tests.oracles.bus import BusModel
from tests.oracles.event_machine import triangle_service_time


def run(pixels, texels, setup=25, ratio=1.0):
    return drain_node(
        np.asarray(pixels, dtype=np.int64),
        np.asarray(texels, dtype=np.int64),
        setup,
        ratio,
    )


class TestDrainNode:
    def test_empty_stream(self):
        assert run([], []) == (0.0, 0.0)

    def test_pixel_bound_triangles(self):
        finish, stall = run([100, 200], [0, 0])
        assert finish == 300
        assert stall == 0

    def test_setup_bound_triangles(self):
        """Tiny clipped intersections cost the full 25-cycle setup."""
        finish, _ = run([1, 0, 24], [0, 0, 0])
        assert finish == 75

    def test_exactly_at_threshold(self):
        finish, _ = run([25], [0])
        assert finish == 25

    def test_bus_bound_triangle_stalls(self):
        # 100 pixels of compute but 400 texels over a 1 texel/cycle bus.
        finish, stall = run([100], [400], ratio=1.0)
        assert finish == 400
        assert stall == 300

    def test_bus_ratio_halves_stall(self):
        assert run([100], [400], ratio=2.0)[0] == 200
        assert run([100], [400], ratio=4.0)[0] == 100

    def test_infinite_bus_never_stalls(self):
        finish, stall = run([100, 100], [10**6, 10**6], ratio=math.inf)
        assert finish == 200
        assert stall == 0

    def test_bus_backlog_carries_across_triangles(self):
        """A burst of misses delays later triangles (burst saturation)."""
        finish, _ = run([100, 100], [400, 0], ratio=1.0)
        # Triangle 1 ends at 400 (bus); triangle 2 computes 100 more.
        assert finish == 500

    def test_bus_can_overlap_compute_of_following_triangle(self):
        # Triangle 1: compute 100, bus 50 -> ends at 100, bus free at 50.
        # Triangle 2's transfer starts immediately at 100.
        finish, stall = run([100, 100], [50, 50], ratio=1.0)
        assert finish == 200
        assert stall == 0

    @pytest.mark.parametrize("ratio", [0, -1.0, math.nan])
    def test_rejects_a_ratio_that_is_not_positive(self, ratio):
        with pytest.raises(ConfigurationError, match="bus bandwidth"):
            run([], [], ratio=ratio)


class TestServiceTime:
    def test_matches_drain_node_rule(self):
        bus = BusModel(1.0)
        end = triangle_service_time(0.0, 100, 400, 25, bus)
        assert end == 400
        # Next triangle issued immediately: bus already backed up.
        end = triangle_service_time(end, 100, 0, 25, bus)
        assert end == 500

    def test_setup_floor_applies(self):
        bus = BusModel(1.0)
        assert triangle_service_time(10.0, 3, 0, 25, bus) == 35.0


class TestBusTotals:
    def test_counts_transfers_texels_and_cycles(self):
        texels = [np.array([16, 0, 8]), np.array([], dtype=np.int64), np.array([4])]
        assert bus_totals(texels, 2.0) == {
            "transfers": 4, "texels": 28, "busy_cycles": 14.0
        }

    def test_infinite_bus_is_never_busy(self):
        totals = bus_totals([np.array([10**6, 5])], math.inf)
        assert totals == {"transfers": 2, "texels": 10**6 + 5, "busy_cycles": 0.0}
