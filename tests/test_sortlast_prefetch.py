"""Tests for the sort-last baseline and the prefetch pipeline model."""

import numpy as np
import pytest

from repro.core import MachineConfig, simulate_machine
from repro.core.prefetch import (
    PrefetchResult,
    latency_hiding_curve,
    simulate_prefetch_pipeline,
)
from repro.core.sortlast import simulate_sort_last, sort_last_assignment
from repro.distribution import SingleProcessor
from repro.errors import ConfigurationError


class TestSortLastAssignment:
    def test_round_robin(self):
        assignment = sort_last_assignment(6, 3)
        assert assignment.tolist() == [0, 1, 2, 0, 1, 2]

    def test_chunked(self):
        assignment = sort_last_assignment(8, 2, chunk_size=2)
        assert assignment.tolist() == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sort_last_assignment(4, 0)
        with pytest.raises(ConfigurationError):
            sort_last_assignment(4, 2, chunk_size=0)


class TestSortLastMachine:
    def test_single_node_equals_sort_middle_serial(self, flat_scene):
        middle = simulate_machine(
            flat_scene,
            MachineConfig(distribution=SingleProcessor(), cache="lru", bus_ratio=1.0),
        )
        last = simulate_sort_last(flat_scene, 1, cache="lru", bus_ratio=1.0)
        assert last.cycles == pytest.approx(middle.cycles)
        assert last.cache.misses == middle.cache.misses
        assert np.array_equal(last.timings.busy, middle.timings.busy)

    @pytest.mark.parametrize("ratio", [0, float("nan")])
    def test_rejects_a_bus_ratio_that_is_not_positive(self, flat_scene, ratio):
        with pytest.raises(ConfigurationError, match="bus bandwidth"):
            simulate_sort_last(flat_scene, 2, bus_ratio=ratio)

    def test_work_conserved_across_nodes(self, tiny_bench_scene):
        result = simulate_sort_last(tiny_bench_scene, 8, cache="perfect")
        fragments = tiny_bench_scene.fragments()
        assert result.node_pixels.sum() == len(fragments)
        # Triangle distribution: no bounding-box duplication, so total
        # work equals the serial machine's.
        counts = fragments.triangle_pixel_counts()
        assert result.timings.busy.sum() == np.maximum(counts, 25).sum()

    def test_speedup_within_bounds(self, tiny_bench_scene):
        serial = simulate_sort_last(tiny_bench_scene, 1, cache="perfect")
        parallel = simulate_sort_last(
            tiny_bench_scene, 8, cache="perfect", baseline_cycles=serial.cycles
        )
        assert 1.0 <= parallel.speedup <= 8.0 + 1e-9

    def test_object_chunks_keep_texture_locality(self, tiny_bench_scene):
        """Dealing whole objects preserves more locality than dealing
        individual triangles of the same object to different nodes."""
        per_triangle = simulate_sort_last(tiny_bench_scene, 8, chunk_size=1)
        per_object = simulate_sort_last(tiny_bench_scene, 8, chunk_size=18)
        assert per_object.cache.misses <= per_triangle.cache.misses

    def test_result_metadata(self, flat_scene):
        result = simulate_sort_last(flat_scene, 4, chunk_size=2)
        assert result.distribution == "sortlast-c2x4"
        assert result.extras["chunk_size"] == 2
        assert result.num_processors == 4


class TestPrefetchPipeline:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            simulate_prefetch_pipeline(np.zeros(1), 0, 10, 1.0)
        with pytest.raises(ConfigurationError):
            simulate_prefetch_pipeline(np.zeros(1), 4, -1, 1.0)
        with pytest.raises(ConfigurationError):
            simulate_prefetch_pipeline(np.zeros(1), 4, 10, 0)

    def test_no_misses_is_one_fragment_per_cycle(self):
        result = simulate_prefetch_pipeline(np.zeros(100, dtype=int), 8, 50, 1.0)
        assert result.cycles == pytest.approx(100.0)
        assert result.slowdown == pytest.approx(1.0)

    def test_empty_stream(self):
        result = simulate_prefetch_pipeline(np.zeros(0, dtype=int), 8, 50, 1.0)
        assert result.cycles == 0.0
        assert result.slowdown == 1.0

    def test_shallow_fifo_exposes_latency(self):
        misses = np.ones(200, dtype=int)
        shallow = simulate_prefetch_pipeline(misses, 1, 100, bus_ratio=1e9)
        # Every fragment waits the full latency serially-ish.
        assert shallow.cycles > 100 * 100

    def test_deep_fifo_hides_latency(self):
        rng = np.random.default_rng(1)
        misses = (rng.random(5000) < 0.1).astype(int)
        deep = simulate_prefetch_pipeline(misses, 1024, 50, bus_ratio=2.0)
        assert deep.slowdown < 1.05

    def test_monotone_in_depth(self):
        rng = np.random.default_rng(2)
        misses = (rng.random(3000) < 0.2).astype(int)
        curve = latency_hiding_curve(misses, [1, 4, 16, 64, 256], 50, 2.0)
        values = list(curve.values())
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
        assert values[0] > 1.5
        assert values[-1] < 1.1

    def test_bandwidth_floor_respected(self):
        """Even an infinite FIFO cannot beat the bus."""
        misses = np.ones(1000, dtype=int)
        result = simulate_prefetch_pipeline(misses, 10**6, 0, bus_ratio=1.0)
        assert result.cycles >= 16 * 1000

    def test_result_dataclass(self):
        result = PrefetchResult(cycles=120.0, zero_latency_cycles=100.0, fragments=100)
        assert result.slowdown == pytest.approx(1.2)
        assert PrefetchResult(0.0, 0.0, 0).slowdown == 1.0
