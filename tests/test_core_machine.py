"""Tests for the machine simulator, including event/fast-path agreement."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.analysis.performance import SpeedupStudy
from repro.core import MachineConfig, TimingConfig, simulate_machine, single_processor_baseline
from repro.core.distributor import interleave_stream, run_event_machine
from repro.core.routing import build_routed_work
from repro.distribution import BlockInterleaved, ScanLineInterleaved, SingleProcessor
from repro.errors import ConfigurationError
from tests.oracles import stream_rows


class TestConfig:
    def test_rejects_bad_bus_ratio(self):
        for ratio in (0, -1.0, -math.inf, math.nan):
            with pytest.raises(ConfigurationError, match="bus ratio must be positive"):
                MachineConfig(distribution=SingleProcessor(), bus_ratio=ratio)

    def test_rejects_bad_fifo(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(distribution=SingleProcessor(), fifo_capacity=0)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("bus_ratio", math.nan, "bus ratio must be positive"),
            ("fifo_capacity", 0, "fifo capacity must be >= 1"),
            ("geometry_engines", -1, "geometry engine count must be >= 0"),
            ("geometry_cycles", -5.0, "geometry cost must be >= 0"),
        ],
    )
    def test_timing_fields_are_validated_once_for_both_configs(self, field, value, message):
        with pytest.raises(ConfigurationError, match=message):
            TimingConfig(**{field: value})
        with pytest.raises(ConfigurationError, match=message):
            MachineConfig(distribution=SingleProcessor(), **{field: value})

    def test_timing_is_the_four_timing_fields(self):
        config = MachineConfig(
            distribution=BlockInterleaved(4, 16),
            cache="perfect",
            bus_ratio=2.0,
            fifo_capacity=7,
            setup_cycles=10,
            geometry_engines=3,
            geometry_cycles=50.0,
        )
        assert config.timing == TimingConfig(
            bus_ratio=2.0, fifo_capacity=7, geometry_engines=3, geometry_cycles=50.0
        )

    def test_infinite_bus_allowed(self):
        config = MachineConfig(distribution=SingleProcessor(), bus_ratio=math.inf)
        assert math.isinf(config.bus_ratio)

    def test_with_distribution_keeps_rest(self):
        config = MachineConfig(
            distribution=SingleProcessor(), cache="perfect", bus_ratio=2.0
        )
        other = config.with_distribution(BlockInterleaved(4, 16))
        assert other.cache == "perfect"
        assert other.num_processors == 4


class TestSingleProcessor:
    def test_perfect_cache_cycles_equal_work(self, flat_scene):
        config = MachineConfig(distribution=SingleProcessor(), cache="perfect")
        result = simulate_machine(flat_scene, config)
        fragments = flat_scene.fragments()
        counts = fragments.triangle_pixel_counts()
        expected = np.maximum(counts, 25).sum()
        assert result.cycles == expected

    def test_cacheless_is_bus_bound(self, flat_scene):
        perfect = MachineConfig(distribution=SingleProcessor(), cache="perfect")
        nocache = MachineConfig(
            distribution=SingleProcessor(), cache="none", bus_ratio=1.0
        )
        t_perfect = simulate_machine(flat_scene, perfect).cycles
        t_nocache = simulate_machine(flat_scene, nocache).cycles
        # 8 texels/pixel over a 1 texel/cycle bus: ~8x slower.
        assert t_nocache >= 6 * t_perfect

    def test_cache_ordering_between_models(self, flat_scene):
        def cycles(cache):
            config = MachineConfig(
                distribution=SingleProcessor(), cache=cache, bus_ratio=1.0
            )
            return simulate_machine(flat_scene, config).cycles

        assert cycles("perfect") <= cycles("lru") <= cycles("none")


class TestParallelMachine:
    def test_speedup_bounded_by_processor_count(self, tiny_bench_scene):
        value = SpeedupStudy(tiny_bench_scene, cache="perfect").speedup(
            BlockInterleaved(4, 16)
        )
        assert 1.0 <= value <= 4.0 + 1e-9

    def test_parallel_no_slower_than_serial_perfect_cache(self, flat_scene):
        config = MachineConfig(distribution=BlockInterleaved(4, 8), cache="perfect")
        parallel = simulate_machine(flat_scene, config).cycles
        serial = single_processor_baseline(flat_scene, config)
        assert parallel <= serial

    def test_result_records_configuration(self, flat_scene):
        config = MachineConfig(
            distribution=ScanLineInterleaved(4, 2), cache="perfect", bus_ratio=2.0
        )
        result = simulate_machine(flat_scene, config)
        assert result.distribution == "sli2x4"
        assert result.cache_name == "perfect"
        assert result.bus_ratio == 2.0
        assert result.num_processors == 4
        assert "sli2x4" in result.summary()

    def test_speedup_property_of_result(self, flat_scene):
        config = MachineConfig(distribution=BlockInterleaved(4, 8), cache="perfect")
        baseline = single_processor_baseline(flat_scene, config)
        result = simulate_machine(flat_scene, config, baseline_cycles=baseline)
        assert result.speedup == pytest.approx(baseline / result.cycles)
        assert result.efficiency == pytest.approx(result.speedup / 4)

    def test_finish_times_bounded_by_total(self, tiny_bench_scene):
        config = MachineConfig(distribution=BlockInterleaved(8, 16))
        result = simulate_machine(tiny_bench_scene, config)
        assert result.cycles == pytest.approx(result.timings.finish.max())
        assert result.timings.finish[result.timings.critical_node] == result.timings.finish.max()


class TestEventPathEquivalence:
    """The event-driven machine must equal the fast path when FIFOs
    never fill — the cornerstone consistency check between the two
    timing implementations."""

    @pytest.mark.parametrize("cache", ["perfect", "lru"])
    @pytest.mark.parametrize(
        "dist",
        [BlockInterleaved(4, 8), ScanLineInterleaved(4, 2), BlockInterleaved(7, 8)],
        ids=lambda d: d.describe(),
    )
    def test_big_fifo_matches_fast_path(self, flat_scene, cache, dist):
        work = build_routed_work(flat_scene, dist, cache_spec=cache)
        config = MachineConfig(distribution=dist, cache=cache, bus_ratio=1.0)
        fast = simulate_machine(work, config.timing)

        stream = interleave_stream(work.triangles, work.pixels, work.texels)
        cycles, finish = run_event_machine(
            stream, dist.num_processors, 10**9, 25, 1.0
        )
        assert cycles == fast.cycles
        assert finish == fast.timings.finish.tolist()

    def test_small_fifo_never_faster(self, tiny_bench_scene):
        dist = BlockInterleaved(8, 8)
        work = build_routed_work(tiny_bench_scene, dist, cache_spec="perfect")
        big = MachineConfig(distribution=dist, cache="perfect", fifo_capacity=10000)
        t_big = simulate_machine(work, big.timing).cycles
        for capacity in (1, 4, 16):
            small = MachineConfig(
                distribution=dist, cache="perfect", fifo_capacity=capacity
            )
            t_small = simulate_machine(work, small.timing).cycles
            assert t_small >= t_big - 1e-9

    def test_fifo_of_one_serialises_on_the_stream(self, flat_scene):
        """With 1-entry FIFOs head-of-line blocking dominates."""
        dist = BlockInterleaved(4, 8)
        work = build_routed_work(flat_scene, dist, cache_spec="perfect")
        tiny = MachineConfig(distribution=dist, cache="perfect", fifo_capacity=1)
        big = MachineConfig(distribution=dist, cache="perfect", fifo_capacity=10000)
        t_tiny = simulate_machine(work, tiny.timing).cycles
        t_big = simulate_machine(work, big.timing).cycles
        assert t_tiny > t_big


def deepest_stream(work) -> int:
    """Longest per-node triangle stream: the largest FIFO that can fill."""
    return max(len(ids) for ids in work.triangles)


class TestTimingModes:
    """A node is timed one way per regime: in closed form when there is
    no recorder, no geometry stage and a ``fifo_capacity`` above the
    deepest per-node stream, by the finite-FIFO recurrence otherwise.
    At exactly the deepest stream the recurrence runs but no push ever
    blocks, so it must agree with the closed form cycle for cycle."""

    @pytest.mark.parametrize(
        "dist",
        [BlockInterleaved(4, 8), ScanLineInterleaved(8, 2), SingleProcessor()],
        ids=["block", "sli", "single"],
    )
    def test_fast_and_event_paths_agree_when_fifo_never_fills(
        self, tiny_bench_scene, dist
    ):
        """The claim the closed form rests on, enforced bit for bit."""
        work = build_routed_work(tiny_bench_scene, dist, cache_spec="lru")
        for ratio in (1.0, 1.5, 3.0):
            fast_config = MachineConfig(distribution=dist, cache="lru", bus_ratio=ratio)
            event_config = replace(fast_config, fifo_capacity=deepest_stream(work))
            fast = simulate_machine(work, fast_config.timing)
            event = simulate_machine(work, event_config.timing)
            assert fast.extras == {}
            assert event.extras["distributor_blocked_cycles"] == 0
            assert event.cycles == fast.cycles
            for series in ("finish", "busy", "stall"):
                assert np.array_equal(
                    getattr(event.timings, series), getattr(fast.timings, series)
                ), (ratio, series)
            assert np.array_equal(fast.timings.busy, work.node_work)

    @pytest.mark.parametrize("geometry_engines", [0, 2], ids=["ideal", "geometry"])
    def test_traced_or_throttled_default_fifo_runs_the_recurrence(
        self, tiny_bench_scene, geometry_engines
    ):
        """Only the recurrence records spans and models geometry release,
        so a traced or geometry-stage run at the default FIFO takes it,
        never blocks, and keeps the untraced run's cycles."""
        config = MachineConfig(
            distribution=BlockInterleaved(4, 16),
            geometry_engines=geometry_engines,
            geometry_cycles=200,
        )
        plain = simulate_machine(tiny_bench_scene, config)
        recorder = obs.enable_tracing()
        try:
            traced = simulate_machine(tiny_bench_scene, config)
        finally:
            obs.disable_tracing()
        assert ("distributor_blocked_cycles" in plain.extras) == (geometry_engines > 0)
        assert traced.extras["distributor_blocked_cycles"] == 0
        assert traced.cycles == plain.cycles
        for series in ("finish", "busy", "stall"):
            assert np.array_equal(getattr(traced.timings, series), getattr(plain.timings, series))
        spans = recorder.span_summary()
        assert "sim/distributor/process" in spans
        assert all(f"sim/node-{node}/process" in spans for node in range(4))
        fifos = {key.split("/")[1] for key in recorder.value_summary()}
        assert fifos and fifos <= {f"tri-fifo-{node}" for node in range(4)}

    @pytest.mark.parametrize("fifo", [10000, 8], ids=["fast", "finite-fifo"])
    @pytest.mark.parametrize("geometry_engines", [0, 2], ids=["ideal", "geometry"])
    def test_stall_is_bus_stall_on_both_paths(self, tiny_bench_scene, fifo, geometry_engines):
        """``timings.stall`` counts bus stall only, never starvation:
        it equals the traced stall spans whichever path runs."""
        dist = BlockInterleaved(4, 16)
        config = MachineConfig(
            distribution=dist,
            fifo_capacity=fifo,
            geometry_engines=geometry_engines,
            geometry_cycles=200,
        )
        recorder = obs.enable_tracing()
        try:
            result = simulate_machine(tiny_bench_scene, config)
        finally:
            obs.disable_tracing()
        traced = recorder.node_summary()
        assert result.timings.stall.tolist() == [
            traced[f"node-{node}"]["stall_cycles"] for node in range(4)
        ]
        if fifo == 8:
            assert result.extras["distributor_blocked_cycles"] > 0

    def test_auto_matches_forced_fast_on_big_fifo(self, tiny_bench_scene):
        """One entry past the deepest stream already takes the fast path."""
        dist = BlockInterleaved(4, 16)
        work = build_routed_work(tiny_bench_scene, dist, cache_spec="perfect")
        default = MachineConfig(distribution=dist, cache="perfect")
        edge = MachineConfig(
            distribution=dist, cache="perfect", fifo_capacity=deepest_stream(work) + 1
        )
        auto = simulate_machine(work, default.timing)
        fast = simulate_machine(work, edge.timing)
        assert auto.cycles == fast.cycles
        assert auto.extras == {} and fast.extras == {}  # no event extras


class TestMonotonicities:
    def test_wider_bus_never_slower(self, tiny_bench_scene):
        dist = BlockInterleaved(4, 16)
        work = build_routed_work(tiny_bench_scene, dist, cache_spec="lru")
        times = []
        for ratio in (0.5, 1.0, 2.0, math.inf):
            config = MachineConfig(distribution=dist, cache="lru", bus_ratio=ratio)
            times.append(simulate_machine(work, config.timing).cycles)
        assert times == sorted(times, reverse=True)


class TestEventInstrumentation:
    def test_stream_interleave_order(self):
        triangles = [np.array([0, 2]), np.array([0, 1])]
        pixels = [np.array([10, 30]), np.array([20, 40])]
        texels = [np.array([0, 0]), np.array([16, 0])]
        stream = interleave_stream(triangles, pixels, texels)
        assert stream_rows(stream) == [
            (0, 0, 10, 0),
            (0, 1, 20, 16),
            (1, 1, 40, 0),
            (2, 0, 30, 0),
        ]

    def test_small_fifo_reports_head_of_line_blocking(self, flat_scene):
        dist = BlockInterleaved(4, 8)
        work = build_routed_work(flat_scene, dist, cache_spec="perfect")
        config = MachineConfig(distribution=dist, cache="perfect", fifo_capacity=1)
        result = simulate_machine(work, config.timing)
        assert result.extras["distributor_blocked_cycles"] > 0
        assert max(result.extras["fifo_high_water"]) <= 1
        assert len(result.extras["distributor_blocked_per_node"]) == 4

    def test_big_fifo_takes_fast_path_without_extras(self, flat_scene):
        config = MachineConfig(distribution=BlockInterleaved(4, 8), cache="perfect")
        result = simulate_machine(flat_scene, config)
        assert "distributor_blocked_cycles" not in result.extras


class TestTimedWork:
    """``simulate_machine(work, TimingConfig)`` times a routed work as
    built: its labels and setup floor come from the work, so no config
    can pair it with another machine's routing."""

    def test_work_under_another_machine_is_refused_and_keeps_its_labels(
        self, tiny_bench_scene
    ):
        work = build_routed_work(
            tiny_bench_scene, BlockInterleaved(4, 16), cache_spec="perfect"
        )
        other = MachineConfig(BlockInterleaved(16, 16), cache="lru")
        with pytest.raises(ConfigurationError, match="RoutedWork under a MachineConfig"):
            simulate_machine(work, other)
        result = simulate_machine(work, TimingConfig())
        assert result.scene_name == tiny_bench_scene.name
        assert result.distribution == "block16x4"
        assert result.num_processors == 4
        assert result.cache_name == "perfect"
        assert result.cache.miss_rate == 0.0
        routed = simulate_machine(
            tiny_bench_scene, MachineConfig(BlockInterleaved(4, 16), cache="perfect")
        )
        assert (result.distribution, result.cache_name) == (
            routed.distribution,
            routed.cache_name,
        )
        assert result.cycles == routed.cycles

    def test_memoized_work_keeps_each_distributions_label(self, tiny_bench_scene):
        """Two assignment tables that share a fingerprint still label apart."""
        from repro.distribution.assigned import AssignedTiles, TileGrid

        grid = TileGrid(16, tiny_bench_scene.width, tiny_bench_scene.height)
        assignment = np.arange(grid.num_tiles) % 4
        labels = []
        for label in ("static", "dynamic"):
            dist = AssignedTiles(grid, assignment, 4, label=label)
            labels.append(simulate_machine(tiny_bench_scene, MachineConfig(dist)).distribution)
        assert labels == ["static16x4", "dynamic16x4"]

    def test_scene_under_a_timing_config_is_refused(self, tiny_bench_scene):
        with pytest.raises(ConfigurationError, match="Scene under a TimingConfig"):
            simulate_machine(tiny_bench_scene, TimingConfig())


def test_routed_work_is_timed_with_its_own_setup_floor(tiny_bench_scene):
    """``busy`` is the work's ``node_work``; the timing uses the same floor."""
    dist = BlockInterleaved(4, 16)
    work = build_routed_work(tiny_bench_scene, dist, setup_cycles=10)
    assert work.setup_cycles == 10
    for fifo in (10000, 8):  # the closed form, then the recurrence
        timed = simulate_machine(work, TimingConfig(fifo_capacity=fifo))
        routed = simulate_machine(
            tiny_bench_scene, MachineConfig(dist, setup_cycles=10, fifo_capacity=fifo)
        )
        assert timed.cycles == routed.cycles
        for series in ("finish", "busy", "stall"):
            assert np.array_equal(
                getattr(timed.timings, series), getattr(routed.timings, series)
            ), (fifo, series)
        assert np.array_equal(timed.timings.busy, work.node_work)
