"""Tests for the finite-rate geometry stage."""

import numpy as np
import pytest

from repro.core import MachineConfig, simulate_machine
from repro.core.geometry_stage import geometry_release_times
from repro.core.routing import build_routed_work
from repro.distribution import BlockInterleaved, SingleProcessor
from repro.errors import ConfigurationError
from tests.oracles import reference_event_machine, stream_rows


class TestReleaseTimes:
    def test_single_engine_is_serial(self):
        release = geometry_release_times(4, 1, 10.0)
        assert release.tolist() == [10, 20, 30, 40]

    def test_engines_overlap_round_robin(self):
        release = geometry_release_times(6, 3, 10.0)
        # Three engines finish their first triangles together; in-order
        # release keeps the stream monotone.
        assert release.tolist() == [10, 10, 10, 20, 20, 20]

    def test_monotone_release(self):
        release = geometry_release_times(100, 7, 3.5)
        assert (np.diff(release) >= 0).all()

    def test_zero_cost_is_instant(self):
        release = geometry_release_times(5, 2, 0.0)
        assert (release == 0).all()

    def test_empty_stream(self):
        assert geometry_release_times(0, 4, 10.0).size == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            geometry_release_times(4, 0, 10.0)
        with pytest.raises(ConfigurationError):
            geometry_release_times(4, 2, -1.0)


class TestGeometryBoundMachine:
    def test_slow_geometry_dominates_frame_time(self, flat_scene):
        dist = SingleProcessor()
        ideal = simulate_machine(
            flat_scene, MachineConfig(distribution=dist, cache="perfect")
        ).cycles
        # 1 engine x 1000 cycles/triangle >> 32 pixels/triangle.
        slow = simulate_machine(
            flat_scene,
            MachineConfig(
                distribution=dist,
                cache="perfect",
                geometry_engines=1,
                geometry_cycles=1000.0,
            ),
        ).cycles
        assert slow >= flat_scene.num_triangles * 1000
        assert slow > ideal

    def test_fast_geometry_matches_ideal(self, flat_scene):
        dist = BlockInterleaved(4, 8)
        ideal = simulate_machine(
            flat_scene, MachineConfig(distribution=dist, cache="perfect")
        ).cycles
        fast = simulate_machine(
            flat_scene,
            MachineConfig(
                distribution=dist,
                cache="perfect",
                geometry_engines=64,
                geometry_cycles=1.0,
            ),
        ).cycles
        assert fast == pytest.approx(ideal, rel=0.01)

    def test_more_engines_never_slower(self, tiny_bench_scene):
        dist = BlockInterleaved(8, 16)
        work = build_routed_work(tiny_bench_scene, dist, cache_spec="perfect")
        times = []
        for engines in (1, 2, 4, 8):
            config = MachineConfig(
                distribution=dist,
                cache="perfect",
                geometry_engines=engines,
                geometry_cycles=200.0,
            )
            times.append(simulate_machine(work, config.timing).cycles)
        assert times == sorted(times, reverse=True)

    def test_event_path_agrees_with_fast_path_under_throttle(self, flat_scene):
        """A throttled run at the default FIFO takes the recurrence, which
        never blocks there and equals the event-kernel oracle exactly."""
        dist = BlockInterleaved(4, 8)
        work = build_routed_work(flat_scene, dist, cache_spec="lru")
        for geometry_cycles in (50.0, 100 / 3, 0.7):
            config = MachineConfig(
                distribution=dist,
                geometry_engines=2,
                geometry_cycles=geometry_cycles,
            )
            result = simulate_machine(work, config.timing)
            release = geometry_release_times(flat_scene.num_triangles, 2, geometry_cycles)
            cycles, finish = reference_event_machine(
                stream_rows(work.stream()), 4, config.fifo_capacity, 25, 1.0,
                release=release,
            )
            assert result.extras["distributor_blocked_cycles"] == 0
            assert result.cycles == cycles
            assert result.timings.finish.tolist() == finish

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(distribution=SingleProcessor(), geometry_engines=-1)
        with pytest.raises(ConfigurationError):
            MachineConfig(distribution=SingleProcessor(), geometry_cycles=-5)
