"""Tests for terminal visualisation, CSV export and parallel sweeps."""

import numpy as np
import pytest

from repro.analysis.export import sweep_to_csv
from repro.analysis.heatmap import (
    PALETTE,
    ascii_heatmap,
    depth_complexity_map,
    node_load_bars,
    ownership_map,
)
from repro.analysis.parallel import keyed_tasks, run_tasks, worker_count
from repro.core import MachineConfig, simulate_machine
from repro.distribution import BlockInterleaved, ScanLineInterleaved
from repro.errors import ConfigurationError


class TestAsciiHeatmap:
    def test_shape_and_palette(self):
        values = np.array([[0.0, 0.5], [1.0, 0.25]])
        art = ascii_heatmap(values)
        lines = art.splitlines()
        assert len(lines) == 2 and all(len(line) == 2 for line in lines)
        assert lines[1][0] == PALETTE[-1]  # the maximum is brightest
        assert lines[0][0] == PALETTE[0]

    def test_rejects_non_2d(self):
        with pytest.raises(ConfigurationError):
            ascii_heatmap(np.zeros(5))

    def test_all_zero_does_not_divide_by_zero(self):
        art = ascii_heatmap(np.zeros((2, 2)))
        assert set(art.replace("\n", "")) == {PALETTE[0]}

    def test_explicit_ceiling(self):
        art = ascii_heatmap(np.array([[1.0]]), max_value=10.0)
        assert art != PALETTE[-1]


class TestDepthComplexityMap:
    def test_uniform_scene_is_flat(self, flat_scene):
        grid = depth_complexity_map(flat_scene, columns=8, rows=8)
        assert grid.shape == (8, 8)
        assert grid == pytest.approx(np.ones((8, 8)))

    def test_hotspot_shows_up(self, overdraw_scene):
        grid = depth_complexity_map(overdraw_scene, columns=8, rows=8)
        # The 8-layer stack sits in the top-left corner.
        assert grid[0, 0] > grid[7, 7]

    def test_validation(self, flat_scene):
        with pytest.raises(ConfigurationError):
            depth_complexity_map(flat_scene, columns=0)


class TestOwnershipMap:
    def test_sli_stripes(self):
        art = ownership_map(ScanLineInterleaved(2, 1), 8, 8, columns=8, rows=8)
        lines = art.splitlines()
        assert lines[0] == "0" * 8
        assert lines[1] == "1" * 8

    def test_block_checkerboard(self):
        art = ownership_map(BlockInterleaved(4, 4), 8, 8, columns=8, rows=8)
        lines = art.splitlines()
        assert lines[0][:4] == "0000" and lines[0][4:] == "1111"
        assert lines[4][:4] == "2222"


class TestNodeLoadBars:
    def test_bars_and_critical_marker(self, flat_scene):
        config = MachineConfig(distribution=BlockInterleaved(4, 8), cache="perfect")
        result = simulate_machine(flat_scene, config)
        art = node_load_bars(result, width=20)
        lines = art.splitlines()
        assert len(lines) == 4
        assert sum("critical" in line for line in lines) == 1


class TestCsvExport:
    def test_sweep_round_trip(self, tmp_path):
        sweep = {(16, 4): 3.5, (8, 4): 2.0}
        path = tmp_path / "sweep.csv"
        text = sweep_to_csv(sweep, path=path)
        lines = text.strip().splitlines()
        assert lines[0] == "size,processors,value"
        assert lines[1] == "8,4,2.0"
        assert lines[2] == "16,4,3.5"
        assert path.read_text() == text


def _square(value):
    return value * value


def _raise_on_three(value):
    if value == 3:
        raise ValueError("three is right out")
    return value


def _kill_worker_once(value):
    """Die hard in the worker on first call; succeed on inline rerun."""
    import os
    import signal
    from pathlib import Path

    marker = Path(os.environ["REPRO_TEST_PARALLEL_MARKER"])
    if not marker.exists():
        marker.write_text("boom")
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


class TestParallel:
    def test_inline_matches_parallel(self):
        arguments = [(i,) for i in range(8)]
        assert run_tasks(_square, arguments, workers=0) == run_tasks(
            _square, arguments, workers=2
        )

    def test_keyed_results(self):
        keyed = keyed_tasks(_square, [("a", (3,)), ("b", (4,))], workers=0)
        assert keyed == {"a": 9, "b": 16}

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert worker_count() == 0
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert worker_count() == 4
        monkeypatch.setenv("REPRO_WORKERS", "nope")
        with pytest.raises(ConfigurationError):
            worker_count()
        monkeypatch.setenv("REPRO_WORKERS", "-1")
        with pytest.raises(ConfigurationError):
            worker_count()
        monkeypatch.setenv("REPRO_WORKERS", "2.5")
        with pytest.raises(ConfigurationError):
            worker_count()

    def test_empty_task_lists(self):
        assert run_tasks(_square, [], workers=0) == []
        assert run_tasks(_square, [], workers=4) == []
        assert keyed_tasks(_square, [], workers=4) == {}

    def test_one_worker_runs_inline(self):
        # workers=1 must not pay for a pool: same code path as inline.
        arguments = [(i,) for i in range(4)]
        assert run_tasks(_square, arguments, workers=1) == [0, 1, 4, 9]

    def test_failing_arguments_attached_inline(self):
        with pytest.raises(ValueError) as excinfo:
            run_tasks(_raise_on_three, [(1,), (3,), (5,)], workers=0)
        assert excinfo.value.failing_arguments == (3,)

    def test_failing_arguments_attached_across_processes(self):
        with pytest.raises(ValueError) as excinfo:
            run_tasks(_raise_on_three, [(1,), (3,), (5,)], workers=2)
        assert excinfo.value.failing_arguments == (3,)

    def test_broken_pool_falls_back_inline(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_PARALLEL_MARKER", str(tmp_path / "marker"))
        with pytest.warns(RuntimeWarning, match="rerunning the sweep inline"):
            results = run_tasks(_kill_worker_once, [(1,), (2,)], workers=2)
        assert results == [2, 4]
