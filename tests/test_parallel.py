"""Tests for parallel sweeps."""

import pytest

from repro.analysis.parallel import keyed_tasks, run_tasks, worker_count
from repro.errors import ConfigurationError


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
