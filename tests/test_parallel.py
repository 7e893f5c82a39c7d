"""Tests for parallel sweeps."""

import os
from pathlib import Path

import pytest

from repro import pipeline
from repro.analysis.parallel import keyed_tasks, run_tasks, worker_count
from repro.errors import ConfigurationError


def _store_state():
    """The artifact store's disk tier and its exported directory."""
    return pipeline.store().disk_dir, os.environ.get(pipeline.ARTIFACT_DIR_ENV_VAR)


def _exported_artifact_dir(_value):
    return os.environ.get(pipeline.ARTIFACT_DIR_ENV_VAR)


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
        before = _store_state()
        assert run_tasks(_square, arguments, workers=0) == run_tasks(
            _square, arguments, workers=2
        )
        assert _store_state() == before

    def test_a_temporary_tier_lives_only_as_long_as_the_pool(self, monkeypatch):
        monkeypatch.delenv(pipeline.ARTIFACT_DIR_ENV_VAR, raising=False)
        before = pipeline.store()
        pipeline.configure(max_entries=before.max_entries)
        try:
            shared = run_tasks(_exported_artifact_dir, [(0,), (1,)], workers=2)
            # One directory, exported to every worker, removed afterwards.
            assert shared[0] is not None and shared == [shared[0]] * 2
            assert not Path(shared[0]).exists()
            assert _store_state() == (None, None)
        finally:
            pipeline.configure(max_entries=before.max_entries, disk_dir=before.disk_dir)

    def test_a_configured_tier_is_shared_and_kept(self, tmp_path, monkeypatch):
        monkeypatch.setenv(pipeline.ARTIFACT_DIR_ENV_VAR, str(tmp_path))
        before = pipeline.store()
        pipeline.configure(max_entries=before.max_entries, disk_dir=tmp_path)
        try:
            shared = run_tasks(_exported_artifact_dir, [(0,), (1,)], workers=2)
            assert shared == [str(tmp_path)] * 2
            assert _store_state() == (tmp_path, str(tmp_path))
            assert tmp_path.is_dir()
        finally:
            pipeline.configure(max_entries=before.max_entries, disk_dir=before.disk_dir)

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

    def test_empty_pooled_sweep_shares_no_artifacts(self):
        # Nothing to fan out: no temporary disk tier is attached and no
        # REPRO_ARTIFACT_DIR is exported (the conftest guard checks too).
        before = _store_state()
        assert run_tasks(_square, [], workers=4) == []
        assert _store_state() == before

    def test_one_worker_runs_inline(self):
        # workers=1 must not pay for a pool: same code path as inline.
        arguments = [(i,) for i in range(4)]
        assert run_tasks(_square, arguments, workers=1) == [0, 1, 4, 9]

    def test_failing_arguments_attached_inline(self):
        with pytest.raises(ValueError) as excinfo:
            run_tasks(_raise_on_three, [(1,), (3,), (5,)], workers=0)
        assert excinfo.value.failing_arguments == (3,)

    def test_failing_arguments_attached_across_processes(self):
        before = _store_state()
        with pytest.raises(ValueError) as excinfo:
            run_tasks(_raise_on_three, [(1,), (3,), (5,)], workers=2)
        assert excinfo.value.failing_arguments == (3,)
        assert _store_state() == before

    def test_broken_pool_falls_back_inline(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_PARALLEL_MARKER", str(tmp_path / "marker"))
        before = _store_state()
        with pytest.warns(RuntimeWarning, match="rerunning the sweep inline"):
            results = run_tasks(_kill_worker_once, [(1,), (2,)], workers=2)
        assert results == [2, 4]
        assert _store_state() == before
