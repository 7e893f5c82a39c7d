"""Tests for parallel sweeps."""

import os

import pytest

from repro import pipeline
from repro.analysis.parallel import keyed_tasks, run_tasks, worker_count
from repro.errors import ConfigurationError


@pytest.fixture
def _restore_artifact_store(monkeypatch):
    """Undo what a pooled ``run_tasks`` leaves behind.

    Before pooling it exports a temporary ``REPRO_ARTIFACT_DIR`` and
    attaches that disk tier to the process-wide store; left in place,
    every later test in the session pickles each artifact it computes.
    """
    # setenv first, so the undo also covers a variable that was unset.
    monkeypatch.setenv(pipeline.ARTIFACT_DIR_ENV_VAR, "")
    monkeypatch.delenv(pipeline.ARTIFACT_DIR_ENV_VAR)
    before = pipeline.store()
    disk_dir = before.disk_dir
    yield
    if pipeline.store().disk_dir != disk_dir:
        pipeline.configure(max_entries=before.max_entries, disk_dir=disk_dir)


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


pooled = pytest.mark.usefixtures("_restore_artifact_store")


class TestParallel:
    @pooled
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

    def test_empty_pooled_sweep_shares_no_artifacts(self):
        # Nothing to fan out: no temporary disk tier is attached and no
        # REPRO_ARTIFACT_DIR is exported (the conftest guard checks too).
        disk_dir = pipeline.store().disk_dir
        exported = os.environ.get(pipeline.ARTIFACT_DIR_ENV_VAR)
        assert run_tasks(_square, [], workers=4) == []
        assert pipeline.store().disk_dir == disk_dir
        assert os.environ.get(pipeline.ARTIFACT_DIR_ENV_VAR) == exported

    def test_one_worker_runs_inline(self):
        # workers=1 must not pay for a pool: same code path as inline.
        arguments = [(i,) for i in range(4)]
        assert run_tasks(_square, arguments, workers=1) == [0, 1, 4, 9]

    def test_failing_arguments_attached_inline(self):
        with pytest.raises(ValueError) as excinfo:
            run_tasks(_raise_on_three, [(1,), (3,), (5,)], workers=0)
        assert excinfo.value.failing_arguments == (3,)

    @pooled
    def test_failing_arguments_attached_across_processes(self):
        with pytest.raises(ValueError) as excinfo:
            run_tasks(_raise_on_three, [(1,), (3,), (5,)], workers=2)
        assert excinfo.value.failing_arguments == (3,)

    @pooled
    def test_broken_pool_falls_back_inline(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_PARALLEL_MARKER", str(tmp_path / "marker"))
        with pytest.warns(RuntimeWarning, match="rerunning the sweep inline"):
            results = run_tasks(_kill_worker_once, [(1,), (2,)], workers=2)
        assert results == [2, 4]
