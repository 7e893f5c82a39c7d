"""Tests for the staged pipeline and its memoized artifact store."""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro import obs, pipeline
from repro.core.config import MachineConfig
from repro.core.machine import simulate_machine
from repro.core.routing import build_routed_work
from repro.distribution import BlockInterleaved, ScanLineInterleaved
from repro.errors import ConfigurationError
from repro.pipeline.store import STATS_PREFIXES, ArtifactStore
from repro.workloads.scenes import SCENE_NAMES, build_scene


@pytest.fixture(autouse=True)
def fresh_store(monkeypatch, tmp_path):
    """Isolate every test behind its own process-wide store."""
    monkeypatch.delenv(pipeline.ARTIFACT_DIR_ENV_VAR, raising=False)
    monkeypatch.delenv(pipeline.ARTIFACT_ENTRIES_ENV_VAR, raising=False)
    pipeline.configure()
    yield
    pipeline.configure()


class TestArtifactStore:
    def test_computes_once_then_memory_hits(self):
        store = ArtifactStore(max_entries=8)
        calls = []
        compute = lambda: calls.append(1) or {"value": 42}
        first = store.get_or_compute("stage", "k", compute)
        second = store.get_or_compute("stage", "k", compute)
        assert first is second  # identity — required by scene memoisation
        assert len(calls) == 1
        stats = pipeline.stats()["stage"]
        assert stats["calls"] == 2
        assert stats["memory_hits"] == 1
        assert stats["misses"] == 1

    def test_lru_evicts_oldest(self):
        store = ArtifactStore(max_entries=2)
        for name in ("a", "b", "c"):
            store.get_or_compute("s", name, lambda name=name: name.upper())
        assert len(store) == 2
        assert not store.contains("s", "a")
        assert store.contains("s", "b") and store.contains("s", "c")

    def test_lru_touch_on_hit(self):
        store = ArtifactStore(max_entries=2)
        store.get_or_compute("s", "a", lambda: 1)
        store.get_or_compute("s", "b", lambda: 2)
        store.get_or_compute("s", "a", lambda: 1)  # refresh "a"
        store.get_or_compute("s", "c", lambda: 3)  # should evict "b"
        assert store.contains("s", "a")
        assert not store.contains("s", "b")

    def test_rejects_empty_store(self):
        with pytest.raises(ConfigurationError):
            ArtifactStore(max_entries=0)

    def test_disk_tier_round_trip(self, tmp_path):
        writer = ArtifactStore(max_entries=8, disk_dir=tmp_path)
        writer.get_or_compute("scene", "key", lambda: [1, 2, 3])
        files = list(tmp_path.rglob("*.pkl"))
        assert len(files) == 1 and files[0].parent.name == "scene"

        reader = ArtifactStore(max_entries=8, disk_dir=tmp_path)
        value = reader.get_or_compute(
            "scene", "key", lambda: pytest.fail("should hydrate from disk")
        )
        assert value == [1, 2, 3]
        stats = pipeline.stats()["scene"]
        assert stats["disk_hits"] == 1
        assert stats["load_seconds"] == obs.registry().get("span.load.scene").sum

    def test_scene_stage_misses_an_old_format_key(self, tmp_path):
        """A disk-tier scene stored under the untagged key is never read back."""
        from repro.geometry.scene import SCENE_FORMAT
        from repro.pipeline.keys import scene_key
        from repro.workloads.scenes import SCENE_SPECS

        old_key = scene_key(SCENE_SPECS["quake"], 0.0625)
        ArtifactStore(max_entries=8, disk_dir=tmp_path).put("scene", old_key, "old scene")
        pipeline.configure(disk_dir=tmp_path)
        scene = pipeline.scene_artifact("quake", 0.0625)
        assert scene.num_triangles > 0
        stats = pipeline.stats()["scene"]
        assert stats["misses"] == 1 and stats["disk_hits"] == 0
        assert pipeline.store().contains("scene", f"{old_key}/{SCENE_FORMAT}")

    def test_fragments_stage_misses_an_old_format_key(self, tmp_path):
        """A disk-tier buffer stored under an older layout's key is never read back.

        The bare scene key held buffers with a depth column; the
        ``no-depth`` key, buffers with per-fragment ``level`` and
        ``texture`` columns.
        """
        from repro.raster.fragments import FRAGMENTS_FORMAT

        scene = build_scene("quake", 0.0625, cache=False)
        old_key = scene.artifact_key
        writer = ArtifactStore(max_entries=8, disk_dir=tmp_path)
        writer.put("fragments", old_key, "depth buffer")
        writer.put("fragments", f"{old_key}/no-depth", "per-fragment level buffer")
        pipeline.configure(disk_dir=tmp_path)
        fragments = pipeline.fragments_artifact(scene)
        assert len(fragments) > 0 and not hasattr(fragments, "z")
        assert not hasattr(fragments, "level") and not hasattr(fragments, "texture")
        stats = pipeline.stats()["fragments"]
        assert stats["misses"] == 1 and stats["disk_hits"] == 0
        assert pipeline.store().contains("fragments", f"{old_key}/{FRAGMENTS_FORMAT}")

    def test_corrupt_pickle_recomputes(self, tmp_path):
        writer = ArtifactStore(max_entries=8, disk_dir=tmp_path)
        writer.get_or_compute("s", "key", lambda: "good")
        (pkl,) = tmp_path.rglob("*.pkl")
        pkl.write_bytes(b"not a pickle")

        reader = ArtifactStore(max_entries=8, disk_dir=tmp_path)
        before = pipeline.stats()["s"]
        assert reader.get_or_compute("s", "key", lambda: "recomputed") == "recomputed"
        after = pipeline.stats()["s"]
        assert after["misses"] == before["misses"] + 1
        assert after["disk_hits"] == before["disk_hits"] == 0
        # The recompute rewrote a readable artifact.
        assert pickle.loads(pkl.read_bytes()) == "recomputed"

    def test_memory_only_entries_stay_off_disk(self, tmp_path):
        store = ArtifactStore(max_entries=8, disk_dir=tmp_path)
        store.get_or_compute("routed", "key", lambda: object(), disk=False)
        assert list(tmp_path.rglob("*.pkl")) == []
        assert store.flush_to_disk() == 0

    def test_flush_to_disk_spills_memory_entries(self, tmp_path):
        store = ArtifactStore(max_entries=8)
        store.get_or_compute("s", "a", lambda: 1)
        store.get_or_compute("s", "b", lambda: 2)
        store.attach_disk(tmp_path)
        assert store.flush_to_disk() == 2
        assert len(list(tmp_path.rglob("*.pkl"))) == 2
        assert store.flush_to_disk() == 0  # already on disk

    def test_stage_timer_counts_uncached_work(self):
        with pipeline.stage_timer("timing"):
            time.sleep(0.01)
        stats = pipeline.stats()["timing"]
        assert stats["calls"] == 1 and stats["misses"] == 1
        assert stats["compute_seconds"] >= 0.01
        assert stats["compute_seconds"] == obs.registry().get("span.stage.timing").sum

    def test_stats_are_read_from_the_registry(self, tmp_path):
        """The one account: every stats() field is a registry series."""
        pipeline.configure(disk_dir=tmp_path)
        build_routed_work(build_scene("blowout775", 0.0625), BlockInterleaved(4, 16))
        build_routed_work(build_scene("blowout775", 0.0625), BlockInterleaved(4, 16))
        snapshot = obs.registry().snapshot()
        stats = pipeline.stats()
        assert {"scene", "fragments", "routing", "replay", "routed"} <= set(stats)
        for stage, row in stats.items():
            hits = row["memory_hits"] + row["disk_hits"]
            assert row["calls"] == hits + row["misses"], stage
            assert row["calls"] == snapshot["counters"][f"pipeline.calls{{stage={stage}}}"]
            span_sum = snapshot["histograms"].get(f"span.stage.{stage}", {}).get("sum", 0.0)
            assert row["compute_seconds"] == span_sum, stage
        assert stats["scene"]["stored_bytes"] == (
            snapshot["counters"]["pipeline.stored_bytes{stage=scene}"]
        )
        assert stats["scene"]["stored_bytes"] > 0

    def test_clear_zeroes_every_stats_series(self, tmp_path):
        pipeline.configure(disk_dir=tmp_path)
        build_routed_work(build_scene("blowout775", 0.0625), BlockInterleaved(4, 16))
        with obs.span("unrelated"):
            pass
        assert pipeline.stats()
        pipeline.store().clear()
        assert pipeline.stats() == {}
        names = set(obs.registry().snapshot()["histograms"])
        assert not {name for name in names if name.startswith(STATS_PREFIXES)}
        assert "span.unrelated" in names  # other series survive

    def test_env_entries_validation(self, monkeypatch):
        monkeypatch.setenv(pipeline.ARTIFACT_ENTRIES_ENV_VAR, "nope")
        with pytest.raises(ConfigurationError):
            pipeline.configure()
        monkeypatch.setenv(pipeline.ARTIFACT_ENTRIES_ENV_VAR, "0")
        with pytest.raises(ConfigurationError):
            pipeline.configure()
        monkeypatch.delenv(pipeline.ARTIFACT_ENTRIES_ENV_VAR)
        pipeline.configure()


class TestStageArtifacts:
    def test_scene_stage_memoises(self):
        a = build_scene("blowout775", 0.0625)
        b = build_scene("blowout775", 0.0625)
        assert a is b
        assert pipeline.stats()["scene"]["memory_hits"] == 1

    def test_routed_work_is_shared_across_repeats(self):
        scene = build_scene("blowout775", 0.0625)
        dist = BlockInterleaved(4, 16)
        w1 = build_routed_work(scene, dist)
        w2 = build_routed_work(scene, dist)
        assert w1 is w2
        assert pipeline.stats()["routed"]["memory_hits"] == 1

    def test_routing_ablation_shares_replay(self):
        scene = build_scene("blowout775", 0.0625)
        dist = BlockInterleaved(4, 16)
        build_routed_work(scene, dist, cache_spec="perfect", route_by="bbox")
        build_routed_work(scene, dist, cache_spec="perfect", route_by="coverage")
        stats = pipeline.stats()
        # Same replay key: the oracle-routing contrast replays once.
        assert stats["replay"]["misses"] == 1
        assert stats["replay"]["memory_hits"] == 1
        assert stats["routing"]["misses"] == 2

    def test_hand_built_scene_falls_back_uncached(self, flat_scene):
        work = build_routed_work(flat_scene, BlockInterleaved(4, 8))
        assert work.num_processors == 4
        stats = pipeline.stats()
        # No content identity: nothing lands in the keyed stages.
        assert "routed" not in stats
        assert stats["routing"]["misses"] == 1

    def test_mutating_a_scene_invalidates_its_identity(self):
        scene = build_scene("blowout775", 0.0625)
        assert scene.artifact_key is not None
        from tests.conftest import quad

        for tri in quad(0, 0, 8):
            scene.add(tri)
        assert scene.artifact_key is None

    def test_fragment_override_bypasses_cache(self):
        scene = build_scene("blowout775", 0.0625)
        fragments = scene.fragments()
        build_routed_work(scene, BlockInterleaved(4, 16), fragments=fragments)
        assert "routed" not in pipeline.stats()

    def test_simulation_equals_uncached_path(self):
        scene = build_scene("blowout775", 0.0625)
        config = MachineConfig(distribution=ScanLineInterleaved(4, 2))
        through_pipeline = simulate_machine(scene, config)
        fresh = build_scene("blowout775", 0.0625, cache=False)
        uncached = simulate_machine(fresh, config)
        assert through_pipeline.cycles == uncached.cycles
        assert through_pipeline.cache.misses == uncached.cache.misses

    def test_render_stats_lists_stages(self):
        build_scene("blowout775", 0.0625)
        text = pipeline.render_stats(pipeline.stats())
        assert "scene" in text and "mem hits" in text
        pipeline.reset()
        assert "no stages" in pipeline.render_stats(pipeline.stats())


class TestCrossProcessHydration:
    def test_pool_workers_reuse_parent_prefixes(self, tmp_path, monkeypatch):
        monkeypatch.setenv(pipeline.ARTIFACT_DIR_ENV_VAR, str(tmp_path))
        pipeline.configure(disk_dir=tmp_path)
        build_routed_work(build_scene("blowout775", 0.0625), BlockInterleaved(4, 16))
        from repro.analysis.parallel import run_tasks

        results = run_tasks(_stage_hit_probe, [(0.0625,)], workers=2)
        stats = results[0]
        # Forked workers inherit the memory tier (and may hit the
        # assembled work directly); spawned ones read the disk tier.
        # Either way no expensive upstream stage is recomputed.
        for stage in ("scene", "fragments", "routing", "replay"):
            assert stats.get(stage, {}).get("misses", 0) == 0
        hits = sum(
            counters["memory_hits"] + counters["disk_hits"]
            for counters in stats.values()
        )
        assert hits >= 1
        # The worker's counts were folded into this process's registry.
        parent = pipeline.stats()
        assert parent["routed"]["calls"] == 1 + stats["routed"]["calls"]

    def test_cold_process_hydrates_from_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv(pipeline.ARTIFACT_DIR_ENV_VAR, str(tmp_path))
        pipeline.configure(disk_dir=tmp_path)
        build_routed_work(build_scene("blowout775", 0.0625), BlockInterleaved(4, 16))

        import json
        import subprocess
        import sys

        probe = (
            "import json, sys\n"
            "from repro.core.routing import build_routed_work\n"
            "from repro.distribution import BlockInterleaved\n"
            "from repro.workloads.scenes import build_scene\n"
            "from repro import pipeline\n"
            "build_routed_work(build_scene('blowout775', 0.0625), BlockInterleaved(4, 16))\n"
            "print(json.dumps(pipeline.stats()))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, pipeline.ARTIFACT_DIR_ENV_VAR: str(tmp_path)},
        )
        stats = json.loads(completed.stdout)
        assert stats["scene"]["disk_hits"] == 1
        assert stats["routing"]["disk_hits"] == 1
        assert stats["replay"]["disk_hits"] == 1
        assert stats["scene"]["misses"] == 0

    def test_shared_store_exports_a_temporary_dir_for_the_block(self, monkeypatch):
        monkeypatch.delenv(pipeline.ARTIFACT_DIR_ENV_VAR, raising=False)
        pipeline.configure()
        with pipeline.shared_store() as path:
            assert path.is_dir()
            assert os.environ[pipeline.ARTIFACT_DIR_ENV_VAR] == str(path)
            assert pipeline.store().disk_dir == path
            # Inside the block the tier is configured, so it is reused.
            with pipeline.shared_store() as inner:
                assert inner == path
            assert path.is_dir()
        assert not path.exists()
        assert pipeline.ARTIFACT_DIR_ENV_VAR not in os.environ
        assert pipeline.store().disk_dir is None


def _stage_hit_probe(scale):
    """Worker body: rebuild one sweep point, report this worker's stats."""
    from repro import pipeline as worker_pipeline
    from repro.core.routing import build_routed_work as build
    from repro.distribution import BlockInterleaved
    from repro.workloads.scenes import build_scene as scenes_build

    build(scenes_build("blowout775", scale), BlockInterleaved(4, 16))
    return worker_pipeline.stats()


def _sweep_fig7_style(scale):
    """All scenes x both distribution families x {4, 16, 64} processors."""
    for name in SCENE_NAMES:
        scene = build_scene(name, scale)
        for processors in (4, 16, 64):
            for dist in (
                BlockInterleaved(processors, 16),
                ScanLineInterleaved(processors, 2),
            ):
                build_routed_work(scene, dist)


class TestSweepReuse:
    def test_second_sweep_is_at_least_twice_as_fast(self):
        """The acceptance sweep: run twice, the rerun rides the store."""
        scale = 0.0625
        started = time.perf_counter()
        _sweep_fig7_style(scale)
        cold = time.perf_counter() - started

        points = len(SCENE_NAMES) * 3 * 2
        stats = pipeline.stats()
        assert stats["routed"]["misses"] == points

        started = time.perf_counter()
        _sweep_fig7_style(scale)
        warm = time.perf_counter() - started

        stats = pipeline.stats()
        assert stats["routed"]["memory_hits"] == points
        assert stats["routed"]["misses"] == points  # nothing recomputed
        assert stats["scene"]["memory_hits"] >= len(SCENE_NAMES)
        assert warm * 2 <= cold, f"warm={warm:.3f}s cold={cold:.3f}s"
