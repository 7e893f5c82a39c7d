"""Cross-cutting coverage: rectangular textures, error hierarchy,
trace fuzzing, and result-object behaviours."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.stats import CacheRunResult
from repro.core import MachineConfig, simulate_machine
from repro.core.results import MachineResult, NodeTimings
from repro.distribution import BlockInterleaved
from repro.errors import (
    ConfigurationError,
    ReproError,
    SimulationError,
    TraceFormatError,
)
from repro.geometry import Scene, Triangle, Vertex, load_trace
from repro.texture import MipmappedTexture, TextureMemoryLayout, TrilinearFilter
from repro.texture.filtering import half_texel_index


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for error in (ConfigurationError, SimulationError, TraceFormatError):
            assert issubclass(error, ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            MipmappedTexture(3, 3)


class TestRectangularTextures:
    def test_layout_handles_wide_texture(self):
        layout = TextureMemoryLayout([MipmappedTexture(64, 16)])
        filt = TrilinearFilter(layout)
        levels = np.array([0, 2])
        lines = filt.line_addresses(
            half_texel_index(np.array([32.0, 63.9]), levels),
            half_texel_index(np.array([8.0, 15.9]), levels),
            np.arange(2),
            levels,
            np.array([0, 0]),
        )
        assert (lines >= 0).all()
        assert (lines < layout.total_lines).all()

    def test_wide_texture_pyramid_collapses_correctly(self):
        texture = MipmappedTexture(32, 4)
        dims = [(lvl.width, lvl.height) for lvl in texture.levels]
        assert dims[-1] == (1, 1)
        assert (16, 2) in dims
        assert (8, 1) in dims

    def test_rect_scene_simulates(self):
        scene = Scene("rect", 48, 48, [MipmappedTexture(64, 8)])
        scene.add(
            Triangle(
                Vertex(2, 2, 0, 0), Vertex(40, 2, 60, 0), Vertex(2, 40, 0, 7)
            )
        )
        config = MachineConfig(distribution=BlockInterleaved(4, 8))
        result = simulate_machine(scene, config)
        assert result.cycles > 0


class TestTraceFuzzing:
    @settings(max_examples=60, deadline=None)
    @given(junk=st.text(max_size=300))
    def test_arbitrary_text_never_crashes_loader(self, tmp_path_factory, junk):
        """The loader either parses or raises TraceFormatError — no
        IndexError/ValueError escapes."""
        path = tmp_path_factory.mktemp("fuzz") / "fuzz.trace"
        path.write_text(junk)
        try:
            load_trace(path)
        except (TraceFormatError, ConfigurationError, ValueError):
            # ValueError is acceptable only for numeric-field garbage in
            # otherwise well-formed records; the magic check rejects
            # everything that is not a trace file.
            pass

    @settings(max_examples=30, deadline=None)
    @given(
        extra=st.text(
            alphabet="0123456789. -", min_size=0, max_size=40
        )
    )
    def test_header_with_garbage_body(self, tmp_path_factory, extra):
        path = tmp_path_factory.mktemp("fuzz2") / "fuzz.trace"
        path.write_text(
            "REPRO-TRACE 2\nscene f\nscreen 8 8\ntextures 1\n"
            f"texture 8 8\ntriangles 1\ntri {extra}\n"
        )
        with pytest.raises((TraceFormatError, ValueError)):
            load_trace(path)


class TestResultObjects:
    def make_result(self, **overrides):
        base = dict(
            scene_name="s",
            distribution="block16x4",
            cache_name="lru16k",
            bus_ratio=1.0,
            fifo_capacity=10000,
            num_processors=4,
            cycles=100.0,
            timings=NodeTimings(
                finish=np.array([100.0, 80.0, 90.0, 60.0]),
                busy=np.array([100, 80, 90, 60]),
                stall=np.zeros(4),
            ),
            node_pixels=np.array([10, 10, 10, 10]),
            cache=CacheRunResult(),
        )
        base.update(overrides)
        return MachineResult(**base)

    def test_speedup_none_without_baseline(self):
        result = self.make_result()
        assert result.speedup is None
        assert result.efficiency is None

    def test_imbalance_formula(self):
        result = self.make_result()
        expected = (100 / np.mean([100, 80, 90, 60]) - 1) * 100
        assert result.work_imbalance_percent() == pytest.approx(expected)

    def test_zero_work_imbalance(self):
        result = self.make_result()
        result.timings.busy = np.zeros(4)
        assert result.work_imbalance_percent() == 0.0

    def test_summary_without_baseline_omits_speedup(self):
        text = self.make_result().summary()
        assert "speedup" not in text
        assert "block16x4" in text

    def test_extras_dict_defaults_empty(self):
        assert self.make_result().extras == {}

    def test_critical_node(self):
        assert self.make_result().timings.critical_node == 0


class TestCacheRunResultEdges:
    def test_merge_with_empty_attribution(self):
        a = CacheRunResult(fragments=5)
        b = CacheRunResult(fragments=3, texels_by_triangle=np.array([4, 0]))
        merged = a.merged_with(b)
        assert merged.fragments == 8
        assert merged.texels_by_triangle.tolist() == [4, 0]
        reversed_merge = b.merged_with(a)
        assert reversed_merge.texels_by_triangle.tolist() == [4, 0]


class TestDocScripts:
    def test_api_doc_generator_runs(self, tmp_path, monkeypatch, capsys):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "gen_api_docs", Path("scripts/gen_api_docs.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(module, "OUT", tmp_path / "API.md")
        module.main()
        text = (tmp_path / "API.md").read_text()
        assert "repro.core.machine" in text
        assert "simulate_machine" in text
