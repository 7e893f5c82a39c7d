"""Tests for the experiment drivers."""

import pytest

from repro.analysis import (
    buffer_sweep,
    characterize_scene,
    format_series,
    format_table,
    imbalance_percent,
    imbalance_sweep,
    locality_sweep,
    SpeedupStudy,
    texel_to_fragment_ratio,
    work_distribution,
)
from repro.analysis.batch import FAMILIES
from repro.distribution import BlockInterleaved, ScanLineInterleaved
from repro.errors import ConfigurationError


class TestCharacterize:
    def test_flat_scene_row(self, flat_scene):
        stats = characterize_scene(flat_scene)
        assert stats.pixels_rendered == 64 * 64
        assert stats.unique_texel_to_fragment > 0
        assert stats.texture_megabytes == pytest.approx(
            flat_scene.texture_bytes() / 2**20
        )

    def test_identity_mapping_unique_ratio_near_one(self, flat_scene):
        # Every pixel maps 1:1 onto a 64x64 texture: level 0 touches all
        # 4096 texels, level 1 another 1024 -> ratio ~1.25.
        stats = characterize_scene(flat_scene)
        assert stats.unique_texel_to_fragment == pytest.approx(1.25, abs=0.15)


class TestLoadBalance:
    def test_uniform_scene_is_balanced_with_fine_blocks(self, flat_scene):
        assert imbalance_percent(flat_scene, BlockInterleaved(4, 8)) < 2.0

    def test_hotspot_hurts_coarse_tiles_more(self, overdraw_scene):
        fine = imbalance_percent(overdraw_scene, BlockInterleaved(4, 4))
        coarse = imbalance_percent(overdraw_scene, BlockInterleaved(4, 32))
        assert coarse > fine

    def test_work_distribution_shape(self, flat_scene):
        work = work_distribution(flat_scene, ScanLineInterleaved(4, 2))
        assert work.shape == (4,)
        assert (work > 0).all()

    def test_sweep_returns_all_sizes(self, tiny_bench_scene):
        sweep = imbalance_sweep(tiny_bench_scene, "block", [8, 32], 4)
        assert set(sweep) == {8, 32}
        assert all(value >= 0 for value in sweep.values())

    def test_sweep_family_vocabulary(self, tiny_bench_scene):
        # Sweeps build their distributions from the one family table.
        for family in FAMILIES:
            assert set(imbalance_sweep(tiny_bench_scene, family, [8], 4)) == {8}
        with pytest.raises(ConfigurationError):
            imbalance_sweep(tiny_bench_scene, "hex", [8], 4)


class TestLocality:
    def test_ratio_grows_when_splitting_image(self, flat_scene):
        solo = texel_to_fragment_ratio(flat_scene, BlockInterleaved(1, 64))
        split = texel_to_fragment_ratio(flat_scene, ScanLineInterleaved(8, 1))
        assert split >= solo

    def test_sweep_grid_complete(self, flat_scene):
        sweep = locality_sweep(flat_scene, "sli", [1, 4], [1, 4])
        assert set(sweep) == {(1, 1), (1, 4), (4, 1), (4, 4)}

    def test_single_line_sli_worse_than_big_blocks(self, tiny_bench_scene):
        """Figure 2's intuition: fine interleaving splits cache lines."""
        sli1 = texel_to_fragment_ratio(tiny_bench_scene, ScanLineInterleaved(8, 1))
        block32 = texel_to_fragment_ratio(tiny_bench_scene, BlockInterleaved(8, 32))
        assert sli1 > block32


class TestSpeedupStudy:
    def test_baseline_memoised(self, flat_scene):
        study = SpeedupStudy(flat_scene, cache="perfect")
        first = study.baseline_cycles
        assert study.baseline_cycles == first
        assert study._baseline is not None

    def test_speedup_in_valid_range(self, tiny_bench_scene):
        study = SpeedupStudy(tiny_bench_scene, cache="perfect")
        value = study.speedup(BlockInterleaved(4, 16))
        assert 1.0 <= value <= 4.0 + 1e-9

    def test_sweep_and_best_size(self, tiny_bench_scene):
        study = SpeedupStudy(tiny_bench_scene, cache="perfect")
        sweep = study.sweep("block", [8, 16], [2, 4])
        assert set(sweep) == {(8, 2), (8, 4), (16, 2), (16, 4)}
        size, value = study.best_size("block", [8, 16], 4)
        assert size in (8, 16)
        assert value == max(sweep[(8, 4)], sweep[(16, 4)])

    def test_convenience_wrapper(self, tiny_bench_scene):
        sweep = SpeedupStudy(tiny_bench_scene, cache="perfect").sweep("block", [16], [4])
        assert (16, 4) in sweep


class TestBufferSweep:
    def test_bigger_buffer_never_slower(self, tiny_bench_scene):
        sweep = buffer_sweep(
            tiny_bench_scene,
            "block",
            sizes=[16],
            buffer_sizes=[1, 8, 10000],
            num_processors=8,
            cache="perfect",
        )
        assert sweep[(16, 1)] <= sweep[(16, 8)] + 1e-9
        assert sweep[(16, 8)] <= sweep[(16, 10000)] + 1e-9


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["longer", 2.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "longer" in lines[3]

    def test_format_series_matrix(self):
        series = {(1, 4): 1.5, (1, 16): 2.0, (2, 4): 1.25}
        text = format_series("demo", series)
        assert text.splitlines()[0] == "demo"
        assert "-" in text  # missing (2, 16) cell
        assert "1.5" in text

    def test_format_table_float_trimming(self):
        text = format_table(["v"], [[1.0], [0.125]])
        assert "1 " in text or text.endswith("1") or "\n1" in text
        assert "0.125" in text
