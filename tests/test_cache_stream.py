"""Tests for fragment-stream cache replay and its statistics."""

import numpy as np
import pytest

from repro.cache import CacheConfig, LruCache, make_cache_model, replay_fragments
from repro.cache.stats import CacheRunResult
from repro.cache.stream import DEFAULT_CHUNK
from repro.core.routing import partition_by_node
from repro.distribution import BlockInterleaved
from repro.raster.fragments import FragmentBuffer
from repro.texture.filtering import TrilinearFilter
from repro.workloads.scenes import build_scene
from tests.conftest import periodic_rereads
from tests.oracles import ReferenceLru


def filt_for(scene):
    return TrilinearFilter(scene.memory_layout())


def test_replay_counts_accesses(flat_scene):
    fragments = flat_scene.fragments()
    model = make_cache_model("lru")
    result = replay_fragments(fragments, filt_for(flat_scene), model)
    assert result.fragments == len(fragments)
    assert result.texel_accesses == 8 * len(fragments)
    assert result.misses <= result.line_accesses
    assert result.texels_fetched == result.misses * 16


def test_perfect_cache_fetches_nothing(flat_scene):
    fragments = flat_scene.fragments()
    result = replay_fragments(fragments, filt_for(flat_scene), make_cache_model("perfect"))
    assert result.misses == 0
    assert result.texel_to_fragment == 0.0


def test_nocache_is_eight_texels_per_fragment(flat_scene):
    fragments = flat_scene.fragments()
    result = replay_fragments(fragments, filt_for(flat_scene), make_cache_model("none"))
    assert result.texels_fetched == 8 * len(fragments)
    assert result.texel_to_fragment == pytest.approx(8.0)


def test_flat_scene_single_engine_ratio_is_low(flat_scene):
    """Identity-mapped full-screen pass: near-ideal spatial locality.

    Each 64-byte line (4x4 texels) serves ~16 pixels, so with trilinear
    overhead the ratio must stay near the unique-texel floor and far
    below the cacheless 8.0.
    """
    fragments = flat_scene.fragments()
    result = replay_fragments(fragments, filt_for(flat_scene), make_cache_model("lru"))
    assert 0.0 < result.texel_to_fragment < 3.0


def test_compulsory_classification(flat_scene):
    fragments = flat_scene.fragments()
    layout = flat_scene.memory_layout()
    seen = np.zeros(layout.total_lines, dtype=bool)
    result = replay_fragments(
        fragments, filt_for(flat_scene), make_cache_model("lru"), seen_lines=seen
    )
    assert 0 < result.compulsory_misses <= result.misses
    # The 16 KB cache holds the flat scene's whole working set: every
    # miss is compulsory.
    working_set_bytes = int(seen.sum()) * 64
    if working_set_bytes <= 16384:
        assert result.compulsory_misses == result.misses


class FixedLines:
    """A stand-in filter: one fragment reads a fixed line sequence."""

    def __init__(self, lines):
        self.lines = np.asarray([lines], dtype=np.int64)

    def line_addresses(self, u_half, v_half, triangles, triangle_level, triangle_texture):
        return self.lines


def test_a_line_missed_twice_in_one_chunk_is_compulsory_once():
    one_line = make_cache_model("lru", CacheConfig(total_bytes=64, ways=1))
    a, b = 3, 5
    result = replay_fragments(
        FragmentBuffer([0], [0], [0], [0], [0], triangle_level=[0], triangle_texture=[0]),
        FixedLines([a, b, a, b]),
        one_line,
        seen_lines=np.zeros(8, dtype=bool),
    )
    assert result.misses == 4
    assert result.compulsory_misses == 2
    assert type(result.compulsory_misses) is int  # JSON-serialisable


def test_compulsory_count_ignores_chunking(flat_scene):
    fragments = flat_scene.fragments()
    total_lines = flat_scene.memory_layout().total_lines
    counts = {
        chunk_size: replay_fragments(
            fragments,
            filt_for(flat_scene),
            make_cache_model("lru"),
            seen_lines=np.zeros(total_lines, dtype=bool),
            chunk_size=chunk_size,
        ).compulsory_misses
        for chunk_size in (1024, DEFAULT_CHUNK)
    }
    assert counts[1024] == counts[DEFAULT_CHUNK]


def test_triangle_attribution_sums_to_total(flat_scene):
    fragments = flat_scene.fragments()
    result = replay_fragments(fragments, filt_for(flat_scene), make_cache_model("lru"))
    assert result.texels_by_triangle.sum() == result.texels_fetched
    assert len(result.texels_by_triangle) == flat_scene.num_triangles


def test_chunked_replay_equals_whole(flat_scene):
    fragments = flat_scene.fragments()
    small = replay_fragments(
        fragments, filt_for(flat_scene), make_cache_model("lru"), chunk_size=37
    )
    big = replay_fragments(fragments, filt_for(flat_scene), make_cache_model("lru"))
    assert small.misses == big.misses
    assert (small.texels_by_triangle == big.texels_by_triangle).all()


def test_small_cache_misses_more(flat_scene):
    fragments = flat_scene.fragments()
    tiny = make_cache_model("lru", CacheConfig(total_bytes=512, line_bytes=64, ways=2))
    full = make_cache_model("lru")
    misses_tiny = replay_fragments(fragments, filt_for(flat_scene), tiny).misses
    misses_full = replay_fragments(fragments, filt_for(flat_scene), full).misses
    assert misses_tiny >= misses_full


def test_merged_with_aggregates():
    a = CacheRunResult(
        fragments=10,
        texel_accesses=80,
        line_accesses=80,
        misses=5,
        compulsory_misses=3,
        texels_fetched=80,
        texels_by_triangle=np.array([80, 0]),
    )
    b = CacheRunResult(
        fragments=20,
        texel_accesses=160,
        line_accesses=160,
        misses=2,
        compulsory_misses=2,
        texels_fetched=32,
        texels_by_triangle=np.array([0, 32]),
    )
    merged = a.merged_with(b)
    assert merged.fragments == 30
    assert merged.misses == 7
    assert merged.texel_to_fragment == pytest.approx(112 / 30)
    assert merged.texels_by_triangle.tolist() == [80, 32]


def test_empty_run_result_ratios():
    empty = CacheRunResult()
    assert empty.miss_rate == 0.0
    assert empty.texel_to_fragment == 0.0


@pytest.fixture(scope="module")
def room3_node_streams():
    """The line streams of room3 at smoke scale, block-16 on 4 nodes."""
    scene = build_scene("room3", scale=0.0625)
    fragments = scene.fragments()
    tex_filter = filt_for(scene)
    dist = BlockInterleaved(4, 16)
    order, bounds = partition_by_node(dist.owners(fragments.x, fragments.y), 4)
    streams = []
    for node in range(4):
        rows = order[bounds[node] : bounds[node + 1]]
        triangles = fragments.triangle[rows]
        lines = tex_filter.line_addresses(
            fragments.u_half[rows], fragments.v_half[rows], np.arange(len(rows)),
            fragments.triangle_level[triangles], fragments.triangle_texture[triangles],
        )
        streams.append(np.asarray(lines, dtype=np.int64).reshape(-1))
    return streams


@pytest.mark.parametrize("ways", [1, 2, 4, 8])
def test_texture_node_streams_match_oracle(room3_node_streams, ways):
    """Real texture streams, whose same-set periods the replay drops."""
    config = CacheConfig(ways=ways)
    for lines in room3_node_streams:
        # Sets run through repeats of period-2 cycles, which every
        # geometry above one way drops whole.
        repeats = periodic_rereads(lines, config.num_sets, 2)
        assert len(repeats) > 50
        batched, reference = LruCache(config), ReferenceLru(config)
        assert np.array_equal(batched.simulate(lines), reference.replay(lines))
        assert batched.contents() == reference.contents()
