"""Chunking property tests for the array-native batch passes.

Every batch module processes its stream in bounded chunks so the flat
working arrays stay cache-resident.  Chunk boundaries are pure
implementation detail: wherever the split lands, the output must be
bit-identical to the scalar reference (``tests/oracles``) and to any
other split.  These
tests randomize the split points (seeded) and assert exactly that for
the raster scan converter, the fused texture address pass, and the
chunked LRU replay.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import batchlru
from repro.cache.config import CacheConfig
from repro.cache.lru import LruCache
from repro.cache.stream import DEFAULT_CHUNK
from repro.core.routing import partition_by_node
from repro.distribution import BlockInterleaved
from repro.raster import batch as raster_batch
from repro.raster.fragments import FragmentBuffer
from repro.texture.filtering import TrilinearFilter
from repro.workloads.scenes import SCENE_SPECS, build_scene
from repro.workloads.sequence import translate_scene
from tests.conftest import footprint_stream, shared_set_stream
from tests.oracles import ReferenceLru, rasterize_scene_scalar, reference_line_addresses


@pytest.fixture(scope="module")
def scene():
    return build_scene("quake", scale=0.0625)


@pytest.fixture(scope="module")
def scalar(scene):
    """The reference buffer and its float per-fragment columns."""
    buffer, side = rasterize_scene_scalar(scene)
    assert len(buffer.x) > 0
    return buffer, side


@pytest.fixture(scope="module")
def fragments(scalar):
    return scalar[0]


def assert_buffers_identical(left: FragmentBuffer, right: FragmentBuffer) -> None:
    for name in FragmentBuffer.COLUMNS + FragmentBuffer.TABLES:
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("chunk", [1, 7, 401, 1 << 18])
def test_raster_batch_matches_scalar_under_any_chunking(
    scene, fragments, monkeypatch, chunk
):
    monkeypatch.setattr(raster_batch, "CHUNK_CANDIDATES", chunk)
    batched = raster_batch.rasterize_scene_batch(scene)
    assert_buffers_identical(batched, fragments)


def test_raster_batch_random_chunk_sizes(scene, fragments, monkeypatch):
    rng = np.random.default_rng(601)
    for chunk in rng.integers(2, 5000, size=4):
        monkeypatch.setattr(raster_batch, "CHUNK_CANDIDATES", int(chunk))
        batched = raster_batch.rasterize_scene_batch(scene)
        assert_buffers_identical(batched, fragments)


#: Every scene family at smoke scale, plus one frame moved off the
#: pixel grid by a fractional offset.
FRAMES = [(name, 0.0, 0.0) for name in SCENE_SPECS] + [("truc640", 3.37, -1.61)]


@pytest.fixture(scope="module")
def frames():
    """Each frame of ``FRAMES`` with its reference fragments, built once."""
    built = {}
    for name, dx, dy in FRAMES:
        frame = build_scene(name, scale=0.0625)
        if dx or dy:
            frame = translate_scene(frame, dx, dy)
        built[name, dx, dy] = (frame, rasterize_scene_scalar(frame)[0])
    return built


@pytest.mark.parametrize("chunk", [1, 401, raster_batch.CHUNK_CANDIDATES])
@pytest.mark.parametrize("frame", FRAMES, ids=lambda f: "{}{:+}{:+}".format(*f))
def test_raster_batch_matches_scalar_on_every_scene(frames, monkeypatch, frame, chunk):
    scene, reference = frames[frame]
    assert len(reference) > 0
    monkeypatch.setattr(raster_batch, "CHUNK_CANDIDATES", chunk)
    batched = raster_batch.rasterize_scene_batch(scene)
    assert_buffers_identical(batched, reference)


@pytest.mark.slow
@pytest.mark.parametrize("name,scale", [("truc640", 1.0), ("room3", 0.5)])
def test_raster_batch_matches_scalar_at_paper_scale(name, scale):
    """The ``paper_frame`` and ``small_tris`` bench frames, bit for bit."""
    scene = build_scene(name, scale=scale, cache=False)
    batched = raster_batch.rasterize_scene_batch(scene)
    assert_buffers_identical(batched, rasterize_scene_scalar(scene)[0])


def test_fused_texture_addresses_match_footprint_reference(scene, scalar):
    fragments, side = scalar
    layout = scene.memory_layout()
    filt = TrilinearFilter(layout)
    tables = (fragments.triangle, fragments.triangle_level, fragments.triangle_texture)
    fused = filt.line_addresses(fragments.u_half, fragments.v_half, *tables)
    reference = reference_line_addresses(layout, side["u"], side["v"], *tables)
    assert np.array_equal(np.asarray(fused, dtype=np.int64), reference)


def test_fused_texture_addresses_chunk_invariant(scene, fragments):
    layout = scene.memory_layout()
    filt = TrilinearFilter(layout)
    u, v, triangles = fragments.u_half, fragments.v_half, fragments.triangle
    tables = (fragments.triangle_level, fragments.triangle_texture)
    whole = filt.line_addresses(u, v, triangles, *tables)

    rng = np.random.default_rng(602)
    n = len(u)
    for _ in range(4):
        cuts = np.sort(rng.integers(0, n + 1, size=rng.integers(1, 8)))
        pieces = [
            filt.line_addresses(u[a:b], v[a:b], triangles[a:b], *tables)
            for a, b in zip(np.concatenate(([0], cuts)), np.concatenate((cuts, [n])))
            if b > a
        ]
        assert np.array_equal(np.concatenate(pieces), whole)


@pytest.mark.slow
@pytest.mark.parametrize(
    "name,scale,processors", [("truc640", 1.0, 64), ("room3", 0.5, 4)]
)
def test_filter_matches_oracle_at_paper_scale(name, scale, processors):
    """Every node's replay chunks of the ``paper_frame`` and
    ``small_tris`` bench frames (block-16), bit for bit."""
    scene = build_scene(name, scale=scale, cache=False)
    fragments = scene.fragments()
    side = rasterize_scene_scalar(scene)[1]
    layout = scene.memory_layout()
    filt = TrilinearFilter(layout)
    tables = (fragments.triangle_level, fragments.triangle_texture)
    owners = BlockInterleaved(processors, 16).owners(fragments.x, fragments.y)
    order, bounds = partition_by_node(owners, processors)
    for node in range(processors):
        rows = order[bounds[node] : bounds[node + 1]]
        for start in range(0, len(rows), DEFAULT_CHUNK):
            take = rows[start : start + DEFAULT_CHUNK]
            triangles = fragments.triangle[take]
            lines = filt.line_addresses(
                fragments.u_half[take], fragments.v_half[take], triangles, *tables
            )
            assert lines.dtype == filt.line_dtype
            reference = reference_line_addresses(
                layout, side["u"][take], side["v"][take], triangles, *tables
            )
            assert np.array_equal(lines, reference), (node, start)


def _random_stream(rng, length):
    span = int(rng.choice([16, 1 << 10, 1 << 20]))
    return rng.integers(0, span, size=length).astype(np.int64)


def _config(num_sets: int, ways: int) -> CacheConfig:
    return CacheConfig(total_bytes=num_sets * ways * 64, ways=ways)


@pytest.mark.parametrize("num_sets,ways", [(1, 2), (3, 1), (4, 4), (64, 2)])
def test_lru_replay_matches_scalar_under_random_chunking(
    monkeypatch, num_sets, ways
):
    rng = np.random.default_rng(603 + num_sets * 8 + ways)
    default = batchlru.CHUNK_TARGET_LEN
    for chunk in (3, 17, int(rng.integers(32, 4096)), default):
        monkeypatch.setattr(batchlru, "CHUNK_TARGET_LEN", chunk)
        streams = [_random_stream(rng, int(rng.integers(1, 6000)))]
        if chunk != default:
            # Texture footprints: mostly per-set MRU re-reads, which the
            # replay drops before chunking.
            streams.append(footprint_stream(rng, num_sets, int(rng.integers(1, 6000))))
        config = _config(num_sets, ways)
        for lines in streams:
            batched, scalar = LruCache(config), ReferenceLru(config)
            assert np.array_equal(batched.simulate(lines), scalar.replay(lines))
            assert batched.contents() == scalar.contents()


@pytest.mark.parametrize(
    "num_sets,ways", [(1, 2), (1, 4), (3, 3), (4, 1), (4, 4), (64, 8)]
)
def test_lru_replay_periodic_rereads_under_random_chunking(monkeypatch, num_sets, ways):
    """Same-set periods dropped whole, wherever the chunk boundaries fall."""
    rng = np.random.default_rng(605 + num_sets * 8 + ways)
    config = _config(num_sets, ways)
    for chunk in (3, 17, int(rng.integers(32, 4096))):
        monkeypatch.setattr(batchlru, "CHUNK_TARGET_LEN", chunk)
        lines = shared_set_stream(rng, num_sets, int(rng.integers(1, 6000)))
        batched, scalar = LruCache(config), ReferenceLru(config)
        cut = int(rng.integers(0, len(lines) + 1))
        got = np.concatenate([batched.simulate(lines[:cut]), batched.simulate(lines[cut:])])
        assert np.array_equal(got, scalar.replay(lines))
        assert batched.contents() == scalar.contents()


@pytest.mark.parametrize("num_sets", [1, 2])
@pytest.mark.parametrize("ways", [1, 2, 4, 8])
def test_lru_replay_few_sets_at_default_chunking(num_sets, ways):
    """Few-set caches chunk by set count: many chunks, still exact."""
    rng = np.random.default_rng(606 + num_sets * 8 + ways)
    config = _config(num_sets, ways)
    lines = rng.integers(0, 64, size=int(rng.integers(3000, 6000))).astype(np.int64)
    batched, scalar = LruCache(config), ReferenceLru(config)
    cut = int(rng.integers(0, len(lines) + 1))
    got = np.concatenate([batched.simulate(lines[:cut]), batched.simulate(lines[cut:])])
    assert np.array_equal(got, scalar.replay(lines))
    assert batched.contents() == scalar.contents()


def test_lru_replay_is_call_split_invariant(monkeypatch):
    """Feeding one stream in random slices equals one whole-stream call."""
    rng = np.random.default_rng(604)
    monkeypatch.setattr(batchlru, "CHUNK_TARGET_LEN", 64)
    lines = _random_stream(rng, 5000)
    config = _config(8, 4)
    whole_cache, split_cache = LruCache(config), LruCache(config)
    whole = whole_cache.simulate(lines)

    cuts = np.sort(rng.integers(0, len(lines) + 1, size=6))
    edges = np.concatenate(([0], cuts, [len(lines)]))
    pieces = [
        split_cache.simulate(lines[a:b]) for a, b in zip(edges, edges[1:]) if b > a
    ]
    assert np.array_equal(np.concatenate(pieces), whole)
    assert split_cache.contents() == whole_cache.contents()
