"""The shared node partition: one radix-keyed sort per frame.

Three walls:

* :func:`partition_by_node` returns, as ``int32``, the permutation and
  bounds of a stable ``int64`` sort, whatever the key width it picks
  and wherever its chunks split the stream;
* :func:`compute_replay` equals the per-node oracle
  (:func:`tests.oracles.reference_replay`) on every statistic, for
  every distribution class, on both key widths and through a page
  table;
* ``Distribution.owners`` answers in ``int32`` with the ``int64``
  arithmetic's values, and ``routed_work`` calls it at most once.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import pipeline
from repro.cache.config import CacheConfig
from repro.cache.stream import DEFAULT_CHUNK
from repro.core import routing
from repro.core.routing import (
    PLAN_FORMAT,
    build_routed_work,
    compute_replay,
    partition_by_node,
)
from repro.distribution import (
    AssignedTiles,
    BlockInterleaved,
    ContiguousBands,
    MortonInterleaved,
    ScanLineInterleaved,
    SingleProcessor,
    TileGrid,
)
from repro.distribution.base import processor_grid
from repro.raster.fragments import FRAGMENTS_FORMAT, FragmentBuffer
from repro.texture.filtering import TrilinearFilter
from repro.texture.pages import PageTable, VirtualTextureConfig, build_frame_lines
from repro.workloads.scenes import build_scene
from tests.oracles import reference_replay

PROCESSORS = (1, 3, 4, 64, 300)


@pytest.fixture(autouse=True)
def fresh_store():
    pipeline.configure()
    yield
    pipeline.configure()


@pytest.fixture(scope="module")
def scene():
    return build_scene("truc640", scale=0.0625)


def distributions(width: int, height: int):
    """One instance of every distribution class per processor count."""
    rng = np.random.default_rng(180)
    cases = [SingleProcessor()]
    for processors in PROCESSORS:
        grid = TileGrid(4, width, height)
        cases += [
            BlockInterleaved(processors, 4),
            ScanLineInterleaved(processors, 1),
            MortonInterleaved(processors, 2),
            ContiguousBands(processors, max(height, processors)),
            AssignedTiles(grid, rng.integers(0, processors, grid.num_tiles), processors),
        ]
    # 130 tiles (a uint8 key) and 475 tiles (a uint16 key).
    cases += [TileGrid(8, width, height), TileGrid(4, width, height)]
    return cases


def owners_of(distribution, fragments):
    return distribution.owners(fragments.x, fragments.y)


def assert_same_replay(got, want):
    for field in dataclasses.fields(want.cache):
        name = field.name
        assert np.array_equal(getattr(got.cache, name), getattr(want.cache, name)), name
    assert len(got.texels_per_node_tri) == len(want.texels_per_node_tri)
    for node, (row, expected) in enumerate(
        zip(got.texels_per_node_tri, want.texels_per_node_tri)
    ):
        assert np.array_equal(row, expected), node


# -- the partition ---------------------------------------------------


#: Chunk sizes the partition tests run under: single rows, odd sizes
#: that leave a short last chunk, and the shipped size.
CHUNKS = [1, 7, 256, 1000, routing.PARTITION_CHUNK]


def assert_stable_int64_sort(owners, nodes, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(routing, "PARTITION_CHUNK", chunk)
        order, bounds = partition_by_node(owners, nodes)
    assert order.dtype == np.int32
    wide = owners.astype(np.int64)
    assert np.array_equal(order, np.argsort(wide, kind="stable"))
    sorted_owners = wide[order]
    assert bounds[0] == 0 and bounds[-1] == len(owners)
    assert np.array_equal(bounds[:-1], np.searchsorted(sorted_owners, np.arange(nodes)))


@settings(max_examples=60, deadline=None)
@given(
    nodes=st.sampled_from([1, 3, 4, 64, 256, 257, 300, 1 << 16, (1 << 16) + 1]),
    length=st.integers(0, 3000),
    chunk=st.sampled_from(CHUNKS),
    seed=st.integers(0, 2**32 - 1),
)
def test_partition_is_the_stable_int64_sort(nodes, length, chunk, seed):
    rng = np.random.default_rng(seed)
    # Few distinct owners, so equal keys are common and order matters.
    owners = rng.choice(rng.integers(0, nodes, size=5), size=length).astype(np.int32)
    assert_stable_int64_sort(owners, nodes, chunk)


@pytest.mark.parametrize("chunk", [7, 256, 1000])
@pytest.mark.parametrize("nodes", [1, 257, (1 << 16) + 1])
def test_chunked_partition_spreads_every_node_across_chunks(nodes, chunk):
    """Nodes own rows in many chunks, in runs as a tile's pixels are."""
    rng = np.random.default_rng(nodes)
    owners = np.repeat(rng.integers(0, nodes, size=1200), rng.integers(1, 9, size=1200))
    assert len(owners) > 3 * chunk
    assert_stable_int64_sort(owners.astype(np.int32), nodes, chunk)


# -- the chunked owners pass and pixel matrix ------------------------


def assert_plan_counts(plan, triangles, owners, num_triangles, nodes):
    """The plan's counts equal the whole-frame ``int64`` key's bincount."""
    key = triangles.astype(np.int64) * nodes + owners
    assert np.array_equal(plan.pixel_matrix, np.bincount(key, minlength=num_triangles * nodes))
    assert plan.pixel_matrix.dtype == np.int64
    assert np.array_equal(plan.node_pixels, np.bincount(owners, minlength=nodes))
    assert plan.node_pixels.dtype == np.int64


@pytest.mark.parametrize("chunk", [1000, 65536, routing.PARTITION_CHUNK])
def test_chunked_owners_and_plan_match_the_whole_frame(scene, chunk):
    fragments = scene.fragments()
    for distribution in distributions(scene.width, scene.height):
        nodes = distribution.num_processors
        wide = owners_of(distribution, fragments)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(routing, "PARTITION_CHUNK", chunk)
            narrow = routing.frame_owners(distribution, fragments)
            plan = routing.compute_routing_plan(scene, distribution, fragments, narrow)
        assert narrow.dtype == (np.uint8 if nodes <= 256 else np.uint16), distribution
        assert np.array_equal(narrow, wide), distribution
        assert_plan_counts(plan, fragments.triangle, wide, scene.num_triangles, nodes)


def test_chunked_plan_counts_a_shuffled_stream(scene):
    """Chunk windows come from each chunk's own triangle range, in any order."""
    fragments = scene.fragments()
    shuffled = fragments.select(np.random.default_rng(182).permutation(len(fragments)))
    distribution = BlockInterleaved(64, 4)
    owners = owners_of(distribution, shuffled)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(routing, "PARTITION_CHUNK", 5000)
        plan = routing.compute_routing_plan(scene, distribution, shuffled, owners)
    assert_plan_counts(plan, shuffled.triangle, owners, scene.num_triangles, 64)


def test_owners_past_65536_nodes_stay_int32():
    big = TileGrid(1, *SCREEN)
    assert big.num_processors > 1 << 16
    ys, xs = np.mgrid[0:8, 0:SCREEN[0]]
    fragments = FragmentBuffer(
        xs.ravel(), ys.ravel(), np.zeros(xs.size, np.int16), np.zeros(xs.size, np.int16),
        np.zeros(xs.size), np.zeros(1), np.zeros(1),
    )
    owners = routing.frame_owners(big, fragments)
    assert owners.dtype == np.int32
    assert np.array_equal(owners, big.owners(fragments.x, fragments.y))


# -- the replay against the oracle -----------------------------------


def test_every_distribution_matches_the_oracle(scene):
    fragments = scene.fragments()
    for distribution in distributions(scene.width, scene.height):
        owners = owners_of(distribution, fragments)
        got = compute_replay(scene, distribution, fragments, owners)
        want = reference_replay(scene, distribution, fragments)
        assert_same_replay(got, want)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_random_machines_match_the_oracle(scene, data):
    fragments = scene.fragments()
    distribution = data.draw(
        st.sampled_from(distributions(scene.width, scene.height)), label="distribution"
    )
    chunk_size = data.draw(st.sampled_from([None, 97, 1024]), label="chunk")
    ways = data.draw(st.sampled_from([1, 2, 4]), label="ways")
    sets = data.draw(st.sampled_from([1, 4, 16]), label="sets")
    cache_config = CacheConfig(total_bytes=64 * ways * sets, ways=ways)
    got = compute_replay(
        scene,
        distribution,
        fragments,
        owners_of(distribution, fragments),
        cache_config=cache_config,
        chunk_size=chunk_size,
    )
    want = reference_replay(
        scene, distribution, fragments, cache_config=cache_config, chunk_size=chunk_size
    )
    assert_same_replay(got, want)
    assert got.cache.compulsory_misses <= got.cache.misses


@pytest.mark.parametrize("processors", [4, 300])
def test_page_table_replay_matches_the_oracle(scene, processors):
    fragments = scene.fragments()
    layout = scene.memory_layout()
    table = PageTable(layout.total_lines, VirtualTextureConfig(8, 0.5))
    rng = np.random.default_rng(181)
    table.observe(rng.integers(0, layout.total_lines, size=20000))
    table.advance_frame()
    assert not table.identity
    distribution = BlockInterleaved(processors, 4)
    frame = build_frame_lines(table, TrilinearFilter(layout), fragments, DEFAULT_CHUNK)
    got = compute_replay(
        scene, distribution, fragments, owners_of(distribution, fragments), translator=frame
    )
    want = reference_replay(scene, distribution, fragments, translator=table)
    assert_same_replay(got, want)


# -- owners: dtype, values, call count -------------------------------


def _morton64(tx, ty):
    code = np.zeros_like(tx)
    for bit in range(16):
        code |= ((tx >> bit) & 1) << (2 * bit)
        code |= ((ty >> bit) & 1) << (2 * bit + 1)
    return code


def owners_int64(distribution, x, y):
    """The owner arithmetic carried out in ``int64``."""
    x = x.astype(np.int64)
    y = y.astype(np.int64)
    p = distribution.num_processors
    if isinstance(distribution, SingleProcessor):
        return np.zeros_like(x)
    if isinstance(distribution, BlockInterleaved):
        across, down = processor_grid(p)
        w = distribution.width
        return (x // w) % across + across * ((y // w) % down)
    if isinstance(distribution, ScanLineInterleaved):
        return (y // distribution.lines) % p
    if isinstance(distribution, MortonInterleaved):
        w = distribution.width
        return _morton64(x // w, y // w) % p
    if isinstance(distribution, ContiguousBands):
        return np.clip(y * p // distribution.screen_height, 0, p - 1)
    if isinstance(distribution, TileGrid):
        w = distribution.width
        return (y // w) * distribution.tiles_x + x // w
    if isinstance(distribution, AssignedTiles):
        return distribution.assignment[owners_int64(distribution.grid, x, y)]
    raise AssertionError(f"no int64 reference for {distribution!r}")


SCREEN = (1600, 1200)


def test_owners_are_int32_and_match_int64_arithmetic():
    ys, xs = np.mgrid[0 : SCREEN[1], 0 : SCREEN[0]]
    x = xs.ravel().astype(np.int32)
    y = ys.ravel().astype(np.int32)
    for distribution in distributions(*SCREEN) + [TileGrid(1, *SCREEN)]:
        owners = distribution.owners(x, y)
        assert owners.dtype == np.int32, distribution
        assert np.array_equal(owners, owners_int64(distribution, x, y)), distribution
        assert owners.min() >= 0 and owners.max() < distribution.num_processors


class SpyBlock(BlockInterleaved):
    """Block interleave that counts its ``owners`` calls."""

    calls = 0

    def owners(self, x, y):
        SpyBlock.calls += 1
        return super().owners(x, y)


@pytest.mark.parametrize("cache_spec", ["lru", "perfect"])
@pytest.mark.parametrize("override", [False, True], ids=["memoized", "uncacheable"])
def test_routed_work_runs_owners_once(scene, override, cache_spec):
    SpyBlock.calls = 0
    build_routed_work(
        scene,
        SpyBlock(4, 8),
        cache_spec=cache_spec,
        fragments=scene.fragments() if override else None,
    )
    assert SpyBlock.calls == 1


def test_memoized_hits_skip_owners_and_store_the_same_keys():
    scene = build_scene("truc640", scale=0.0625, cache=False)
    spy = SpyBlock(4, 8)
    build_routed_work(scene, spy)
    SpyBlock.calls = 0
    build_routed_work(scene, spy)
    assert SpyBlock.calls == 0
    plan = f"{scene.artifact_key}/{spy.fingerprint()}/bbox/{PLAN_FORMAT}"
    replay = f"{scene.artifact_key}/{spy.fingerprint()}/lru/default/chunk0"
    store = pipeline.store()
    assert store.contains("fragments", f"{scene.artifact_key}/{FRAGMENTS_FORMAT}")
    assert store.contains("routing", plan)
    assert store.contains("replay", replay)
    assert store.contains("routed", f"{plan}|{replay}|setup25|{spy.describe()}")
    assert len(store) == 4
