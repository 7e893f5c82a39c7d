"""Property tests for the virtual-texturing page table.

Three walls, mirroring the guarantees ``repro.texture.pages`` claims:

* **Exactness identity** — a fully-resident, identity-mapped table is
  a bit-exact no-op: same translated addresses, same cycles, same hit
  rates as the direct (non-VT) path, through the whole machine.
* **Split invariance** — ``translate`` is pure, so chunking and call
  splits cannot change its output; ``observe`` accumulates first-touch
  ranks in global stream order, so feeding the stream in any slicing
  yields the same residency trajectory.
* **Deterministic paging** — the LRU update is a pure array function
  of the access stream: two tables fed the same stream stay identical,
  and a tiny hand-built stream reproduces the expected eviction by
  hand.

The line-map ``translate`` and change-point ``observe`` are also held
bit for bit to :class:`tests.oracles.ReferencePageTable`, the per-call
arithmetic and ``np.unique`` bodies they replaced, over random
multi-frame trajectories.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.batch import distribution_from_spec, machine_config_from_spec
from repro.cache.stream import DEFAULT_CHUNK
from repro.core.machine import simulate_machine
from repro.core.routing import build_routed_work
from repro.errors import ConfigurationError
from repro.pipeline import fragments_artifact
from repro.texture.filtering import TrilinearFilter
from repro.texture.pages import PageTable, VirtualTextureConfig, build_frame_lines
from repro.workloads.vt import require_vt_spec, vt_frames
from tests.oracles import ReferencePageTable


@pytest.fixture(scope="module")
def frames():
    return vt_frames(require_vt_spec("vt-quake"), scale=0.0625)


@pytest.fixture(scope="module")
def layout(frames):
    return frames[0].memory_layout()


def _routed(scene, layout, config, distribution, translator=None):
    return build_routed_work(
        scene,
        distribution,
        cache_spec=config.cache,
        cache_config=config.cache_config,
        setup_cycles=config.setup_cycles,
        layout=layout,
        translator=translator,
    )


def _random_lines(rng, total_lines, length):
    return rng.integers(0, total_lines, size=length).astype(np.int64)


# -- configuration validation ----------------------------------------


def test_page_lines_must_be_power_of_two():
    with pytest.raises(ConfigurationError):
        VirtualTextureConfig(page_lines=12)
    with pytest.raises(ConfigurationError):
        VirtualTextureConfig(page_lines=0)


def test_residency_fraction_bounds():
    with pytest.raises(ConfigurationError):
        VirtualTextureConfig(residency_fraction=0.0)
    with pytest.raises(ConfigurationError):
        VirtualTextureConfig(residency_fraction=1.5)


# -- exactness identity ----------------------------------------------


def test_fully_resident_table_is_identity(layout):
    table = PageTable(layout.total_lines, VirtualTextureConfig(16, 1.0))
    assert table.identity
    assert table.num_frames == table.num_pages
    lines = np.arange(min(layout.total_lines, 4096), dtype=np.int64)
    assert table.translate(lines) is lines  # the very same array


def test_identity_survives_frames(layout):
    """No page can fault or evict when every page is resident."""
    rng = np.random.default_rng(710)
    table = PageTable(layout.total_lines, VirtualTextureConfig(16, 1.0))
    for _ in range(3):
        table.observe(_random_lines(rng, layout.total_lines, 3000))
        stats = table.advance_frame()
        assert stats["fault_accesses"] == 0
        assert stats["paged_in"] == 0
        assert stats["evicted"] == 0
    assert table.identity
    lines = _random_lines(rng, layout.total_lines, 100)
    assert table.translate(lines) is lines


@pytest.mark.parametrize("family,size", [("block", 16), ("sli", 2)])
def test_identity_vt_machine_run_matches_direct_path(frames, layout, family, size):
    """The whole machine: identity VT vs no VT must be bit-identical."""
    scene = frames[0]
    spec = {"family": family, "processors": 4, "size": size}
    distribution = distribution_from_spec(spec, scene.height)
    config = machine_config_from_spec(spec, distribution)
    table = PageTable(layout.total_lines, VirtualTextureConfig(16, 1.0))
    frame = build_frame_lines(
        table, TrilinearFilter(layout), fragments_artifact(scene), DEFAULT_CHUNK
    )

    direct = simulate_machine(_routed(scene, layout, config, distribution), config.timing)
    via_vt = simulate_machine(
        _routed(scene, layout, config, distribution, translator=frame), config.timing
    )
    assert via_vt.cycles == direct.cycles
    assert via_vt.cache.miss_rate == direct.cache.miss_rate
    assert via_vt.cache.misses == direct.cache.misses
    assert via_vt.cache.compulsory_misses == direct.cache.compulsory_misses
    assert via_vt.cache.line_accesses == direct.cache.line_accesses
    assert via_vt.cache.texels_fetched == direct.cache.texels_fetched
    assert via_vt.texel_to_fragment == direct.texel_to_fragment
    assert np.array_equal(
        via_vt.cache.texels_by_triangle, direct.cache.texels_by_triangle
    )


# -- translation: purity and split invariance ------------------------


def test_translate_is_pure(layout):
    rng = np.random.default_rng(711)
    table = PageTable(layout.total_lines, VirtualTextureConfig(8, 0.5))
    before = table.mapping()
    key_before = table.cache_key()
    table.translate(_random_lines(rng, layout.total_lines, 5000))
    assert np.array_equal(table.mapping(), before)
    assert table.cache_key() == key_before


def test_translate_is_call_split_invariant(layout):
    rng = np.random.default_rng(712)
    table = PageTable(layout.total_lines, VirtualTextureConfig(8, 0.5))
    lines = _random_lines(rng, layout.total_lines, 20000)
    whole = table.translate(lines)
    for _ in range(4):
        cuts = np.sort(rng.integers(0, len(lines) + 1, size=rng.integers(1, 9)))
        edges = np.concatenate(([0], cuts, [len(lines)]))
        pieces = [
            table.translate(lines[a:b]) for a, b in zip(edges, edges[1:]) if b > a
        ]
        assert np.array_equal(np.concatenate(pieces), whole)


def test_translate_bounds_and_offsets(layout):
    """Translated addresses stay inside the physical space; resident
    pages keep their offsets; faults land in the fallback frame."""
    rng = np.random.default_rng(713)
    config = VirtualTextureConfig(16, 0.25)
    table = PageTable(layout.total_lines, config)
    lines = _random_lines(rng, layout.total_lines, 10000)
    out = table.translate(lines)
    assert out.min() >= 0
    assert out.max() < table.address_space_lines
    assert np.array_equal(out % config.page_lines, lines % config.page_lines)

    resident = table.resident_mask()[lines // config.page_lines]
    fallback_lines = out[~resident] // config.page_lines
    assert resident.any() and (~resident).any()
    assert np.all(fallback_lines == table.fallback_frame)


# -- observation: split invariance and determinism -------------------


def test_observe_is_split_invariant(layout):
    """Any slicing of the frame stream yields the same trajectory."""
    rng = np.random.default_rng(714)
    lines = _random_lines(rng, layout.total_lines, 30000)
    whole = PageTable(layout.total_lines, VirtualTextureConfig(8, 0.5))
    whole.observe(lines)
    whole_stats = whole.advance_frame()

    for seed in (1, 2, 3):
        split_rng = np.random.default_rng(714 + seed)
        split = PageTable(layout.total_lines, VirtualTextureConfig(8, 0.5))
        cuts = np.sort(split_rng.integers(0, len(lines) + 1, size=7))
        edges = np.concatenate(([0], cuts, [len(lines)]))
        for a, b in zip(edges, edges[1:]):
            if b > a:
                split.observe(lines[a:b])
        assert split.advance_frame() == whole_stats
        assert np.array_equal(split.mapping(), whole.mapping())
        assert split.cache_key() == whole.cache_key()


def test_residency_trajectory_is_deterministic(layout):
    """Same stream, same table: bit-identical history and mapping."""
    rng = np.random.default_rng(715)
    streams = [_random_lines(rng, layout.total_lines, 8000) for _ in range(3)]
    tables = [
        PageTable(layout.total_lines, VirtualTextureConfig(16, 0.5))
        for _ in range(2)
    ]
    for stream in streams:
        for table in tables:
            table.observe(stream)
            table.advance_frame()
    assert tables[0].history == tables[1].history
    assert np.array_equal(tables[0].mapping(), tables[1].mapping())
    assert tables[0].cache_key() == tables[1].cache_key()


def test_fault_pages_in_next_frame():
    """A faulted page is resident for the following frame."""
    # 8 pages of 4 lines, half resident: pages 0-3 hold frames 0-3.
    table = PageTable(32, VirtualTextureConfig(4, 0.5))
    target = np.array([6 * 4 + 1], dtype=np.int64)  # one line of page 6
    assert not table.resident_mask()[6]
    assert table.translate(target)[0] == table.fallback_frame * 4 + 1

    table.observe(target)
    stats = table.advance_frame()
    assert stats["fault_accesses"] == 1
    assert stats["faulted_pages"] == 1
    assert stats["paged_in"] == 1
    assert stats["evicted"] == 1
    assert table.resident_mask()[6]
    assert table.translate(target)[0] != table.fallback_frame * 4 + 1


def test_hand_checked_lru_eviction():
    """4 pages of 1 line, 2 resident; touch 2, 3, 0 in that order.

    Recency after the frame: page0 newest, then 3, then 2; page1 was
    never touched, so page1 (LRU) and the less-recent toucher page2
    are evicted, keeping {0, 3}.  Page 3 inherits page 1's frame.
    """
    table = PageTable(4, VirtualTextureConfig(1, 0.5))
    assert np.array_equal(table.mapping(), [0, 1, -1, -1])

    table.observe(np.array([2], dtype=np.int64))
    table.observe(np.array([3, 0], dtype=np.int64))
    stats = table.advance_frame()

    assert stats["touched_pages"] == 3
    assert stats["fault_accesses"] == 2
    assert stats["paged_in"] == 1  # only one free frame for {2, 3}
    assert stats["evicted"] == 1
    assert np.array_equal(table.mapping(), [0, -1, -1, 1])


def test_resident_count_is_invariant(layout):
    """|resident| stays exactly num_frames across any trajectory."""
    rng = np.random.default_rng(716)
    table = PageTable(layout.total_lines, VirtualTextureConfig(8, 0.25))
    for _ in range(4):
        table.observe(_random_lines(rng, layout.total_lines, 5000))
        stats = table.advance_frame()
        assert stats["resident_pages"] == table.num_frames
        assert int(table.resident_mask().sum()) == table.num_frames
        mapped = table.mapping()
        frames = mapped[mapped >= 0]
        # Frames are a permutation of 0..num_frames-1: no frame leaks.
        assert np.array_equal(np.sort(frames), np.arange(table.num_frames))


def test_cache_key_changes_with_mapping(layout):
    table = PageTable(layout.total_lines, VirtualTextureConfig(8, 0.25))
    key_cold = table.cache_key()
    # Touch only non-resident pages so the mapping must change.
    non_resident = np.flatnonzero(~table.resident_mask())[:10]
    lines = (non_resident * 8).astype(np.int64)
    table.observe(lines)
    table.advance_frame()
    assert table.cache_key() != key_cold
    assert table.cache_key() == table.cache_key()  # stable between frames


# -- equivalence with the reference page table -----------------------


def _frame_stream(rng, num_pages, page_lines, total_lines):
    """Runs of repeated pages, random offsets, the last partial page."""
    length = int(rng.integers(0, 300))
    pages = np.repeat(
        rng.integers(0, num_pages, size=length), rng.integers(1, 6, size=length)
    )[:length]
    offsets = rng.integers(0, page_lines, size=pages.size)
    return np.minimum(pages * page_lines + offsets, total_lines - 1)


@settings(max_examples=80, deadline=None)
@given(
    page_lines=st.sampled_from([1, 8, 16, 64]),
    num_pages=st.integers(1, 40),
    partial=st.integers(0, 63),
    fraction=st.one_of(
        st.sampled_from([1e-6, 1.0]), st.floats(0.01, 1.0, allow_nan=False)
    ),
    num_frames=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_page_table_matches_reference(
    page_lines, num_pages, partial, fraction, num_frames, seed
):
    """Translation, feedback and paging equal the oracle's, frame by
    frame, under any chunking (empty chunks included)."""
    rng = np.random.default_rng(seed)
    total_lines = max(1, num_pages * page_lines - partial % page_lines)
    config = VirtualTextureConfig(page_lines, fraction)
    table = PageTable(total_lines, config)
    oracle = ReferencePageTable(total_lines, config)
    for _ in range(num_frames):
        lines = _frame_stream(rng, table.num_pages, page_lines, total_lines)
        assert np.array_equal(table.translate(lines), oracle.translate(lines))
        cuts = np.sort(rng.integers(0, lines.size + 1, size=rng.integers(0, 6)))
        edges = np.concatenate(([0], cuts, [lines.size]))
        for a, b in zip(edges, edges[1:]):
            assert np.array_equal(
                table.translate(lines[a:b]), oracle.translate(lines[a:b])
            )
            table.observe(lines[a:b])
        oracle.observe(lines)
        table.advance_frame()
        oracle.advance_frame()
        assert table.history == oracle.history
        assert np.array_equal(table.mapping(), oracle.mapping())
        assert table.cache_key() == oracle.cache_key()
    every_line = np.arange(total_lines, dtype=np.int64)
    assert np.array_equal(table.translate(every_line), oracle.translate(every_line))


def test_line_map_is_rebuilt_by_advance_frame():
    """4 pages of 2 lines, 2 resident; touch page 3, then page 0.

    Page 1 is evicted and page 3 inherits its frame 1, so after the
    frame page 3's lines translate to 2, 3 and page 1's fall back to
    frame 2 (lines 4, 5).  A line map left over from the cold mapping
    would still send page 1 to 2, 3 and page 3 to the fallback.
    """
    table = PageTable(8, VirtualTextureConfig(2, 0.5))
    every_line = np.arange(8, dtype=np.int64)
    assert np.array_equal(table.translate(every_line), [0, 1, 2, 3, 4, 5, 4, 5])

    table.observe(np.array([7, 6, 0], dtype=np.int64))
    table.advance_frame()

    assert np.array_equal(table.mapping(), [0, -1, -1, 1])
    assert np.array_equal(table.translate(every_line), [0, 1, 4, 5, 4, 5, 2, 3])
