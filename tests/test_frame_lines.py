"""One line table per VT frame: filtered once, observed and translated once.

``run_vt_sequence`` filters each frame's fragments once, feeds the
virtual lines to :meth:`PageTable.observe` and translates them into a
frame-sized table in the same pass, before the replays; the parallel
replay and the single-processor baseline both gather from that table.

* **Order independence** — ``observe`` never changes the mapping, so
  observing before the replays cannot change what they see.
* **Old-order equality** — the sequence equals, frame by frame, a
  loop in the order the table replaced: each replay filters and
  translates per chunk (the oracle replay of ``tests/oracles``), and
  the frame is filtered a third time to observe it after both.
* **Guards** — an empty frame gives a ``(0, 8)`` table, and a table
  built from another fragment buffer, or of another row count, is
  refused.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import pipeline
from repro.analysis.batch import distribution_from_spec, machine_config_from_spec
from repro.cache.models import make_cache_model
from repro.cache.stream import replay_fragments
from repro.core.machine import simulate_machine
from repro.core.routing import assemble_routed_work, compute_replay, compute_routing_plan
from repro.distribution import BlockInterleaved
from repro.distribution.single import SingleProcessor
from repro.errors import ConfigurationError
from repro.texture.filtering import TrilinearFilter
from repro.texture.pages import FrameLines, PageTable, VirtualTextureConfig, build_frame_lines
from repro.workloads.vt import require_vt_spec, run_vt_sequence, vt_frames
from tests.oracles.replay import reference_replay

SCALE = 0.0625
MACHINE = {"family": "block", "processors": 4, "size": 16}
CACHE_COUNTERS = (
    "fragments",
    "texel_accesses",
    "line_accesses",
    "misses",
    "compulsory_misses",
    "texels_fetched",
)


@pytest.fixture(scope="module")
def frames():
    return vt_frames(require_vt_spec("vt-quake"), SCALE)


@pytest.fixture(scope="module")
def layout(frames):
    return frames[0].memory_layout()


def _faulting_table(layout):
    table = PageTable(layout.total_lines, VirtualTextureConfig(8, 0.25))
    table.observe(np.random.default_rng(27).integers(0, layout.total_lines, 20000))
    table.advance_frame()
    assert not table.identity
    return table


def _filtered(tex_filter, fragments):
    """The frame filtered fragment by fragment: every run is length 1."""
    return tex_filter.line_addresses(
        fragments.u_half,
        fragments.v_half,
        np.arange(len(fragments)),
        fragments.triangle_level[fragments.triangle],
        fragments.triangle_texture[fragments.triangle],
    )


# -- observe is invisible to translation ------------------------------


@pytest.mark.parametrize("residency", [1.0, 0.25])
def test_observe_changes_neither_translation_nor_key(frames, layout, residency):
    table = PageTable(layout.total_lines, VirtualTextureConfig(8, residency))
    lines = _filtered(TrilinearFilter(layout), frames[0].fragments()).reshape(-1)
    before = table.translate(lines).copy()
    key = table.cache_key()
    table.observe(lines)
    table.observe(lines[::-1])
    assert table.cache_key() == key
    assert np.array_equal(table.translate(lines), before)


# -- the sequence equals the old order --------------------------------


def _old_order_sequence(spec, scenes, residency, chunk_size):
    """``run_vt_sequence`` in the order the frame table replaced."""
    layout = scenes[0].memory_layout()
    tex_filter = TrilinearFilter(layout)
    table = PageTable(layout.total_lines, spec.vt_config(None, residency))
    distribution = distribution_from_spec(MACHINE, scenes[0].height)
    config = machine_config_from_spec(MACHINE, distribution)
    solo = config.with_distribution(SingleProcessor())
    out = []
    for scene in scenes:
        fragments = scene.fragments()
        works = []
        for machine in (config, solo):
            dist = machine.distribution
            plan = compute_routing_plan(
                scene, dist, fragments, dist.owners(fragments.x, fragments.y)
            )
            replay = reference_replay(
                scene,
                dist,
                fragments,
                machine.cache,
                machine.cache_config,
                layout,
                chunk_size,
                translator=table,
            )
            name = make_cache_model(machine.cache, machine.cache_config).name
            works.append(
                assemble_routed_work(
                    plan, replay, scene, dist, name, machine.setup_cycles
                )
            )
        baseline = simulate_machine(works[1], solo.timing).cycles
        result = simulate_machine(works[0], config.timing, baseline_cycles=baseline)
        for start in range(0, len(fragments), chunk_size):
            part = fragments.select(
                np.arange(start, min(len(fragments), start + chunk_size))
            )
            table.observe(_filtered(tex_filter, part).reshape(-1))
        out.append((result, baseline, table.advance_frame()))
    return out


# 5111 splits frame 0 (10 222 fragments) into two whole chunks; 4000
# divides none of the three frames.
@pytest.mark.parametrize("chunk_size", [5111, 4000])
@pytest.mark.parametrize("residency", [1.0, 0.25])
def test_run_vt_sequence_matches_the_old_order(frames, residency, chunk_size):
    spec = require_vt_spec("vt-quake")
    assert len(frames[0].fragments()) % 5111 == 0
    pipeline.reset()
    got = run_vt_sequence(
        spec,
        MACHINE,
        scale=SCALE,
        residency=residency,
        chunk_size=chunk_size,
        scenes=frames,
    )
    want = _old_order_sequence(spec, frames, residency, chunk_size)
    assert len(got.frames) == len(want) == spec.frames
    for frame, (result, baseline, stats) in zip(got.frames, want):
        assert frame.cycles == result.cycles
        assert frame.baseline_cycles == baseline
        assert frame.vt == stats
        for counter in CACHE_COUNTERS:
            assert getattr(frame.result.cache, counter) == getattr(result.cache, counter)
        assert np.array_equal(
            frame.result.cache.texels_by_triangle, result.cache.texels_by_triangle
        )
    faults = sum(frame.vt["fault_accesses"] for frame in got.frames)
    assert (faults == 0) == (residency == 1.0)


# -- the table and its guards -----------------------------------------


@pytest.mark.parametrize("residency", [1.0, 0.25])
def test_frame_table_is_the_translated_filter_output(frames, layout, residency):
    table = PageTable(layout.total_lines, VirtualTextureConfig(8, residency))
    tex_filter = TrilinearFilter(layout)
    fragments = frames[0].fragments()
    frame = build_frame_lines(table, tex_filter, fragments, chunk_size=3000)
    want = table.translate(_filtered(tex_filter, fragments).reshape(-1))
    assert frame.lines.shape == (len(fragments), 8)
    assert frame.lines.dtype == want.dtype
    assert np.array_equal(frame.lines.reshape(-1), want)
    assert frame.cache_key() == table.cache_key()
    assert frame.address_space_lines == table.address_space_lines


def test_observing_pass_feeds_the_whole_frame(frames, layout):
    tex_filter = TrilinearFilter(layout)
    fragments = frames[0].fragments()
    chunked, whole = _faulting_table(layout), _faulting_table(layout)
    build_frame_lines(chunked, tex_filter, fragments, chunk_size=3000, observe=True)
    whole.observe(_filtered(tex_filter, fragments).reshape(-1))
    assert chunked.advance_frame() == whole.advance_frame()
    assert np.array_equal(chunked.mapping(), whole.mapping())


@pytest.mark.parametrize("residency", [1.0, 0.25])
def test_empty_frame_gives_an_empty_table(frames, layout, residency):
    table = PageTable(layout.total_lines, VirtualTextureConfig(8, residency))
    empty = frames[0].fragments().select(np.zeros(0, dtype=np.int64))
    frame = build_frame_lines(
        table, TrilinearFilter(layout), empty, chunk_size=1024, observe=True
    )
    assert frame.lines is not None
    assert frame.lines.shape == (0, 8)
    assert frame.lines_for(empty) is frame.lines


def test_frame_table_replay_matches_the_oracle(frames, layout):
    scene = frames[0]
    fragments = scene.fragments()
    table = _faulting_table(layout)
    frame = build_frame_lines(table, TrilinearFilter(layout), fragments, chunk_size=1000)
    distribution = BlockInterleaved(4, 16)
    owners = distribution.owners(fragments.x, fragments.y)
    got = compute_replay(scene, distribution, fragments, owners, translator=frame)
    want = reference_replay(scene, distribution, fragments, translator=table)
    assert got.cache.misses == want.cache.misses
    assert got.cache.compulsory_misses == want.cache.compulsory_misses
    for mine, theirs in zip(got.texels_per_node_tri, want.texels_per_node_tri):
        assert np.array_equal(mine, theirs)


def test_table_from_another_fragment_buffer_is_refused(frames, layout):
    table = _faulting_table(layout)
    tex_filter = TrilinearFilter(layout)
    frame = build_frame_lines(table, tex_filter, frames[0].fragments(), chunk_size=4096)
    other = frames[1].fragments()
    distribution = BlockInterleaved(4, 16)
    owners = distribution.owners(other.x, other.y)
    with pytest.raises(ConfigurationError, match="another fragment buffer"):
        compute_replay(frames[1], distribution, other, owners, translator=frame)
    # A copy of the right frame is another buffer too.
    copy = frames[0].fragments().select(np.arange(len(frames[0].fragments())))
    with pytest.raises(ConfigurationError):
        frame.lines_for(copy)
    # Refused before the perfect cache skips the replay.
    with pytest.raises(ConfigurationError):
        compute_replay(
            frames[1], distribution, other, owners, "perfect", translator=frame
        )


def test_table_of_another_row_count_is_refused(frames, layout):
    fragments = frames[0].fragments()
    tex_filter = TrilinearFilter(layout)
    frame = build_frame_lines(_faulting_table(layout), tex_filter, fragments, 4096)
    short = dataclasses.replace(frame, lines=frame.lines[:-1])
    assert isinstance(short, FrameLines)
    with pytest.raises(ConfigurationError):
        short.lines_for(fragments)
    with pytest.raises(ConfigurationError, match="rows"):
        replay_fragments(
            fragments, tex_filter, make_cache_model("lru"), lines=frame.lines[:-1]
        )
