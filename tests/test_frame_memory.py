"""Frame-sized memory: what the routing plan and the owners pass hold.

Every peak of a paper-scale frame holds the fragment buffer and its
owners column.  Beyond those inputs, the routing plan and the owners
pass must hold only chunk-sized temporaries and their own outputs, so
their traced numpy peaks stay below 8 bytes per fragment (one frame-sized
``int64`` array) on a frame several ``PARTITION_CHUNK`` rows long.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import pipeline
from repro.core import routing
from repro.distribution import BlockInterleaved
from repro.raster.fragments import FragmentBuffer
from repro.workloads.scenes import build_scene

#: The chunk the guard runs under: the frame is many chunks long.
CHUNK = 1 << 12


@pytest.fixture(scope="module")
def frame():
    scene = build_scene("truc640", scale=0.125, cache=False)
    fragments = scene.fragments()
    assert len(fragments) > 8 * CHUNK
    return scene, fragments


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(routing, "PARTITION_CHUNK", CHUNK)


def traced_peak(compute):
    """Bytes ``compute()`` held at its peak beyond what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = compute()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before, result


def test_a_fragment_costs_16_bytes(frame):
    """Every frame-sized peak holds the buffer: a widened column shows
    here, not only in a benchmark's peak RSS."""
    _, fragments = frame
    sizes = {name: getattr(fragments, name).itemsize for name in FragmentBuffer.COLUMNS}
    assert sum(sizes.values()) == 16, sizes
    assert fragments.u_half.dtype == fragments.v_half.dtype == np.int16


def test_routing_plan_holds_no_frame_sized_key(frame, small_chunks):
    scene, fragments = frame
    distribution = BlockInterleaved(64, 16)
    owners = routing.frame_owners(distribution, fragments)
    peak, plan = traced_peak(
        lambda: routing.compute_routing_plan(scene, distribution, fragments, owners)
    )
    assert peak < 8 * len(fragments), peak / len(fragments)
    assert plan.node_pixels.sum() == len(fragments)


def test_owners_pass_holds_no_frame_sized_int32_column(frame, small_chunks):
    _, fragments = frame
    distribution = BlockInterleaved(64, 16)
    peak, owners = traced_peak(lambda: routing.frame_owners(distribution, fragments))
    assert peak < 8 * len(fragments), peak / len(fragments)
    assert owners.dtype == np.uint8
    assert np.array_equal(owners, distribution.owners(fragments.x, fragments.y))


def test_pipeline_owners_column_is_uint8_for_64_nodes(frame, monkeypatch):
    scene, _ = frame
    seen = []
    plan = routing.compute_routing_plan

    def spy(scene, distribution, fragments, owners, route_by="bbox"):
        seen.append(owners())
        return plan(scene, distribution, fragments, owners, route_by)

    monkeypatch.setattr(routing, "compute_routing_plan", spy)
    pipeline.configure()
    try:
        routing.build_routed_work(scene, BlockInterleaved(64, 16))
    finally:
        pipeline.configure()
    (owners,) = seen
    assert owners.dtype == np.uint8
