"""The one-pass finite-FIFO recurrence against the event-kernel oracle.

:func:`repro.core.distributor.run_event_machine` replaced a distributor
process and P node processes on a discrete-event kernel.  The kernel and
those processes live on as :func:`tests.oracles.reference_event_machine`;
these tests hold the recurrence to it exactly on cycles, per-node finish,
head-of-line blocking and the recorder's span and node summaries, and
:func:`repro.core.node.bus_totals` to the oracle's bus totals.  FIFO
high water may sit one entry below the oracle's, and occupancy series
may lose samples in pairs: the oracle orders a put and a get on the
same cycle by event sequence number, while the recurrence always lets
the node take first (the same-cycle rule, pinned by the hand-built
stream below).

Streams are written as lists of ``(triangle, node, pixels, texels)``
tuples, the oracle's format; :func:`tests.oracles.stream_columns` turns
each into the columnar stream the shipped machine reads.  The columnar
stream itself is held to the tuple reference it replaced, and the
machine to building it once per routed work.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import pipeline
from repro.analysis.buffering import buffer_sweep
from repro.core import routing
from repro.core.config import MachineConfig, TimingConfig
from repro.core.distributor import interleave_stream, run_event_machine
from repro.core.geometry_stage import geometry_release_times
from repro.core.machine import simulate_machine
from repro.core.node import bus_totals
from repro.core.routing import build_routed_work
from repro.distribution import BlockInterleaved
from repro.errors import ConfigurationError
from repro.obs.recorder import EventRecorder
from repro.workloads.scenes import build_scene
from tests.oracles import (
    BusModel,
    reference_event_machine,
    reference_interleave_stream,
    stream_columns,
    stream_rows,
)


def run(machine, stream, processors, capacity, setup, ratio, release=None):
    stats = {}
    recorder = EventRecorder()
    cycles, finish = machine(
        stream, processors, capacity, setup, ratio,
        release=release, stats=stats, recorder=recorder,
    )
    return cycles, list(finish), stats, recorder


def assert_matches_oracle(stream, processors, capacity, setup, ratio, release=None):
    cycles, finish, stats, recorder = run(
        run_event_machine, stream_columns(stream), processors, capacity, setup, ratio,
        release,
    )
    want_cycles, want_finish, want, oracle = run(
        reference_event_machine, stream, processors, capacity, setup, ratio, release
    )
    assert cycles == want_cycles
    assert finish == want_finish
    assert stats.get("blocked_cycles") == want.get("blocked_cycles")
    assert stats["blocked_per_node"] == want["blocked_per_node"]
    assert node_bus_totals(stream, processors, ratio) == want["bus_totals"]
    assert recorder.span_summary() == oracle.span_summary()
    assert recorder.node_summary() == oracle.node_summary()
    for high, oracle_high in zip(stats["fifo_high_water"], want["fifo_high_water"]):
        assert oracle_high - 1 <= high <= oracle_high
    assert_occupancy_within_ties(recorder.value_summary(), oracle.value_summary())
    return stats, recorder


def node_bus_totals(stream, processors, ratio):
    """:func:`bus_totals` of each node's texels, in stream order."""
    texels = [
        np.array([row[3] for row in stream if row[1] == node], dtype=np.int64)
        for node in range(processors)
    ]
    return bus_totals(texels, ratio)


def assert_occupancy_within_ties(series, oracle_series):
    """Occupancy samples differ from the oracle's only by same-cycle hand-offs.

    A hand-off skips the store sample and the take sample the oracle
    records for a stored triangle, so a series may lose an even number
    of samples (all of them, if every put was handed off) and its peak
    may sit one below the oracle's.
    """
    assert set(series) <= set(oracle_series)
    for name, oracle in oracle_series.items():
        summary = series.get(name)
        if summary is None:
            continue
        missing = oracle["count"] - summary["count"]
        assert missing >= 0 and missing % 2 == 0, name
        assert summary["min"] == oracle["min"]
        assert oracle["max"] - 1 <= summary["max"] <= oracle["max"], name


@st.composite
def machines(draw):
    processors = draw(st.sampled_from([1, 2, 3, 4, 7, 16]))
    routed = st.lists(
        st.tuples(
            st.integers(0, processors - 1),
            st.integers(0, 60),
            st.one_of(st.just(0), st.integers(0, 200)),
        ),
        max_size=3,
    )
    stream = []
    triangles = draw(st.lists(routed, max_size=60))
    for triangle, entries in enumerate(triangles):
        per_node = {node: (pixels, texels) for node, pixels, texels in entries}
        stream.extend((triangle, node, *per_node[node]) for node in sorted(per_node))
    release = None
    if triangles and draw(st.booleans()):
        engines = draw(st.integers(1, 4))
        release = geometry_release_times(len(triangles), engines, 100 / 3)
    return (
        stream,
        processors,
        draw(st.one_of(st.integers(1, 8), st.integers(1, 1000))),
        draw(st.sampled_from([0, 7, 25])),
        draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, math.inf])),
        release,
    )


@settings(max_examples=150, deadline=None)
@given(machines())
def test_recurrence_matches_event_kernel(machine):
    stream, processors, capacity, setup, ratio, release = machine
    assert_matches_oracle(stream, processors, capacity, setup, ratio, release)


@pytest.mark.parametrize("ratio", [1.5, 3.0])
def test_long_node_streams_sum_bus_cycles_in_stream_order(ratio):
    """Hundreds of transfers per bus at a non-dyadic ratio.

    Each bus's busy cycles are a left-to-right sum, as the oracle's
    ``BusModel`` accumulates them; a pairwise sum of the same cycles
    differs from it in the last bit on streams this long.
    """
    rng = np.random.default_rng(5)
    texels = rng.integers(0, 300, size=600)
    per_node = [texels[node::3] for node in range(3)]
    buses = [BusModel(ratio) for _ in per_node]
    for bus, node_texels in zip(buses, per_node):
        for demanded in node_texels.tolist():
            bus.request(0.0, demanded)
    assert bus_totals(per_node, ratio) == {
        "transfers": sum(bus.transfers for bus in buses),
        "texels": sum(bus.texels_delivered for bus in buses),
        "busy_cycles": sum(bus.busy_cycles for bus in buses),
    }
    pairwise = sum(float(np.sum(np.asarray(t) / ratio)) for t in per_node)
    assert pairwise != bus_totals(per_node, ratio)["busy_cycles"]
    stream = [(tri, tri % 3, 20 + tri % 9, int(texels[tri])) for tri in range(600)]
    assert_matches_oracle(stream, 3, 4, 25, ratio)


@pytest.fixture(scope="module")
def fig8_work():
    """Figure 8's machine at small scale: truc640 on 64P, perfect cache."""
    scene = build_scene("truc640", scale=0.0625)
    return {
        width: build_routed_work(scene, BlockInterleaved(64, width), cache_spec="perfect")
        for width in (4, 16, 64)
    }


@pytest.mark.parametrize("capacity", [1, 5, 20])
@pytest.mark.parametrize("width", [4, 16, 64])
def test_figure8_stream_matches_event_kernel(fig8_work, width, capacity):
    work = fig8_work[width]
    stream = reference_interleave_stream(work.triangles, work.pixels, work.texels)
    assert stream_rows(work.stream()) == stream
    stats, _ = assert_matches_oracle(stream, 64, capacity, 25, 2.0)
    if capacity == 1:
        assert stats["blocked_cycles"] > 0


def test_same_cycle_put_is_handed_to_the_freed_node():
    """A node freeing up at cycle 50 takes the triangle released at 50.

    Triangle 0 runs over [0, 25), triangle 1 waits in the FIFO and runs
    over [25, 50); triangle 2 is released at 50, the cycle the node frees
    up, so it is handed over without being stored.  Only triangle 1 and
    the end-of-stream sentinel (put at 50, taken at 75) touch the FIFO.
    The oracle's distributor event fires first at cycle 50 and stores
    triangle 2 and the sentinel, so its high water is 2.
    """
    stream = [(0, 0, 25, 0), (1, 0, 25, 0), (2, 0, 25, 0)]
    release = np.array([0.0, 0.0, 50.0])
    stats, recorder = assert_matches_oracle(stream, 1, 4, 25, math.inf, release)
    samples = sorted(
        (event["ts"], event["args"]["occupancy"])
        for event in recorder.events
        if event["ph"] == "C"
    )
    assert samples == [(0.0, 1), (25.0, 0), (50.0, 1), (75.0, 0)]
    assert stats["fifo_high_water"] == [1]
    _, _, oracle_stats, _ = run(reference_event_machine, stream, 1, 4, 25, math.inf, release)
    assert oracle_stats["fifo_high_water"] == [2]


def test_blocked_put_samples_the_refilled_fifo():
    """A put blocked on a full FIFO samples it as the oracle's does.

    With one slot and 25-cycle triangles, triangle 1 is stored at 0,
    triangle 2 blocks until the node takes triangle 1 at 25, and the
    end-of-stream sentinel blocks until 50.  Each unblocking take admits
    the waiting put at once, so both of its samples read a full FIFO.
    """
    stream = [(0, 0, 25, 0), (1, 0, 25, 0), (2, 0, 25, 0)]
    stats, recorder = assert_matches_oracle(stream, 1, 1, 25, math.inf)
    assert stats["blocked_cycles"] == 25.0  # the sentinel's wait is not counted
    samples = sorted(
        (event["ts"], event["args"]["occupancy"])
        for event in recorder.events
        if event["ph"] == "C"
    )
    assert samples == [(0.0, 1), (25.0, 1), (25.0, 1), (50.0, 1), (50.0, 1), (75.0, 0)]
    _, _, _, oracle = run(reference_event_machine, stream, 1, 1, 25, math.inf)
    assert recorder.value_summary() == oracle.value_summary()


def test_rejects_empty_fifo():
    with pytest.raises(ConfigurationError):
        run_event_machine(stream_columns([(0, 0, 10, 0)]), 1, 0, 25, 1.0)


@st.composite
def node_work(draw):
    """Per-node work lists: P in {1, 3, 64}, idle nodes, zero loads, no work at all."""
    processors = draw(st.sampled_from([1, 3, 64]))
    count = draw(st.integers(0, 40))
    load = st.one_of(st.just(0), st.integers(0, 500))
    triangles, pixels, texels = [], [], []
    for _ in range(processors):
        ids = sorted(draw(st.sets(st.integers(0, max(count - 1, 0)), max_size=count)))
        triangles.append(np.array(ids, dtype=np.int64))
        pixels.append(np.array([draw(load) for _ in ids], dtype=np.int64))
        texels.append(np.array([draw(load) for _ in ids], dtype=np.int64))
    return triangles, pixels, texels


@settings(max_examples=150, deadline=None)
@given(node_work())
def test_columnar_stream_matches_tuple_reference(work):
    triangles, pixels, texels = work
    stream = interleave_stream(triangles, pixels, texels)
    assert stream_rows(stream) == reference_interleave_stream(triangles, pixels, texels)
    assert len(stream) == sum(map(len, triangles))


def test_buffer_sweep_builds_one_stream_per_width(monkeypatch):
    built = []

    def counting(triangles, pixels, texels):
        built.append(len(triangles))
        return interleave_stream(triangles, pixels, texels)

    monkeypatch.setattr(routing, "interleave_stream", counting)
    pipeline.store().clear()
    scene = build_scene("truc640", scale=0.0625)
    speedups = buffer_sweep(
        scene, "block", (4, 16, 64), (1, 5, 20, 50), num_processors=64, cache="perfect"
    )
    assert len(speedups) == 12
    assert 1 <= len(built) <= 3


def test_reused_work_equals_fresh_work():
    """A work's stream, built by an earlier run, serves any FIFO depth and bus."""
    scene = build_scene("truc640", scale=0.0625)
    distribution = BlockInterleaved(16, 8)
    work = build_routed_work(scene, distribution)
    simulate_machine(work, TimingConfig(fifo_capacity=2))
    assert work.stream() is work.stream()
    config = MachineConfig(distribution, fifo_capacity=7, bus_ratio=1.5)
    reused = simulate_machine(work, config.timing)
    pipeline.store().clear()
    fresh_work = build_routed_work(scene, distribution)
    assert fresh_work is not work
    fresh = simulate_machine(fresh_work, config.timing)
    assert reused.cycles == fresh.cycles
    for series in ("finish", "busy", "stall"):
        assert np.array_equal(getattr(reused.timings, series), getattr(fresh.timings, series))
    assert reused.extras == fresh.extras
    assert reused.extras["distributor_blocked_cycles"] > 0
