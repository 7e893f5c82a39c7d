"""Finite-FIFO machine: in-order distributor in front of P node FIFOs.

This is where the triangle-buffer study (Section 8 / Figure 8) happens.
The geometry stage emits triangles in strict OpenGL order; each is
pushed into the FIFO of every node its bounding box touches.  Because
the stream is a single ordered sequence, ONE full FIFO blocks the
distributor — and therefore starves every other node.  That head-of-line
blocking is the "local load imbalance" a big buffer exists to hide.

When a finite-rate geometry stage is configured, each triangle also
carries a release time the distributor must wait for.

The paper ran this model on an event-driven simulator.  Here every put
time and every start time follows from earlier stream entries, so one
in-order pass over the stream computes them all (the recurrence of
:func:`run_event_machine`).  Every wait is applied as ``now + (target -
now)``, the way an event queue advances its clock by a timeout, so
non-dyadic release and bus times come out bit for bit as in the event
kernel the tests keep as the oracle.

The stream is columnar (:class:`DistributorStream`).  A routed work
builds it once, and every run over it, whatever its FIFO depth or bus
ratio, reads the same columns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.node import transfer_cycles
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.obs.recorder import RecorderLike


@dataclass(frozen=True)
class DistributorStream:
    """The distributor's stream as four aligned columns.

    Row ``i`` is one (triangle, node) entry: the triangle id, the node
    it is pushed to, the pixels that node draws of it and the bus texels
    it costs the node.  Rows are in (triangle, node) order.
    """

    triangle: np.ndarray
    node: np.ndarray
    pixels: np.ndarray
    texels: np.ndarray

    def __len__(self) -> int:
        return len(self.triangle)


def interleave_stream(
    triangles: List[np.ndarray],
    pixels: List[np.ndarray],
    texels: List[np.ndarray],
) -> DistributorStream:
    """Merge per-node work lists back into global submission order.

    Produces the distributor's stream, ordered by triangle id and,
    within one triangle, by node id — the order a broadcast
    distribution network would emit.  Each node's list is in submission
    order, so one stable sort of the node-major concatenation by
    triangle id puts every row in place.
    """
    counts = [len(ids) for ids in triangles]
    node = np.repeat(np.arange(len(triangles)), counts)
    triangle = np.concatenate(triangles)
    order = np.argsort(triangle, kind="stable")
    return DistributorStream(
        triangle=triangle[order],
        node=node[order],
        pixels=np.concatenate(pixels)[order],
        texels=np.concatenate(texels)[order],
    )


def run_event_machine(
    stream: DistributorStream,
    num_processors: int,
    fifo_capacity: int,
    setup_cycles: int,
    bus_ratio: float,
    release: Optional[np.ndarray] = None,
    stats: Optional[Dict[str, Any]] = None,
    recorder: Optional["RecorderLike"] = None,
) -> Tuple[float, List[float]]:
    """Simulate the machine with finite FIFOs; returns (cycles, per-node finish).

    One pass over ``stream`` keeps, per node, the time it frees up, the
    time its bus frees up and the start times of the triangles stored in
    its FIFO.  For each entry the distributor first waits for the
    triangle's geometry release; if the node's FIFO is full it blocks
    until the oldest stored triangle starts.  The triangle starts at
    ``max(now, node free)`` and ends once both its ``max(pixels,
    setup_cycles)`` engine cycles and its texel transfer on the node's
    bus are done; transfers serialise on the bus.  After the stream,
    every node takes an end-of-stream sentinel through its FIFO.

    Same-cycle rule: a node that frees up at cycle ``t`` takes its next
    triangle at ``t`` before the distributor delivers at ``t``, so a
    triangle delivered to an idle node with an empty FIFO is handed over
    directly and never stored.

    ``release`` (per-triangle geometry release times) throttles the
    distributor when a finite-rate geometry stage is modelled.
    ``stats`` (optional dict) receives head-of-line accounting:
    ``blocked_cycles``, ``blocked_per_node``, ``fifo_high_water`` and
    ``stall_per_node`` (cycles each engine waited on its bus).
    ``recorder`` (optional event recorder) receives busy/stall spans per
    triangle, the distributor's blocked spans, FIFO occupancy samples
    and one lifetime span per node and for the distributor; simulated
    timing is identical with or without it.
    """
    if fifo_capacity < 1:
        raise ConfigurationError(f"fifo capacity must be >= 1, got {fifo_capacity}")
    if not bus_ratio > 0:
        raise ConfigurationError(f"bus bandwidth must be positive, got {bus_ratio}")
    if stats is None:
        stats = {}
    blocked_per_node = stats.setdefault("blocked_per_node", [0.0] * num_processors)
    # Per entry: engine cycles and bus cycles.
    engine = np.maximum(stream.pixels, setup_cycles)
    transfer = transfer_cycles(stream.texels, bus_ratio)
    free = [0.0] * num_processors
    bus_free = [0.0] * num_processors
    stall = [0.0] * num_processors
    high_water = [0] * num_processors
    stored: List[Deque[float]] = [deque() for _ in range(num_processors)]
    # The release time of each entry's triangle.
    release_at = release[stream.triangle].tolist() if release is not None else None
    node_tracks = [("sim", f"node-{n}") for n in range(num_processors)]
    fifo_tracks = [("sim", f"tri-fifo-{n}") for n in range(num_processors)]
    now = 0.0

    def take_started(node: int, until: float) -> None:
        # The node has taken every stored triangle that starts by ``until``.
        fifo = stored[node]
        while fifo and fifo[0] <= until:
            started = fifo.popleft()
            if recorder is not None:
                recorder.value(fifo_tracks[node], "occupancy", started, len(fifo))

    def put(node: int, start: float) -> None:
        # Deliver at ``now`` a triangle (or the sentinel) the node starts
        # at ``start``; a full FIFO blocks until its oldest one starts.
        nonlocal now
        fifo = stored[node]
        if fifo and fifo[0] <= now:
            take_started(node, now)
        blocked = len(fifo) >= fifo_capacity
        if blocked:
            # The node's take of the oldest triangle admits this one, so
            # that take samples the refilled FIFO, as a blocking put does.
            now = fifo.popleft()
            take_started(node, now)
        if start > now:
            fifo.append(start)
            if len(fifo) > high_water[node]:
                high_water[node] = len(fifo)
            if recorder is not None:
                recorder.value(fifo_tracks[node], "occupancy", now, len(fifo))
        if blocked and recorder is not None:
            recorder.value(fifo_tracks[node], "occupancy", now, len(fifo))

    rows = zip(stream.node.tolist(), engine.tolist(), transfer.tolist())
    for index, (node, cycles, bus_cycles) in enumerate(rows):
        if release_at is not None and now < release_at[index]:
            now = now + (release_at[index] - now)
        fifo = stored[node]
        node_free = free[node]
        if fifo and fifo[0] <= now:
            take_started(node, now)
        if len(fifo) >= fifo_capacity:
            # Full: the distributor blocks until the oldest stored
            # triangle starts, strictly later than ``now``.
            before = now
            put(node, node_free)
            waited = now - before
            stats["blocked_cycles"] = stats.get("blocked_cycles", 0.0) + waited
            blocked_per_node[node] += waited
            if recorder is not None:
                recorder.span(
                    ("sim", "distributor"), "blocked", before, now,
                    args={"node": node, "triangle": int(stream.triangle[index])},
                )
        elif node_free > now:
            # The common put: stored behind a busy node, without a wait.
            fifo.append(node_free)
            if len(fifo) > high_water[node]:
                high_water[node] = len(fifo)
            if recorder is not None:
                recorder.value(fifo_tracks[node], "occupancy", now, len(fifo))
        start = node_free if node_free > now else now
        busy_end = start + cycles
        # The transfer begins once both the triangle and the bus are free.
        data_done = bus_free[node]
        if start > data_done:
            data_done = start
        data_done = data_done + bus_cycles
        bus_free[node] = data_done
        end = busy_end
        if data_done > busy_end:
            stall[node] += data_done - busy_end
            end = data_done
        if recorder is not None:
            # The engine is occupied for max(pixels, setup) cycles; any
            # extra wait for the bus shows up as an explicit stall span.
            track = node_tracks[node]
            recorder.span(
                track, "busy", start, busy_end,
                args={"texels": int(stream.texels[index])},
            )
            if end > busy_end:
                recorder.span(track, "stall", busy_end, end)
        free[node] = start + (end - start)

    for node in range(num_processors):
        put(node, free[node])
        if recorder is not None:
            recorder.span(node_tracks[node], "process", 0.0, max(free[node], now))
    if recorder is not None:
        recorder.span(("sim", "distributor"), "process", 0.0, now)
        for node in range(num_processors):
            take_started(node, float("inf"))

    stats["fifo_high_water"] = high_water
    stats["stall_per_node"] = stall
    return max([now, *free]), free
