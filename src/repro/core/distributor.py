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
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bus.bus import BusModel
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.obs.recorder import RecorderLike

#: Stream entry: (triangle id, node, pixels, texels).
StreamEntry = Tuple[int, int, int, int]


def interleave_stream(
    triangles: List[np.ndarray],
    pixels: List[np.ndarray],
    texels: List[np.ndarray],
) -> List[StreamEntry]:
    """Merge per-node work lists back into global submission order.

    Produces the distributor's stream of ``(triangle, node, pixels,
    texels)`` entries, ordered by triangle id and, within one triangle,
    by node id — the order a broadcast distribution network would emit.
    """
    entries: List[StreamEntry] = []
    for node, ids in enumerate(triangles):
        px = pixels[node]
        tx = texels[node]
        for slot, tri in enumerate(ids.tolist()):
            entries.append((tri, node, int(px[slot]), int(tx[slot])))
    entries.sort()
    return entries


def run_event_machine(
    stream: Sequence[StreamEntry],
    num_processors: int,
    fifo_capacity: int,
    setup_cycles: int,
    bus_ratio: float,
    release: Optional[np.ndarray] = None,
    stats: Optional[Dict[str, Any]] = None,
    recorder: Optional["RecorderLike"] = None,
) -> Tuple[float, List[float]]:
    """Simulate the machine with finite FIFOs; returns (cycles, per-node finish).

    One pass over ``stream`` keeps, per node, its bus, the time it frees
    up and the start times of the triangles stored in its FIFO.  For
    each entry the distributor first waits for the triangle's geometry
    release; if the node's FIFO is full it blocks until the oldest
    stored triangle starts.  The triangle starts at ``max(now, node
    free)`` and ends once both its ``max(pixels, setup_cycles)`` engine
    cycles and its texel transfer on the node's bus are done.  After the
    stream, every node takes an end-of-stream sentinel through its FIFO.

    Same-cycle rule: a node that frees up at cycle ``t`` takes its next
    triangle at ``t`` before the distributor delivers at ``t``, so a
    triangle delivered to an idle node with an empty FIFO is handed over
    directly and never stored.

    ``release`` (per-triangle geometry release times) throttles the
    distributor when a finite-rate geometry stage is modelled.
    ``stats`` (optional dict) receives head-of-line accounting:
    ``blocked_cycles``, ``blocked_per_node``, ``fifo_high_water``,
    ``stall_per_node`` (cycles each engine waited on its bus) and
    aggregate ``bus_totals``.  ``recorder`` (optional event recorder)
    receives busy/stall spans per triangle, the distributor's blocked
    spans, FIFO occupancy samples and one lifetime span per node and
    for the distributor; simulated timing is identical with or without
    it.
    """
    if fifo_capacity < 1:
        raise ConfigurationError(f"fifo capacity must be >= 1, got {fifo_capacity}")
    if stats is None:
        stats = {}
    blocked_per_node = stats.setdefault("blocked_per_node", [0.0] * num_processors)
    buses = [BusModel(bus_ratio) for _ in range(num_processors)]
    free = [0.0] * num_processors
    stall = [0.0] * num_processors
    high_water = [0] * num_processors
    stored: List[Deque[float]] = [deque() for _ in range(num_processors)]
    release_at = release.tolist() if release is not None else None
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

    for triangle, node, pixels, texels in stream:
        if release_at is not None and now < release_at[triangle]:
            now = now + (release_at[triangle] - now)
        before = now
        put(node, free[node])
        waited = now - before
        if waited > 0:
            stats["blocked_cycles"] = stats.get("blocked_cycles", 0.0) + waited
            blocked_per_node[node] += waited
            if recorder is not None:
                recorder.span(
                    ("sim", "distributor"), "blocked", before, now,
                    args={"node": node, "triangle": triangle},
                )
        start = free[node] if free[node] > now else now
        busy_end = start + (pixels if pixels > setup_cycles else setup_cycles)
        data_done = buses[node].request(start, texels)
        end = busy_end
        if data_done > busy_end:
            stall[node] += data_done - busy_end
            end = data_done
        if recorder is not None:
            # The engine is occupied for max(pixels, setup) cycles; any
            # extra wait for the bus shows up as an explicit stall span.
            track = node_tracks[node]
            recorder.span(track, "busy", start, busy_end, args={"texels": texels})
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
    stats["bus_totals"] = {
        "transfers": sum(bus.transfers for bus in buses),
        "texels": sum(bus.texels_delivered for bus in buses),
        "busy_cycles": sum(bus.busy_cycles for bus in buses),
    }
    return max([now, *free]), free
