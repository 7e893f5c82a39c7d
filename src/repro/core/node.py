"""Node timing model.

A node draws its routed triangles strictly in order.  Each triangle
occupies the engine for ``max(setup_cycles, pixels)`` cycles — the
setup engine can start a triangle only every 25 pixels' worth of time,
so a small clipped intersection is setup-bound — and its texture
fetches serialise on the node's private bus.  Prefetching hides all
latency (Igehy), so the only memory effect is bandwidth backlog: a
triangle cannot retire before the bus has delivered its texels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.bus.bus import BusModel

if TYPE_CHECKING:
    from repro.obs.recorder import RecorderLike


@dataclass
class NodeTimingResult:
    """Cycle accounting for one node's full stream (infinite FIFO)."""

    finish: float
    busy_cycles: float
    stall_cycles: float


def drain_node(
    pixels: np.ndarray,
    texels: np.ndarray,
    setup_cycles: int,
    bus_ratio: float,
    arrivals: Optional[np.ndarray] = None,
    recorder: Optional["RecorderLike"] = None,
    node_id: int = 0,
    bus: Optional[BusModel] = None,
) -> NodeTimingResult:
    """Time a node that always has its next triangle available.

    This is the exact behaviour of a node behind an unbounded (or never
    full, never empty) triangle FIFO, so the machine simulator uses it
    as the fast path whenever the configured FIFO can hold the whole
    stream.  It matches the finite-FIFO path cycle for cycle.

    ``arrivals`` (optional, monotone) holds each triangle's earliest
    start time — with a finite-rate geometry stage and unbounded FIFOs
    that is exactly its geometry release time.

    ``recorder`` (optional event recorder) receives per-triangle
    busy/stall spans on the ``("sim", "node-<node_id>")`` track; the
    timing itself is identical with or without it.  ``bus`` lets the
    caller keep the :class:`BusModel` for its transfer accounting.
    """
    if bus is None:
        bus = BusModel(bus_ratio)
    if recorder is None and arrivals is None and not bus.free_at > 0.0:
        return _drain_batch(pixels, texels, setup_cycles, bus)
    track = ("sim", f"node-{node_id}")
    time = 0.0
    busy = 0.0
    stall = 0.0
    compute_list = np.maximum(pixels, setup_cycles).tolist()
    texel_list = texels.tolist()
    arrival_list = arrivals.tolist() if arrivals is not None else None
    for index, (compute, demanded) in enumerate(zip(compute_list, texel_list)):
        if arrival_list is not None and arrival_list[index] > time:
            time = arrival_list[index]
        data_done = bus.request(time, int(demanded))
        end = time + compute
        if recorder is not None:
            recorder.span(track, "busy", time, end, args={"texels": int(demanded)})
        if data_done > end:
            stall += data_done - end
            if recorder is not None:
                recorder.span(track, "stall", end, data_done)
            end = data_done
        busy += compute
        time = end
    return NodeTimingResult(finish=time, busy_cycles=busy, stall_cycles=stall)


def _drain_batch(
    pixels: np.ndarray,
    texels: np.ndarray,
    setup_cycles: int,
    bus: BusModel,
) -> NodeTimingResult:
    """Closed-form drain of a stream with no arrivals and a fresh bus.

    With every triangle immediately available and the bus never busy
    ahead of the engine, the loop invariant ``free_at <= time`` holds
    throughout, so each step reduces to ``time += max(compute,
    transfer)``.  IEEE addition is weakly monotone, which makes
    ``max(time + c, time + t)`` equal to ``time + max(c, t)`` at value
    level, and ``np.cumsum`` is the same sequential left-fold as the
    scalar accumulation — every quantity below is bit-identical to the
    reference loop (the equivalence tests pin this).
    """
    count = len(pixels)
    if count == 0:
        return NodeTimingResult(finish=0.0, busy_cycles=0.0, stall_cycles=0.0)
    compute = np.maximum(pixels, setup_cycles).astype(np.float64)
    demand = np.asarray(texels, dtype=np.float64)
    transfer = np.where(demand == 0.0, 0.0, demand / bus.texels_per_cycle)
    spans = np.maximum(compute, transfer)
    ends = np.cumsum(spans)
    starts = np.concatenate(([0.0], ends[:-1]))
    data_done = starts + transfer
    engine_done = starts + compute
    lag = data_done - engine_done
    stall = float(np.cumsum(np.where(lag > 0.0, lag, 0.0))[-1])
    busy = float(np.cumsum(compute)[-1])
    bus.free_at = float(data_done[-1])
    bus.transfers += count
    bus.texels_delivered += int(np.sum(texels))
    bus.busy_cycles += float(np.cumsum(transfer)[-1])
    return NodeTimingResult(
        finish=float(ends[-1]), busy_cycles=busy, stall_cycles=stall
    )
