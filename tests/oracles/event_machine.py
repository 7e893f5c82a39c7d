"""Reference finite-FIFO machine: the event kernel's generator processes.

The shipped :func:`repro.core.distributor.run_event_machine` computes
the finite-FIFO machine in one in-order pass.  This is the event-driven
model it was derived from: a distributor process and one process per
node, exchanging triangles through blocking
:class:`~tests.oracles.fifo.BoundedFifo` queues on the
:class:`~tests.oracles.kernel.Simulator`.  The module text below is the
shipped model as it stood, apart from its imports, the entry point's
name and :func:`triangle_service_time`, which moved here from
:mod:`repro.core.node` because only the node process used it.

Event-driven machine: in-order distributor plus node processes.

This is where the triangle-buffer study (Section 8 / Figure 8) happens.
The geometry stage emits triangles in strict OpenGL order; each is
pushed into the FIFO of every node its bounding box touches.  Because
the stream is a single ordered sequence, ONE full FIFO blocks the
distributor — and therefore starves every other node.  That head-of-line
blocking is the "local load imbalance" a big buffer exists to hide.

When a finite-rate geometry stage is configured, each triangle also
carries a release time the distributor must wait for.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from tests.oracles.bus import BusModel
from tests.oracles.fifo import BoundedFifo
from tests.oracles.kernel import ProcessGenerator, Simulator
from tests.oracles.stream import StreamEntry

if TYPE_CHECKING:
    from repro.obs.recorder import RecorderLike

#: FIFO sentinel: end of the triangle stream.
_END = None


def triangle_service_time(
    start: float,
    pixels: int,
    texels: int,
    setup_cycles: int,
    bus: BusModel,
) -> float:
    """Completion time of one triangle started at ``start``.

    Shared by the event-driven node process so that both timing paths
    apply the identical rule.
    """
    data_done = bus.request(start, texels)
    return max(start + max(pixels, setup_cycles), data_done)


def _distributor_process(
    sim: Simulator,
    fifos: List[BoundedFifo],
    stream: Sequence[StreamEntry],
    release: Optional[np.ndarray],
    stats: Dict[str, Any],
) -> ProcessGenerator:
    """Generator feeding work items in strict submission order.

    ``stats`` collects the head-of-line accounting: cycles the
    distributor spent blocked on a full FIFO (``blocked_cycles``) and
    which node blocked it most (``blocked_per_node``).
    """
    blocked_per_node = stats.setdefault(
        "blocked_per_node", [0.0] * len(fifos)
    )
    recorder = sim.recorder
    for triangle, node, pixels, texels in stream:
        if release is not None and sim.now < release[triangle]:
            yield sim.timeout(release[triangle] - sim.now)
        before = sim.now
        yield fifos[node].put((pixels, texels))
        waited = sim.now - before
        if waited > 0:
            stats["blocked_cycles"] = stats.get("blocked_cycles", 0.0) + waited
            blocked_per_node[node] += waited
            if recorder is not None:
                recorder.span(
                    ("sim", "distributor"), "blocked", before, sim.now,
                    args={"node": node, "triangle": triangle},
                )
    for fifo in fifos:
        yield fifo.put(_END)


def _node_process(
    sim: Simulator,
    fifo: BoundedFifo,
    setup_cycles: int,
    bus: BusModel,
    finish_out: List[float],
    node_id: int,
) -> ProcessGenerator:
    """Generator draining one node's FIFO until the end sentinel."""
    recorder = sim.recorder
    track = ("sim", f"node-{node_id}")
    while True:
        item = yield fifo.get()
        if item is _END:
            break
        pixels, texels = item
        start = sim.now
        end = triangle_service_time(start, pixels, texels, setup_cycles, bus)
        if recorder is not None:
            # The engine is occupied for max(pixels, setup) cycles; any
            # extra wait for the bus shows up as an explicit stall span.
            busy_end = start + max(pixels, setup_cycles)
            recorder.span(track, "busy", start, busy_end, args={"texels": texels})
            if end > busy_end:
                recorder.span(track, "stall", busy_end, end)
        if end > sim.now:
            yield sim.timeout(end - sim.now)
        finish_out[node_id] = sim.now


def reference_event_machine(
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

    ``release`` (per-triangle geometry release times) throttles the
    distributor when a finite-rate geometry stage is modelled.
    ``stats`` (optional dict) receives head-of-line accounting:
    ``blocked_cycles``, ``blocked_per_node``, ``fifo_high_water`` and
    aggregate ``bus_totals``.  ``recorder`` (optional event recorder)
    is threaded into the kernel, the FIFOs and the node processes;
    simulated timing is identical with or without it.
    """
    sim = Simulator(recorder=recorder)
    fifos = [
        BoundedFifo(sim, fifo_capacity, name=f"tri-fifo-{n}", recorder=recorder)
        for n in range(num_processors)
    ]
    buses = [BusModel(bus_ratio) for _ in range(num_processors)]
    finish = [0.0] * num_processors
    processes = [
        sim.process(
            _node_process(sim, fifos[n], setup_cycles, buses[n], finish, n),
            name=f"node-{n}",
        )
        for n in range(num_processors)
    ]
    if stats is None:
        stats = {}
    processes.append(
        sim.process(
            _distributor_process(sim, fifos, stream, release, stats),
            name="distributor",
        )
    )
    total = sim.run_all(processes)
    stats["fifo_high_water"] = [fifo.high_water for fifo in fifos]
    stats["bus_totals"] = {
        "transfers": sum(bus.transfers for bus in buses),
        "texels": sum(bus.texels_delivered for bus in buses),
        "busy_cycles": sum(bus.busy_cycles for bus in buses),
    }
    return total, finish
