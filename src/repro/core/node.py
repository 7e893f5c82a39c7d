"""Node timing model.

A node draws its routed triangles strictly in order.  Each triangle
occupies the engine for ``max(setup_cycles, pixels)`` cycles — the
setup engine can start a triangle only every 25 pixels' worth of time,
so a small clipped intersection is setup-bound — and its texture
fetches serialise on the node's private bus, which sustains
``bus_ratio`` texels per pixel-cycle (Section 3.1).  Prefetching hides
all latency (Igehy), so the only memory effect is bandwidth backlog: a
triangle cannot retire before the bus has delivered its texels.

This module holds the closed form of that rule for a node that always
has its next triangle (:func:`drain_node`) and the machine's bus totals
(:func:`bus_totals`); the finite-FIFO recurrence in
:mod:`repro.core.distributor` applies the same rule entry by entry.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError


def transfer_cycles(texels: np.ndarray, bus_ratio: float) -> np.ndarray:
    """Bus cycles of each transfer: 0 for no texels or an infinite bus."""
    return np.where(texels == 0, 0.0, texels / bus_ratio)


def drain_node(
    pixels: np.ndarray,
    texels: np.ndarray,
    setup_cycles: int,
    bus_ratio: float,
) -> Tuple[float, float]:
    """``(finish, stall)`` of a node that always has its next triangle.

    This is the exact behaviour of a node behind an unbounded (or never
    full, never empty) triangle FIFO with an ideal geometry stage.  The
    bus starts idle and never runs ahead of the engine, so each
    triangle's step reduces to ``time += max(compute, transfer)``, and
    ``stall`` sums ``max(0, data_done - engine_end)`` per triangle.  IEEE
    addition is weakly monotone, which makes ``max(time + c, time + t)``
    equal to ``time + max(c, t)``, and ``np.cumsum`` is the sequential
    left fold of the per-triangle walk, so the result is bit-identical
    to :func:`repro.core.distributor.run_event_machine` on a FIFO that
    never fills (the equivalence tests pin this).
    """
    if not bus_ratio > 0:
        raise ConfigurationError(f"bus bandwidth must be positive, got {bus_ratio}")
    if len(pixels) == 0:
        return 0.0, 0.0
    compute = np.maximum(pixels, setup_cycles).astype(np.float64)
    transfer = transfer_cycles(texels, bus_ratio)
    ends = np.cumsum(np.maximum(compute, transfer))
    starts = np.concatenate(([0.0], ends[:-1]))
    lag = (starts + transfer) - (starts + compute)
    stall = float(np.cumsum(np.where(lag > 0.0, lag, 0.0))[-1])
    return float(ends[-1]), stall


def bus_totals(texels: List[np.ndarray], bus_ratio: float) -> Dict[str, float]:
    """Lifetime accounting of the node buses, from per-node texel lists.

    ``transfers`` counts one transfer per routed triangle and ``texels``
    the texels moved.  ``busy_cycles`` sums each bus's transfer cycles
    left to right in stream order (``np.cumsum`` is that sequential
    fold; ``np.sum`` sums pairwise and can differ in the last bit at a
    non-dyadic ratio), and the buses in node order.  Timing never reads
    these totals, so they are the same whichever timing path runs.
    """
    busy = 0.0
    for node_texels in texels:
        if len(node_texels):
            busy += float(np.cumsum(transfer_cycles(node_texels, bus_ratio))[-1])
    return {
        "transfers": sum(map(len, texels)),
        "texels": sum(int(node_texels.sum()) for node_texels in texels),
        "busy_cycles": busy,
    }
