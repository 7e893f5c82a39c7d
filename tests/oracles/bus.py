"""Reference texture bus: the event-kernel oracle's per-node bus.

:mod:`repro.core.node` computes bus transfers and totals from columns;
this object form, one per node, queues each transfer behind the last
one and keeps lifetime totals as it goes.  The module text below is the
shipped bus as it stood, apart from this paragraph and its ``totals``
method and publishing helper: the machine's ``bus.*`` totals now come
from :func:`repro.core.node.bus_totals`.

Following Section 3.1 of the paper, the bus is characterised by a
single figure: the maximum *texel-to-fragment ratio* it can sustain —
texels delivered per pixel-drawing cycle.  (Latency never appears
because prefetching hides it completely; only sustained bandwidth can
stall the engine.)  The paper evaluates ratios of 1 and 2; a ratio of 1
corresponds to a 400 Mpixel/s engine on a 64-bit 200 MHz SDRAM bus.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

#: Sentinel ratio for the infinite-bandwidth bus used by the locality
#: study (Figure 6), where only miss counts matter.
INFINITE_BANDWIDTH = math.inf


class BusModel:
    """Tracks the busy horizon of one node's private texture bus."""

    def __init__(self, texels_per_cycle: float) -> None:
        if texels_per_cycle <= 0:
            raise ConfigurationError(
                f"bus bandwidth must be positive, got {texels_per_cycle}"
            )
        self.texels_per_cycle = texels_per_cycle
        self.free_at: float = 0.0
        #: Lifetime accounting (instrumentation; never affects timing).
        self.transfers = 0
        self.texels_delivered = 0
        self.busy_cycles: float = 0.0

    def reset(self) -> None:
        self.free_at = 0.0
        self.transfers = 0
        self.texels_delivered = 0
        self.busy_cycles = 0.0

    def transfer_cycles(self, texels: int) -> float:
        """Cycles needed to move ``texels`` across the bus."""
        if texels == 0 or math.isinf(self.texels_per_cycle):
            return 0.0
        return texels / self.texels_per_cycle

    def request(self, start: float, texels: int) -> float:
        """Queue a transfer issued at ``start``; returns completion time.

        Transfers serialise on the bus, so a burst of misses backs the
        bus up — the mechanism behind the paper's remark that average
        bandwidth under the bus limit can still saturate it in bursts.
        """
        begin = max(self.free_at, start)
        cycles = self.transfer_cycles(texels)
        self.free_at = begin + cycles
        self.transfers += 1
        self.texels_delivered += texels
        self.busy_cycles += cycles
        return self.free_at
