"""Blocking bounded FIFO for the event kernel.

This models the triangle FIFO that sits in front of the texture-mapping
engine (Figure 3 of the paper).  ``put`` blocks the producer when the
buffer is full — which is exactly how a small triangle buffer lets one
busy node stall the whole in-order distribution stream (Section 8).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Optional, Tuple

from repro.errors import ConfigurationError
from tests.oracles.kernel import Event, Simulator

if TYPE_CHECKING:
    from repro.obs.recorder import RecorderLike


class BoundedFifo:
    """A FIFO with ``capacity`` slots and blocking put/get events.

    ``put(item)`` and ``get()`` each return an :class:`Event` to yield on;
    the ``get`` event fires with the item.  Waiters are served in arrival
    order, preserving the strict OpenGL command order the paper's
    sort-middle machine must retain.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: int,
        name: str = "fifo",
        recorder: Optional["RecorderLike"] = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"fifo capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        #: Optional event recorder; when set, every occupancy change is
        #: sampled onto the ``("sim", name)`` counter track (the FIFO
        #: occupancy histograms in trace summaries come from this).
        self.recorder: Optional["RecorderLike"] = recorder
        self._items: Deque[Any] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()
        self._getters: Deque[Event] = deque()
        #: Peak occupancy observed, for instrumentation.
        self.high_water = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        """Whether a put would block right now."""
        return len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Enqueue ``item``; the returned event fires once it is stored."""
        done = Event(self.sim)
        if self._getters and not self._items:
            # Hand the item straight to the oldest blocked consumer.
            self._getters.popleft().succeed(item)
            done.succeed()
        elif not self.full:
            self._store(item)
            done.succeed()
        else:
            self._putters.append((done, item))
        return done

    def get(self) -> Event:
        """Dequeue one item; the returned event fires with the item."""
        if self._items:
            item = self._items.popleft()
            self._admit_blocked_putter()
            if self.recorder is not None:
                self._sample()
            return Event(self.sim).succeed(item)
        done = Event(self.sim)
        self._getters.append(done)
        return done

    def _sample(self) -> None:
        recorder = self.recorder
        if recorder is None:
            return
        recorder.value(
            ("sim", self.name), "occupancy", self.sim.now, len(self._items)
        )

    def _store(self, item: Any) -> None:
        self._items.append(item)
        if len(self._items) > self.high_water:
            self.high_water = len(self._items)
        if self.recorder is not None:
            self._sample()

    def _admit_blocked_putter(self) -> None:
        if self._putters and not self.full:
            done, item = self._putters.popleft()
            self._store(item)
            done.succeed()
