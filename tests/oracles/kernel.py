"""Core of the discrete-event kernel: clock, events and processes.

The model is deliberately small.  A :class:`Simulator` owns a priority
queue of ``(time, sequence, event)`` entries.  An :class:`Event` is a
one-shot signal that processes can wait on; triggering it resumes every
waiter at the current simulation time.  A :class:`Process` wraps a Python
generator: each ``yield`` hands the kernel an :class:`Event` (often a
:class:`Timeout`) to wait for, and the generator is resumed with the
event's value once it fires.

Cycle accuracy comes from using integer timestamps (one unit == one
engine clock cycle), although the kernel itself accepts any comparable
numeric time.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional, Tuple

from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.obs.recorder import RecorderLike


class DeadlockError(SimulationError):
    """No event is pending but at least one process is still blocked."""

#: Type of the generators that drive processes.
ProcessGenerator = Generator["Event", Any, Any]


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*, is *triggered* at most once with an
    optional value, and then stays triggered forever.  Callbacks attached
    before the trigger run when the event fires; callbacks attached after
    run immediately.
    """

    __slots__ = ("sim", "_value", "_triggered", "_callbacks")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._value: Any = None
        self._triggered = False
        self._callbacks: List[Callable[["Event"], None]] = []

    @property
    def triggered(self) -> bool:
        """Whether the event already fired."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The value the event fired with (``None`` while pending)."""
        return self._value

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires (or now if it did)."""
        if self._triggered:
            callback(self)
        else:
            self._callbacks.append(callback)

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event immediately with ``value``."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)
        return self


class Timeout(Event):
    """An event that fires ``delay`` time units after it is created."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self.delay = delay
        sim._schedule(delay, self, value)


class Process(Event):
    """A running activity driven by a generator.

    The process is itself an :class:`Event` that fires with the
    generator's return value when the generator finishes, so processes
    can wait on one another by yielding the :class:`Process` object.
    """

    __slots__ = ("name", "_generator", "_born")

    def __init__(
        self,
        sim: "Simulator",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim)
        self.name: str = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._born = sim.now
        # Start the process at the current time via an immediate event.
        bootstrap = Event(sim)
        bootstrap.add_callback(self._resume)
        sim._schedule(0, bootstrap, None)

    def _resume(self, event: Event) -> None:
        # Iterative trampoline: a yielded event that is already
        # triggered (e.g. a put into a non-full FIFO) continues the
        # generator in this same frame instead of recursing — long
        # bursts of immediate operations must not grow the stack.
        value = event.value
        while True:
            try:
                target = self._generator.send(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                recorder = self.sim.recorder
                if recorder is not None:
                    recorder.span(
                        ("sim", self.name), "process", self._born, self.sim.now
                    )
                return
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes must yield Event instances"
                )
            if target.sim is not self.sim:
                raise SimulationError(
                    f"process {self.name!r} yielded an event from another simulator"
                )
            if target.triggered:
                value = target.value
                continue
            target.add_callback(self._resume)
            return


class Simulator:
    """Owns the simulation clock and the pending-event queue.

    ``recorder`` (optional, a :class:`repro.obs.recorder.EventRecorder`)
    makes the kernel emit a lifetime span per completed process; pieces
    built on the kernel (FIFOs, node processes) record richer events
    through the same object.  ``None`` — the default — records nothing
    and keeps the kernel's behaviour and cost unchanged.
    """

    def __init__(self, recorder: Optional["RecorderLike"] = None) -> None:
        self.now: float = 0
        self.recorder: Optional["RecorderLike"] = recorder
        self._queue: List[Tuple[float, int, Event, Any]] = []
        self._sequence = 0

    # -- construction helpers ------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process driven by ``generator``."""
        return Process(self, generator, name)

    # -- kernel internals ----------------------------------------------------

    def _schedule(self, delay: float, event: Event, value: Any) -> None:
        self._sequence += 1
        heapq.heappush(self._queue, (self.now + delay, self._sequence, event, value))

    # -- execution -----------------------------------------------------------

    def step(self) -> None:
        """Fire the single earliest pending event."""
        time, _seq, event, value = heapq.heappop(self._queue)
        if time < self.now:
            raise SimulationError("event scheduled in the past")
        self.now = time
        event.succeed(value)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Returns the final simulation time.
        """
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                self.now = until
                return self.now
            self.step()
        return self.now

    def run_all(self, processes: List[Process]) -> float:
        """Run to completion and check every listed process finished.

        Raises :class:`DeadlockError` if the event queue drained while a
        process was still blocked — the classic symptom of a FIFO cycle.
        """
        self.run()
        stuck = [p.name for p in processes if not p.triggered]
        if stuck:
            raise DeadlockError(f"processes never completed: {', '.join(stuck)}")
        return self.now
