"""Tests for the discrete-event kernel the finite-FIFO oracle runs on."""

import pytest

from repro.errors import SimulationError
from tests.oracles.kernel import DeadlockError, Event, Simulator


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []

    def process():
        yield sim.timeout(10)
        fired.append(sim.now)
        yield sim.timeout(5)
        fired.append(sim.now)

    sim.process(process())
    sim.run()
    assert fired == [10, 15]


def test_zero_delay_timeout_runs_at_current_time():
    sim = Simulator()
    times = []

    def process():
        yield sim.timeout(0)
        times.append(sim.now)

    sim.process(process())
    sim.run()
    assert times == [0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_events_fire_in_time_order_with_fifo_ties():
    sim = Simulator()
    order = []

    def make(name, delay):
        def process():
            yield sim.timeout(delay)
            order.append(name)

        return process()

    sim.process(make("b", 5))
    sim.process(make("a", 5))
    sim.process(make("c", 1))
    sim.run()
    # Same-time events fire in scheduling order.
    assert order == ["c", "b", "a"]


def test_event_succeed_delivers_value_to_waiter():
    sim = Simulator()
    event = sim.event()
    got = []

    def waiter():
        value = yield event
        got.append(value)

    def trigger():
        yield sim.timeout(3)
        event.succeed("payload")

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert got == ["payload"]


def test_event_cannot_fire_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_callback_after_trigger_runs_immediately():
    sim = Simulator()
    event = sim.event().succeed(42)
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    assert seen == [42]


def test_process_is_waitable_and_returns_value():
    sim = Simulator()
    results = []

    def child():
        yield sim.timeout(7)
        return "done"

    def parent():
        value = yield sim.process(child())
        results.append((sim.now, value))

    sim.process(parent())
    sim.run()
    assert results == [(7, "done")]


def test_process_rejects_non_event_yield():
    sim = Simulator()

    def bad():
        yield 5

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_process_rejects_foreign_event():
    sim_a, sim_b = Simulator(), Simulator()
    foreign = sim_b.timeout(1)

    def confused():
        yield foreign

    sim_a.process(confused())
    with pytest.raises(SimulationError):
        sim_a.run()


def test_run_until_stops_the_clock():
    sim = Simulator()

    def process():
        yield sim.timeout(100)

    sim.process(process())
    assert sim.run(until=40) == 40
    assert sim.now == 40


def test_run_all_detects_starved_process():
    sim = Simulator()
    never = sim.event()

    def stuck():
        yield never

    process = sim.process(stuck(), name="stuck")
    with pytest.raises(DeadlockError, match="stuck") as info:
        sim.run_all([process])
    assert isinstance(info.value, SimulationError)


def test_many_interleaved_processes_keep_consistent_time():
    sim = Simulator()
    trace = []

    def worker(wid, period):
        for _ in range(3):
            yield sim.timeout(period)
            trace.append((sim.now, wid))

    processes = [sim.process(worker(w, w + 1)) for w in range(5)]
    sim.run_all(processes)
    assert trace == sorted(trace, key=lambda item: item[0])
    assert sim.now == max(3 * (w + 1) for w in range(5))


def test_event_factory_binds_simulator():
    sim = Simulator()
    event = sim.event()
    assert isinstance(event, Event)
    assert event.sim is sim
    assert not event.triggered
