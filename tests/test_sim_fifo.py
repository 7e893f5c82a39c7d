"""Tests for the blocking bounded FIFO the finite-FIFO oracle runs on."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from tests.oracles.fifo import BoundedFifo
from tests.oracles.kernel import Simulator


def test_capacity_must_be_positive():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        BoundedFifo(sim, 0)


def test_put_then_get_preserves_order():
    sim = Simulator()
    fifo = BoundedFifo(sim, capacity=10)
    received = []

    def producer():
        for item in "abc":
            yield fifo.put(item)

    def consumer():
        for _ in range(3):
            item = yield fifo.get()
            received.append(item)

    processes = [sim.process(producer()), sim.process(consumer())]
    sim.run_all(processes)
    assert received == ["a", "b", "c"]


def test_full_fifo_blocks_producer_until_consumed():
    sim = Simulator()
    fifo = BoundedFifo(sim, capacity=1)
    put_times = []

    def producer():
        for item in range(3):
            yield fifo.put(item)
            put_times.append(sim.now)

    def consumer():
        for _ in range(3):
            yield fifo.get()
            yield sim.timeout(10)

    processes = [sim.process(producer()), sim.process(consumer())]
    sim.run_all(processes)
    # First put is immediate; each later put waits for a get at t=0,10,...
    assert put_times == [0, 0, 10]


def test_get_on_empty_blocks_until_put():
    sim = Simulator()
    fifo = BoundedFifo(sim, capacity=4)
    got = []

    def consumer():
        item = yield fifo.get()
        got.append((sim.now, item))

    def producer():
        yield sim.timeout(42)
        yield fifo.put("late")

    processes = [sim.process(consumer()), sim.process(producer())]
    sim.run_all(processes)
    assert got == [(42, "late")]


def test_multiple_blocked_getters_served_in_arrival_order():
    sim = Simulator()
    fifo = BoundedFifo(sim, capacity=4)
    served = []

    def consumer(cid, arrive):
        yield sim.timeout(arrive)
        item = yield fifo.get()
        served.append((cid, item))

    def producer():
        yield sim.timeout(10)
        for item in range(3):
            yield fifo.put(item)

    processes = [
        sim.process(consumer("c0", 0)),
        sim.process(consumer("c1", 1)),
        sim.process(consumer("c2", 2)),
        sim.process(producer()),
    ]
    sim.run_all(processes)
    assert served == [("c0", 0), ("c1", 1), ("c2", 2)]


def test_high_water_tracks_peak_occupancy():
    sim = Simulator()
    fifo = BoundedFifo(sim, capacity=8)

    def producer():
        for item in range(5):
            yield fifo.put(item)

    def consumer():
        yield sim.timeout(1)
        for _ in range(5):
            yield fifo.get()

    processes = [sim.process(producer()), sim.process(consumer())]
    sim.run_all(processes)
    assert fifo.high_water == 5
    assert len(fifo) == 0


@settings(max_examples=50, deadline=None)
@given(
    items=st.lists(st.integers(), min_size=1, max_size=40),
    capacity=st.integers(min_value=1, max_value=8),
    consumer_delay=st.integers(min_value=0, max_value=5),
)
def test_property_fifo_delivers_everything_in_order(items, capacity, consumer_delay):
    """Whatever the capacity and consumer pacing, order and content hold."""
    sim = Simulator()
    fifo = BoundedFifo(sim, capacity=capacity)
    received = []

    def producer():
        for item in items:
            yield fifo.put(item)

    def consumer():
        for _ in range(len(items)):
            item = yield fifo.get()
            received.append(item)
            if consumer_delay:
                yield sim.timeout(consumer_delay)

    processes = [sim.process(producer()), sim.process(consumer())]
    sim.run_all(processes)
    assert received == items
    assert fifo.high_water <= capacity
