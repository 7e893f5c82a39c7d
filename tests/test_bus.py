"""Tests for the event-kernel oracle's bandwidth-limited bus.

:class:`tests.oracles.bus.BusModel` is the per-node bus the oracle's
node processes queue their transfers on; the shipped machine's bus
arithmetic is held to it in ``tests/test_distributor.py``.
"""

import math

import pytest

from repro.errors import ConfigurationError
from tests.oracles.bus import INFINITE_BANDWIDTH, BusModel


def test_rejects_non_positive_bandwidth():
    with pytest.raises(ConfigurationError):
        BusModel(0)
    with pytest.raises(ConfigurationError):
        BusModel(-1)


def test_transfer_cycles_scale_with_bandwidth():
    assert BusModel(1.0).transfer_cycles(16) == 16
    assert BusModel(2.0).transfer_cycles(16) == 8
    assert BusModel(2.0).transfer_cycles(0) == 0


def test_infinite_bandwidth_is_free():
    bus = BusModel(INFINITE_BANDWIDTH)
    assert bus.transfer_cycles(10**9) == 0
    assert bus.request(5, 10**9) == 5


def test_requests_serialise():
    bus = BusModel(1.0)
    assert bus.request(0, 16) == 16
    # Issued at t=4 but the bus is busy until 16.
    assert bus.request(4, 16) == 32


def test_idle_gap_is_not_reclaimed():
    bus = BusModel(1.0)
    bus.request(0, 8)  # busy until 8
    # Next request at t=100: starts at 100, not at 8.
    assert bus.request(100, 8) == 108


def test_reset_clears_backlog():
    bus = BusModel(1.0)
    bus.request(0, 100)
    bus.reset()
    assert bus.request(0, 8) == 8


def test_burst_backlog_accumulates():
    """Many small transfers back the bus up past their issue times.

    This is the paper's burst-saturation remark: average demand below
    the bus rate can still stall when misses cluster.
    """
    bus = BusModel(2.0)
    finish = 0.0
    for start in range(10):
        finish = bus.request(start, 16)
    assert finish == pytest.approx(80.0)
    assert math.isinf(INFINITE_BANDWIDTH)
