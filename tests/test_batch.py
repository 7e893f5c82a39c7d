"""Tests for the machine-entry factories of ``repro.analysis.batch``."""

import pytest

from repro.analysis.batch import distribution_from_spec, machine_config_from_spec
from repro.distribution import (
    BlockInterleaved,
    ContiguousBands,
    ScanLineInterleaved,
    SingleProcessor,
)
from repro.errors import ConfigurationError


class TestSpecFactories:
    def test_distribution_families(self):
        assert isinstance(
            distribution_from_spec({"family": "block", "processors": 4}, 100),
            BlockInterleaved,
        )
        assert isinstance(
            distribution_from_spec({"family": "sli", "processors": 4, "size": 2}, 100),
            ScanLineInterleaved,
        )
        assert isinstance(
            distribution_from_spec({"family": "bands", "processors": 4}, 100),
            ContiguousBands,
        )
        assert isinstance(
            distribution_from_spec({"family": "single"}, 100), SingleProcessor
        )
        with pytest.raises(ConfigurationError):
            distribution_from_spec({"family": "hex"}, 100)

    def test_machine_config_knobs(self):
        dist = BlockInterleaved(4, 16)
        config = machine_config_from_spec(
            {"cache_kb": 8, "ways": 2, "bus_ratio": 2.0, "fifo": 64},
            dist,
        )
        assert config.cache_config.total_bytes == 8192
        assert config.cache_config.ways == 2
        assert config.bus_ratio == 2.0
        assert config.fifo_capacity == 64

    def test_defaults(self):
        config = machine_config_from_spec({}, BlockInterleaved(2, 16))
        assert config.cache == "lru"
        assert config.cache_config is None
        assert config.fifo_capacity == 10000
