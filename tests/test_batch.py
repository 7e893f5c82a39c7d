"""Tests for the machine-entry factories of ``repro.analysis.batch``."""

import pytest

from repro.analysis.batch import FAMILIES, distribution_from_spec, machine_config_from_spec
from repro.cache.models import CACHE_MODELS, make_cache_model
from repro.core.config import MachineConfig
from repro.distribution import (
    BlockInterleaved,
    ContiguousBands,
    ScanLineInterleaved,
    SingleProcessor,
)
from repro.errors import ConfigurationError
from repro.service.jobs import machine_from_payload, spec_from_payload

#: Names a machine entry might try: every table key, plus near misses.
CANDIDATE_NAMES = sorted(
    set(FAMILIES) | set(CACHE_MODELS) | {"", "hex", "LRU", "tiles", "assigned", "lru16k"}
)


def _accepts(build, name) -> bool:
    try:
        build(name)
    except ConfigurationError:
        return False
    return True


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

    def test_empty_entry_is_the_16_processor_machine(self):
        distribution = distribution_from_spec({}, 100)
        assert isinstance(distribution, BlockInterleaved)
        assert distribution.num_processors == 16
        assert distribution.width == 16


@pytest.mark.parametrize(
    "field, table, build",
    [
        ("family", FAMILIES, lambda name: distribution_from_spec({"family": name}, 100)),
        ("cache", CACHE_MODELS, make_cache_model),
    ],
)
def test_jobs_accept_exactly_what_the_factories_build(field, table, build):
    built = {name for name in CANDIDATE_NAMES if _accepts(build, name)}
    accepted = {
        name
        for name in CANDIDATE_NAMES
        if _accepts(lambda value: machine_from_payload({field: value}), name)
    }
    assert accepted == built == set(table)


def test_job_defaults_are_the_machine_defaults():
    job = machine_from_payload({})
    distribution = distribution_from_spec({}, 100)
    config = machine_config_from_spec({}, distribution)
    assert config == MachineConfig(distribution=distribution)
    assert machine_config_from_spec(job, distribution) == config
    assert distribution_from_spec(job, 100).describe() == distribution.describe()
    # A job that sets the cache geometry keys the defaults it leaves out.
    key = spec_from_payload({"scene": "quake", "ways": 2}).result_key()
    assert "/cache=lru#16kb2w/" in key
