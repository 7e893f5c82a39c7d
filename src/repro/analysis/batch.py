"""Machine points from the job vocabulary.

A machine entry is a plain dict — the machine fields of a ``simulate``
or ``vt`` job (:func:`repro.service.jobs.machine_from_payload`)::

    {"family": "sli", "processors": 16, "size": 4,
     "cache": "perfect", "bus_ratio": 2.0, "fifo": 100}

``family`` names a :data:`FAMILIES` entry; the optional knobs are
``cache`` (a :data:`repro.cache.models.CACHE_MODELS` name),
``cache_kb``, ``ways``, ``bus_ratio`` and ``fifo``, with the defaults
of :mod:`repro.core.config`.  These two factories turn an entry into
the :class:`Distribution` and :class:`MachineConfig` that
:func:`repro.core.machine.simulate_machine` runs, for jobs and sweeps
alike.  A campaign of many points is a list of job payloads, run with
:class:`repro.service.JobDispatcher`.
"""

from __future__ import annotations

from typing import Dict

from repro.cache.config import DEFAULT_CACHE, CacheConfig
from repro.core.config import (
    DEFAULT_BUS_RATIO,
    DEFAULT_CACHE_MODEL,
    DEFAULT_FAMILY,
    DEFAULT_FIFO_CAPACITY,
    DEFAULT_PROCESSORS,
    DEFAULT_SIZE,
    MachineConfig,
)
from repro.distribution.base import Distribution
from repro.distribution.block import BlockInterleaved
from repro.distribution.contiguous import ContiguousBands
from repro.distribution.morton import MortonInterleaved
from repro.distribution.single import SingleProcessor
from repro.distribution.sli import ScanLineInterleaved
from repro.errors import ConfigurationError

#: Every distribution family a machine entry can name.
FAMILIES = {
    "block": BlockInterleaved,
    "sli": ScanLineInterleaved,
    "morton": MortonInterleaved,
    "bands": ContiguousBands,
    "single": SingleProcessor,
}


def distribution_from_spec(spec: Dict, screen_height: int) -> Distribution:
    """Build a distribution from one machine entry."""
    family = spec.get("family", DEFAULT_FAMILY)
    if family not in FAMILIES:
        raise ConfigurationError(
            f"unknown distribution family {family!r}; choose from {', '.join(FAMILIES)}"
        )
    kind = FAMILIES[family]
    processors = int(spec.get("processors", DEFAULT_PROCESSORS))
    if kind is SingleProcessor:
        return SingleProcessor()
    if kind is ContiguousBands:
        return ContiguousBands(processors, screen_height)
    return kind(processors, int(spec.get("size", DEFAULT_SIZE)))


def machine_config_from_spec(spec: Dict, distribution: Distribution) -> MachineConfig:
    """Build a MachineConfig from one machine entry."""
    cache_config = None
    if "cache_kb" in spec or "ways" in spec:
        cache_config = CacheConfig(
            total_bytes=int(spec.get("cache_kb", DEFAULT_CACHE.total_bytes // 1024)) * 1024,
            ways=int(spec.get("ways", DEFAULT_CACHE.ways)),
        )
    return MachineConfig(
        distribution=distribution,
        cache=spec.get("cache", DEFAULT_CACHE_MODEL),
        cache_config=cache_config,
        bus_ratio=float(spec.get("bus_ratio", DEFAULT_BUS_RATIO)),
        fifo_capacity=int(spec.get("fifo", DEFAULT_FIFO_CAPACITY)),
    )
