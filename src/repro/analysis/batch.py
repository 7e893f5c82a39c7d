"""Machine points from the job vocabulary.

A machine entry is a plain dict — the machine fields of a ``simulate``
or ``vt`` job (:func:`repro.service.jobs.machine_from_payload`)::

    {"family": "sli", "processors": 16, "size": 4,
     "cache": "perfect", "bus_ratio": 2.0, "fifo": 100}

``family`` is ``block``/``sli``/``morton``/``bands``/``single``; the
optional knobs are ``cache`` (lru/perfect/none), ``cache_kb``,
``ways``, ``bus_ratio`` and ``fifo``.  These two factories turn an
entry into the :class:`Distribution` and :class:`MachineConfig` that
:func:`repro.core.machine.simulate_machine` runs.  A campaign of many
points is a list of job payloads, run with
:class:`repro.service.JobDispatcher`.
"""

from __future__ import annotations

from typing import Dict

from repro.cache.config import CacheConfig
from repro.core.config import MachineConfig
from repro.distribution.base import Distribution
from repro.distribution.block import BlockInterleaved
from repro.distribution.contiguous import ContiguousBands
from repro.distribution.morton import MortonInterleaved
from repro.distribution.single import SingleProcessor
from repro.distribution.sli import ScanLineInterleaved
from repro.errors import ConfigurationError


def distribution_from_spec(spec: Dict, screen_height: int) -> Distribution:
    """Build a distribution from one machine entry."""
    family = spec.get("family", "block")
    processors = int(spec.get("processors", 1))
    size = int(spec.get("size", 16))
    if family == "block":
        return BlockInterleaved(processors, size)
    if family == "sli":
        return ScanLineInterleaved(processors, size)
    if family == "morton":
        return MortonInterleaved(processors, size)
    if family == "bands":
        return ContiguousBands(processors, screen_height)
    if family == "single":
        return SingleProcessor()
    raise ConfigurationError(f"unknown distribution family {family!r}")


def machine_config_from_spec(spec: Dict, distribution: Distribution) -> MachineConfig:
    """Build a MachineConfig from one machine entry."""
    cache_config = None
    if "cache_kb" in spec or "ways" in spec:
        cache_config = CacheConfig(
            total_bytes=int(spec.get("cache_kb", 16)) * 1024,
            ways=int(spec.get("ways", 4)),
        )
    return MachineConfig(
        distribution=distribution,
        cache=spec.get("cache", "lru"),
        cache_config=cache_config,
        bus_ratio=float(spec.get("bus_ratio", 1.0)),
        fifo_capacity=int(spec.get("fifo", 10000)),
    )
