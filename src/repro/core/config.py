"""Machine configuration."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.cache.config import CacheConfig
from repro.distribution.base import Distribution
from repro.errors import ConfigurationError

#: The distribution of a machine point that names no family, processor
#: count or tile size: 16 nodes of interleaved 16x16-pixel blocks.
DEFAULT_FAMILY = "block"
DEFAULT_PROCESSORS = 16
DEFAULT_SIZE = 16
#: The node cache a machine names by default (16 KB 4-way LRU).
DEFAULT_CACHE_MODEL = "lru"
#: Texels per pixel-cycle the texture bus sustains (the paper's 1x bus).
DEFAULT_BUS_RATIO = 1.0
#: The paper's "big enough" triangle buffer (Section 3.1).
DEFAULT_FIFO_CAPACITY = 10000
#: Setup engine rate: one triangle per 25 pixels (Chen et al. figure).
DEFAULT_SETUP_CYCLES = 25


@dataclass(frozen=True)
class TimingConfig:
    """The timing-only part of a machine: what a routed work is timed under.

    Routing and cache replay do not read these four knobs, so one
    :class:`~repro.core.routing.RoutedWork` can be timed under many of
    them (``simulate_machine(work, timing)``).  The fields mean what
    they mean on :class:`MachineConfig`, which validates through here.
    """

    bus_ratio: float = DEFAULT_BUS_RATIO
    fifo_capacity: int = DEFAULT_FIFO_CAPACITY
    geometry_engines: int = 0
    geometry_cycles: float = 100.0

    def __post_init__(self) -> None:
        if not self.bus_ratio > 0:
            raise ConfigurationError(f"bus ratio must be positive, got {self.bus_ratio}")
        if self.fifo_capacity < 1:
            raise ConfigurationError(
                f"fifo capacity must be >= 1, got {self.fifo_capacity}"
            )
        if self.geometry_engines < 0:
            raise ConfigurationError(
                f"geometry engine count must be >= 0, got {self.geometry_engines}"
            )
        if self.geometry_cycles < 0:
            raise ConfigurationError(
                f"geometry cost must be >= 0, got {self.geometry_cycles}"
            )


@dataclass(frozen=True)
class MachineConfig:
    """Everything that defines one simulated machine.

    Attributes
    ----------
    distribution:
        The static image distribution (carries the processor count).
    cache:
        Cache model name (:data:`repro.cache.models.CACHE_MODELS`):
        ``"lru"`` (default, 16 KB 4-way), ``"perfect"`` or ``"none"``.
    cache_config:
        Geometry override for the ``"lru"`` spec.
    bus_ratio:
        Sustained bus bandwidth in texels per pixel-cycle (the paper
        evaluates 1 and 2; ``math.inf`` disables the bandwidth limit,
        as in the Figure-6 locality study).
    fifo_capacity:
        Triangle-buffer entries in front of each node's setup engine.
    setup_cycles:
        Cycles the setup engine occupies per triangle; a triangle whose
        clipped footprint is below this many pixels is setup-bound.
    geometry_engines:
        Geometry processors feeding the machine; 0 (the default) is the
        paper's ideal geometry stage.
    geometry_cycles:
        Per-triangle transform cost of one geometry engine (only used
        when ``geometry_engines > 0``).
    """

    distribution: Distribution
    cache: str = DEFAULT_CACHE_MODEL
    cache_config: Optional[CacheConfig] = None
    bus_ratio: float = DEFAULT_BUS_RATIO
    fifo_capacity: int = DEFAULT_FIFO_CAPACITY
    setup_cycles: int = DEFAULT_SETUP_CYCLES
    geometry_engines: int = 0
    geometry_cycles: float = 100.0

    def __post_init__(self) -> None:
        self.timing  # validates the four timing fields
        if self.setup_cycles < 0:
            raise ConfigurationError(
                f"setup cycles must be >= 0, got {self.setup_cycles}"
            )

    @property
    def timing(self) -> TimingConfig:
        """The four timing-only fields, as :func:`simulate_machine` reads them."""
        return TimingConfig(
            bus_ratio=self.bus_ratio,
            fifo_capacity=self.fifo_capacity,
            geometry_engines=self.geometry_engines,
            geometry_cycles=self.geometry_cycles,
        )

    @property
    def num_processors(self) -> int:
        return self.distribution.num_processors

    def with_distribution(self, distribution: Distribution) -> "MachineConfig":
        """Copy of this config targeting another distribution."""
        return replace(self, distribution=distribution)
