"""Cache models the machine can be configured with.

Every model answers the only two questions the bandwidth/timing layers
ask: which accesses of a line stream fetch from external memory, and
how many texels each such fetch moves across the bus.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Type

import numpy as np

from repro.cache.config import CacheConfig, DEFAULT_CACHE
from repro.cache.lru import LruCache
from repro.errors import ConfigurationError
from repro.texture.layout import TEXELS_PER_LINE


class TextureCacheModel(ABC):
    """Interface between the cache and the bandwidth accounting."""

    #: Texels one external fetch transfers.
    texels_per_fetch: int
    #: Short label used in reports.
    name: str

    @abstractmethod
    def misses(self, lines: np.ndarray) -> np.ndarray:
        """Boolean per-access fetch mask for a line-address stream."""

    @abstractmethod
    def reset(self) -> None:
        """Forget all cached state (start of a new node stream)."""


class RealCache(TextureCacheModel):
    """A set-associative LRU cache; fetches whole 64-byte lines.

    ``texels_per_fetch`` is an instance attribute so layouts with a
    different texel format (16-bit texels pack 32 per line) can adjust
    the bandwidth accounting.
    """

    texels_per_fetch = TEXELS_PER_LINE

    def __init__(self, config: CacheConfig = DEFAULT_CACHE) -> None:
        self.texels_per_fetch = TEXELS_PER_LINE
        self.config = config
        self.name = f"lru{config.total_bytes // 1024}k"
        self._cache = LruCache(config)

    def misses(self, lines: np.ndarray) -> np.ndarray:
        return self._cache.simulate(lines)

    def reset(self) -> None:
        self._cache.reset()


class PerfectCache(TextureCacheModel):
    """The paper's perfect cache: always hits, even on first touch."""

    texels_per_fetch = TEXELS_PER_LINE
    name = "perfect"

    def misses(self, lines: np.ndarray) -> np.ndarray:
        return np.zeros(len(lines), dtype=bool)

    def reset(self) -> None:  # no state
        pass


class NoCache(TextureCacheModel):
    """A cacheless engine: every texel read is an external fetch.

    The fetch granularity is one texel, which reproduces the paper's
    baseline of 8 texels per pixel.
    """

    texels_per_fetch = 1
    name = "none"

    def misses(self, lines: np.ndarray) -> np.ndarray:
        return np.ones(len(lines), dtype=bool)

    def reset(self) -> None:  # no state
        pass


#: Every cache model a machine can name.
CACHE_MODELS: Dict[str, Type[TextureCacheModel]] = {
    "lru": RealCache,
    "perfect": PerfectCache,
    "none": NoCache,
}


def make_cache_model(name: str, config: Optional[CacheConfig] = None) -> TextureCacheModel:
    """A fresh model of the cache named ``name`` in :data:`CACHE_MODELS`.

    ``config`` is the geometry of an ``"lru"`` cache (default: the
    paper's 16 KB 4-way cache); the other models have none.
    """
    if name not in CACHE_MODELS:
        raise ConfigurationError(
            f"unknown cache model {name!r}; choose from {', '.join(CACHE_MODELS)}"
        )
    if name == "lru":
        return RealCache(config or DEFAULT_CACHE)
    return CACHE_MODELS[name]()
