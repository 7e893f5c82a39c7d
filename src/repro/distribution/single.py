"""The one-processor machine every speedup is measured against."""

from __future__ import annotations

import numpy as np

from repro.distribution.base import Distribution


class SingleProcessor(Distribution):
    """Everything on processor 0 — the speedup baseline."""

    def __init__(self) -> None:
        super().__init__(1)

    def owners(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.zeros(np.shape(np.asarray(x)), dtype=np.int32)

    def nodes_in_box(self, x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
        return np.zeros(1, dtype=np.int64)

    def describe(self) -> str:
        return "single"
