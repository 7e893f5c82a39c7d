"""The one-processor machine every speedup is measured against."""

from __future__ import annotations

import numpy as np

from repro.distribution.base import Distribution, Pairs


class SingleProcessor(Distribution):
    """Everything on processor 0 — the speedup baseline."""

    def __init__(self) -> None:
        super().__init__(1)

    def owners(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.zeros(np.shape(np.asarray(x)), dtype=np.int32)

    def nodes_in_boxes(
        self, x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray
    ) -> Pairs:
        return np.arange(len(x0), dtype=np.int64), np.zeros(len(x0), dtype=np.int64)

    def describe(self) -> str:
        return "single"
