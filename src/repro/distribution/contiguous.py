"""Non-interleaved contiguous bands — the ablation contrast case.

The paper's distributions are always interleaved; this class switches
interleaving *off* (each processor gets one contiguous horizontal slab
of the screen) so benchmarks can quantify how much of the load balance
interleaving is actually buying.
"""

from __future__ import annotations

import numpy as np

from repro.distribution.base import Distribution, Pairs, box_cells
from repro.errors import ConfigurationError


class ContiguousBands(Distribution):
    """Split ``screen_height`` scanlines into N equal contiguous bands."""

    def __init__(self, num_processors: int, screen_height: int) -> None:
        super().__init__(num_processors)
        if screen_height < num_processors:
            raise ConfigurationError(
                f"cannot split {screen_height} lines over {num_processors} processors"
            )
        self.screen_height = screen_height

    def owners(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.int32)
        owners = y * self.num_processors // self.screen_height
        return np.clip(owners, 0, self.num_processors - 1)

    def nodes_in_boxes(
        self, x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray
    ) -> Pairs:
        last_line = self.screen_height - 1
        first = np.minimum(y0, last_line) * self.num_processors // self.screen_height
        last = np.minimum(y1, last_line) * self.num_processors // self.screen_height
        box, rank = box_cells(last - first + 1)
        rank += first[box]
        return box, rank

    def describe(self) -> str:
        return f"bands{self.num_processors}"

    def fingerprint(self) -> str:
        # Band boundaries depend on the screen height, which the label
        # omits.
        return (
            f"{type(self).__name__}:{self.num_processors}:"
            f"bands@h{self.screen_height}"
        )
