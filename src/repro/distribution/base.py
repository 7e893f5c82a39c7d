"""Distribution interface.

A distribution is a *static* map from screen pixels to processors —
static because, as the paper notes, the scheme and its parameters are
hard-coded in a commodity chip that clips while drawing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ConfigurationError


class Distribution(ABC):
    """Static pixel-to-processor assignment."""

    def __init__(self, num_processors: int) -> None:
        if num_processors < 1:
            raise ConfigurationError(
                f"a machine needs at least one processor, got {num_processors}"
            )
        self.num_processors = num_processors

    @abstractmethod
    def owners(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Processor id owning each pixel ``(x[i], y[i])``, as ``int32``.

        ``int32`` is the dtype of the fragment coordinates, so no
        per-fragment column is widened on the way.
        """

    @abstractmethod
    def nodes_in_box(self, x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
        """Sorted unique processors whose tiles intersect a pixel box.

        The box is inclusive: pixels ``x0..x1`` by ``y0..y1``.  This is
        what the triangle distributor uses for bounding-box routing, so
        it may over-approximate coverage (a processor can receive a
        triangle that contributes no pixel to it — it still pays the
        25-cycle setup, which is precisely the small-triangle overhead).
        """

    @abstractmethod
    def describe(self) -> str:
        """Human-readable label, e.g. ``block16x64``."""

    def fingerprint(self) -> str:
        """Content identity for artifact caching.

        The built-in static schemes are fully determined by their class
        and ``describe()`` string; distributions with extra state (an
        explicit assignment table, say) must override this.
        """
        return f"{type(self).__name__}:{self.num_processors}:{self.describe()}"

    def owner_map(self, width: int, height: int) -> np.ndarray:
        """Full ``(height, width)`` ownership image, for tests and plots."""
        ys, xs = np.mgrid[0:height, 0:width]
        return self.owners(xs.ravel(), ys.ravel()).reshape(height, width)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


def processor_grid(num_processors: int) -> tuple:
    """Near-square factorisation ``(across, down)`` of a processor count.

    Block interleaving tiles the processors as a 2D grid repeated over
    the screen; the grid is chosen as close to square as the count
    allows (64 -> 8x8, 8 -> 4x2, primes degrade to 1D).
    """
    down = int(np.sqrt(num_processors))
    while num_processors % down:
        down -= 1
    return num_processors // down, down
