"""Distribution interface.

A distribution is a *static* map from screen pixels to processors —
static because, as the paper notes, the scheme and its parameters are
hard-coded in a commodity chip that clips while drawing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError

#: ``(box, node)`` index pairs, as two aligned ``int64`` arrays.
Pairs = Tuple[np.ndarray, np.ndarray]


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
    def nodes_in_boxes(
        self, x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray
    ) -> Pairs:
        """Processors whose tiles intersect each pixel box, as pairs.

        Box ``i`` is inclusive: pixels ``x0[i]..x1[i]`` by
        ``y0[i]..y1[i]``.  Returns ``(box, node)`` ``int64`` arrays of
        unique pairs sorted by box, then node.  This is what the
        triangle distributor uses for bounding-box routing, so it may
        over-approximate coverage (a processor can receive a triangle
        that contributes no pixel to it — it still pays the 25-cycle
        setup, which is precisely the small-triangle overhead).
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


def box_cells(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(box, rank)`` of every cell when box ``i`` holds ``counts[i]`` cells.

    Box ids are ascending; ranks run ``0..counts[i] - 1`` within a box.
    Negative counts (inverted boxes) hold no cell.
    """
    counts = np.maximum(counts, 0)
    box = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    first = np.cumsum(counts) - counts
    rank = np.arange(len(box), dtype=np.int64) - first[box]
    return box, rank


def unique_pairs(box: np.ndarray, node: np.ndarray, num_processors: int) -> Pairs:
    """Unique ``(box, node)`` pairs sorted by box, then node.

    The cells arrive sorted by box, so the stable (merge-based) sort of
    the combined key only merges short runs; ``np.unique`` would hash.
    """
    key = np.sort(box * num_processors + node, kind="stable")
    fresh = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    key = key[fresh]
    return np.divmod(key, num_processors)
