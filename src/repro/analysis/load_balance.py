"""Load-balance analysis (Figure 5, top row).

Measures the work distribution over processors assuming a perfect
texture cache, exactly as Section 5 of the paper does: the work of a
node is the sum over its routed triangles of ``max(25, pixels)``, and
the imbalance is the percent difference between the busiest and the
average processor.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from repro.analysis.batch import distribution_from_spec
from repro.core.config import DEFAULT_SETUP_CYCLES
from repro.core.routing import build_routed_work
from repro.distribution.base import Distribution
from repro.geometry.scene import Scene


def work_distribution(
    scene: Scene,
    distribution: Distribution,
    setup_cycles: int = DEFAULT_SETUP_CYCLES,
) -> np.ndarray:
    """Per-node work (cycles, perfect cache) under a distribution."""
    work = build_routed_work(
        scene, distribution, cache_spec="perfect", setup_cycles=setup_cycles
    )
    return work.node_work


def imbalance_percent(
    scene: Scene,
    distribution: Distribution,
    setup_cycles: int = DEFAULT_SETUP_CYCLES,
) -> float:
    """Percent extra work of the busiest node over the average node."""
    node_work = work_distribution(scene, distribution, setup_cycles)
    average = node_work.mean()
    if average == 0:
        return 0.0
    return float((node_work.max() / average - 1.0) * 100.0)


def imbalance_sweep(
    scene: Scene,
    family: str,
    sizes: Iterable[int],
    num_processors: int,
    setup_cycles: int = DEFAULT_SETUP_CYCLES,
) -> Dict[int, float]:
    """Imbalance for each tile size of a family — one Figure-5 bar group."""
    return {
        size: imbalance_percent(
            scene,
            distribution_from_spec(
                {"family": family, "processors": num_processors, "size": size},
                scene.height,
            ),
            setup_cycles,
        )
        for size in sizes
    }
