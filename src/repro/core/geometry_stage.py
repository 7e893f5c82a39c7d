"""Finite-rate geometry stage.

Factor 1 of the paper's performance discussion (Section 2.3) is "the
communication cost induced by triangle distribution between the
geometry stage and the texture mapping stage"; the paper sets it aside
("we do not address this issue") by assuming ideal geometry.  This
module removes that idealisation so a user can size a *balanced*
machine: G geometry engines transform triangles round-robin at a fixed
per-triangle cost and release them, in strict submission order, to the
distributor.

With the stage enabled, a triangle cannot enter any node FIFO before
the geometry stage has produced it — if the texture-mapping side is
fast enough, the machine becomes geometry-bound, which is exactly the
regime the paper's scaling results silently assume away.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def geometry_release_times(
    num_triangles: int,
    num_geometry_engines: int,
    cycles_per_triangle: float,
) -> np.ndarray:
    """Cycle at which each triangle leaves the geometry stage.

    Triangles are dealt round-robin over the engines (the sort-middle
    front end of Figure 4); each engine is a simple pipeline processing
    one triangle per ``cycles_per_triangle``.  Release preserves
    submission order: the in-order distributor cannot run ahead of the
    slowest predecessor, so the effective release time is the running
    maximum over the stream.
    """
    if num_geometry_engines < 1:
        raise ConfigurationError("need at least one geometry engine")
    if cycles_per_triangle < 0:
        raise ConfigurationError("geometry cost must be >= 0")
    if num_triangles == 0:
        return np.zeros(0)
    indices = np.arange(num_triangles)
    per_engine_slot = indices // num_geometry_engines
    finished = (per_engine_slot + 1) * cycles_per_triangle
    # In-order release: a triangle is only handed on once every earlier
    # one has been.  Round-robin finish times are already monotone in
    # slot, and within a slot in engine order, so the running maximum
    # is exact (and cheap).
    return np.maximum.accumulate(finished)
