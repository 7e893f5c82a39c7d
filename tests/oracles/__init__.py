"""Test-only reference implementations (oracles).

``src/`` ships one implementation per pipeline layer: the batch scan
converter, the columnar triangle router, the chunk-parallel LRU replay,
the one-pass finite-FIFO recurrence over the columnar distributor
stream and the line-map page table.  The straightforward per-triangle,
per-access, per-entry, event-driven and sorting versions they were
derived from live here, unchanged, so
equivalence property tests can compare the shipped code against them
bit for bit:

* :mod:`tests.oracles.raster` — triangle setup (bounding box,
  degeneracy, edge equations, the top-left fill rule) and the
  one-triangle-at-a-time rasterizer;
* :mod:`tests.oracles.lru` — :class:`ReferenceLru`, the stepwise
  ``access`` walk and the scalar per-set replay;
* :mod:`tests.oracles.replay` — the per-node cache replay the shared
  node partition replaced: an ``int64`` argsort, a full copy of each
  node's fragments and a replay loop of its own;
* :mod:`tests.oracles.routing` — per-triangle bounding-box routing:
  one box clamp and one scalar ``nodes_in_box`` query per triangle,
  with each distribution family's scalar body, and the per-pixel
  ownership image;
* :mod:`tests.oracles.kernel`, :mod:`tests.oracles.fifo`,
  :mod:`tests.oracles.bus` and :mod:`tests.oracles.event_machine` — the
  discrete-event kernel, its blocking bounded FIFO, the per-node
  :class:`BusModel` that queues each transfer and the distributor and
  node processes that ran the finite-FIFO machine on it;
* :mod:`tests.oracles.stream` — the distributor's stream as a sorted
  list of ``(triangle, node, pixels, texels)`` tuples, with the
  converters between that list and the shipped columnar stream;
* :mod:`tests.oracles.filtering` — the per-fragment float trilinear
  footprint: float ``u``/``v``, each fragment's own level and texture
  id, a layout-row gather per corner and ``%`` wraps, with the layout's
  per-texel line and texel address rules;
* :mod:`tests.oracles.pages` — :class:`ReferencePageTable`, whose
  ``translate`` recomputes page, frame and offset on every call and
  whose ``observe`` ranks first touches through ``np.unique``.
"""

from tests.oracles.bus import BusModel
from tests.oracles.event_machine import reference_event_machine
from tests.oracles.filtering import reference_line_addresses, reference_texel_addresses
from tests.oracles.lru import ReferenceLru
from tests.oracles.pages import ReferencePageTable
from tests.oracles.raster import (
    EdgeEquations,
    bounding_box,
    is_degenerate,
    rasterize_scene_scalar,
    rasterize_triangle,
    triangle_setup,
)
from tests.oracles.replay import reference_replay, replay_node
from tests.oracles.routing import (
    nodes_in_box,
    owner_map,
    reference_nodes_in_box,
    reference_route_triangles,
)
from tests.oracles.stream import reference_interleave_stream, stream_columns, stream_rows

__all__ = [
    "BusModel",
    "EdgeEquations",
    "ReferenceLru",
    "ReferencePageTable",
    "bounding_box",
    "is_degenerate",
    "nodes_in_box",
    "owner_map",
    "rasterize_scene_scalar",
    "rasterize_triangle",
    "reference_event_machine",
    "reference_interleave_stream",
    "reference_line_addresses",
    "reference_nodes_in_box",
    "reference_replay",
    "reference_route_triangles",
    "reference_texel_addresses",
    "replay_node",
    "stream_columns",
    "stream_rows",
    "triangle_setup",
]
