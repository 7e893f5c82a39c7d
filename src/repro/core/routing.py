"""Triangle routing and per-node work extraction.

Turns (scene, distribution) into per-node work lists: for every node,
the triangles routed to it (bounding-box routing, in submission order)
with the pixels it will draw of each and — once the cache replay has
run — the texels each triangle pulls over the node's bus.

The computation is staged for the artifact pipeline: a
:class:`RoutingPlan` (geometry only — routing lists and the pixel
matrix) and a :class:`ReplayResult` (per-node cache replay) are
produced independently and combined into a :class:`RoutedWork` by
:func:`assemble_routed_work`.  Each stage is memoized by content
identity in :mod:`repro.pipeline`, so e.g. bbox-vs-coverage routing
contrasts share one cache replay and a FIFO sweep shares one of
everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple, Union

import numpy as np

from repro.cache.models import PerfectCache, make_cache_model
from repro.cache.stats import CacheRunResult
from repro.cache.stream import DEFAULT_CHUNK, replay_fragments
from repro.core.distributor import DistributorStream, interleave_stream
from repro.distribution.base import Distribution
from repro.errors import ConfigurationError
from repro.geometry.scene import Scene
from repro.texture.filtering import TEXELS_PER_FRAGMENT, TrilinearFilter
from repro.texture.pages import FrameLines

if TYPE_CHECKING:
    from repro.cache.config import CacheConfig
    from repro.raster.fragments import FragmentBuffer
    from repro.texture.layout import TextureMemoryLayout

#: A stream's ``distribution.owners`` column (any integer type), or a
#: zero-argument callable that computes it: the pipeline hands both
#: stages one memoized :func:`frame_owners` callable, so the pass runs
#: inside whichever stage needs it first, and at most once.
Owners = Union[np.ndarray, Callable[[], np.ndarray]]

#: Layout tag of :class:`RoutingPlan` in artifact keys.  ``routed``
#: holds per-node triangle lists; a plan pickled under an older layout
#: (per-triangle node lists) in an artifact directory keeps its old key
#: and is never read back as this one.
PLAN_FORMAT = "per-node"

#: Stream-order rows a frame-sized pass handles at once: the rows
#: :func:`frame_owners` asks the distribution about, :func:`partition_by_node`
#: sorts and counts, and :func:`compute_routing_plan` keys.  Bounds
#: their ``int32`` and ``int64`` temporaries; a frame that fits in one
#: chunk is sorted whole.
PARTITION_CHUNK = 1 << 20


@dataclass
class RoutingPlan:
    """The geometry half of routed work: where triangles and pixels go.

    ``routed[n]`` are the ids of the triangles sent to node ``n``, in
    submission order; ``pixel_matrix`` is the flattened (triangle,
    node) pixel count table; ``node_pixels`` the per-node totals.  Everything here is
    independent of the cache model, so one plan serves every cache and
    timing configuration of the same (scene, distribution, routing
    mode).
    """

    num_processors: int
    routed: List[np.ndarray]
    pixel_matrix: np.ndarray
    node_pixels: np.ndarray


@dataclass
class ReplayResult:
    """The cache half of routed work: per-node texture-bus demand.

    ``texels_per_node_tri[n][t]`` is the bus texels triangle ``t``
    costs node ``n``; ``cache`` aggregates hit/miss behaviour over all
    nodes.  Independent of the routing mode and of setup/timing
    parameters.
    """

    texels_per_node_tri: List[np.ndarray]
    cache: CacheRunResult


@dataclass
class RoutedWork:
    """Per-node work lists plus machine-wide cache statistics.

    For node ``n``, ``triangles[n]``, ``pixels[n]`` and ``texels[n]``
    are aligned arrays in submission order: triangle ids, pixels the
    node draws of each, and bus texels each demands.  A routed triangle
    can have zero pixels (its bounding box grazed a tile) — it still
    costs a setup slot.

    The work also carries every label a timed result reports (scene,
    distribution, cache model, setup floor), so timing it under a
    :class:`~repro.core.config.TimingConfig` cannot mislabel it.
    """

    num_processors: int
    triangles: List[np.ndarray]
    pixels: List[np.ndarray]
    texels: List[np.ndarray]
    #: Pixels drawn per node (load-balance numerator).
    node_pixels: np.ndarray
    #: max(setup, pixels) summed per node: the Figure-5 work metric.
    node_work: np.ndarray
    #: Aggregate cache behaviour over all nodes (Figure-6 metric).
    cache: CacheRunResult
    #: The per-triangle setup floor ``node_work`` was built with.
    setup_cycles: int
    #: Name and triangle count of the routed scene.
    scene_name: str
    num_triangles: int
    #: ``describe()`` of the distribution the work was routed through.
    distribution: str
    #: Name of the cache model the nodes' streams were replayed through.
    cache_name: str
    #: The distributor's stream, built on first use by :meth:`stream`.
    _stream: Optional[DistributorStream] = field(
        default=None, init=False, repr=False, compare=False
    )

    def stream(self) -> DistributorStream:
        """The distributor's stream of this work, built once and kept.

        Every finite-FIFO run of the work (any FIFO depth, bus ratio or
        release schedule) reads the same stream.
        """
        if self._stream is None:
            self._stream = interleave_stream(self.triangles, self.pixels, self.texels)
        return self._stream


def _owners_of(owners: Owners) -> np.ndarray:
    """The owners column, computing it if ``owners`` is a callable."""
    return owners() if callable(owners) else owners


def frame_owners(distribution: Distribution, fragments: "FragmentBuffer") -> np.ndarray:
    """``distribution.owners`` of every fragment, in the narrowest node type.

    The column has the unsigned type :func:`partition_by_node` sorts by
    (``uint8`` up to 256 nodes, ``uint16`` up to 65 536), and is filled
    one ``PARTITION_CHUNK`` of stream-order rows at a time, so the
    frame-sized ``int32`` answer of ``owners`` never exists.  The values
    are ``owners``' own: a chunk's answer only narrows on the way in.
    """
    rows = len(fragments)
    owners = np.empty(rows, dtype=_node_type(distribution.num_processors))
    for first in range(0, rows, PARTITION_CHUNK):
        last = first + PARTITION_CHUNK
        owners[first:last] = distribution.owners(fragments.x[first:last], fragments.y[first:last])
    return owners


def _node_counts(owners: np.ndarray, num_nodes: int) -> np.ndarray:
    """Rows per node, counted one ``PARTITION_CHUNK`` at a time.

    ``np.bincount`` widens its input to ``intp``; chunking keeps that
    copy chunk-sized.
    """
    counts = np.zeros(num_nodes, dtype=np.int64)
    for first in range(0, len(owners), PARTITION_CHUNK):
        counts += np.bincount(owners[first : first + PARTITION_CHUNK], minlength=num_nodes)
    return counts


def partition_by_node(
    owners: np.ndarray, num_nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable partition of fragment rows by owning node.

    Returns ``(order, bounds)``: node ``n``'s rows, in stream order,
    are ``order[bounds[n] : bounds[n + 1]]``.  ``owners`` must lie in
    ``[0, num_nodes)``.  ``order`` is ``int32`` whenever the row count
    fits, which halves the frame-sized array the replay keeps.

    The sort key is narrowed to ``uint8`` or ``uint16`` when the node
    count allows, which numpy stable-sorts by radix; a stable sort's
    permutation is unique, so it equals the one of the wide key.  An
    ``owners`` column already that narrow (:func:`frame_owners`) is
    read in place, not copied.
    Frames longer than ``PARTITION_CHUNK`` rows are sorted one
    stream-order chunk at a time, so no frame-sized ``int64`` index or
    sort buffer is ever live: each chunk's rows land at their node's
    bound plus the rows its earlier chunks already placed there, which
    is exactly where the whole-frame stable sort puts them.
    """
    rows = len(owners)
    counts = _node_counts(owners, num_nodes)
    bounds = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    index_type = np.int32 if rows < 2**31 else np.int64
    if rows <= PARTITION_CHUNK:
        order = np.argsort(_node_key(owners, num_nodes), kind="stable")
        return order.astype(index_type), bounds
    order = np.empty(rows, dtype=index_type)
    # Next free slot of every node: a chunk's sorted rows of node n go
    # to ``filled[n]`` onward, so sorted position i of the chunk goes to
    # ``i + filled[n] - (the chunk's rows of nodes below n)``.
    filled = bounds[:-1].copy()
    positions = np.arange(PARTITION_CHUNK)
    for first in range(0, rows, PARTITION_CHUNK):
        key = _node_key(owners[first : first + PARTITION_CHUNK], num_nodes)
        local = np.argsort(key, kind="stable")
        local += first
        chunk_counts = np.bincount(key, minlength=num_nodes)
        target = np.repeat(filled - (np.cumsum(chunk_counts) - chunk_counts), chunk_counts)
        target += positions[: len(key)]
        order[target] = local
        filled += chunk_counts
    return order, bounds


def _node_type(num_nodes: int) -> type:
    """The narrowest unsigned type whose values cover ``num_nodes`` nodes.

    Past 65 536 nodes it is ``int32``, ``Distribution.owners``' own type.
    """
    if num_nodes <= 1 << 8:
        return np.uint8
    if num_nodes <= 1 << 16:
        return np.uint16
    return np.int32


def _node_key(owners: np.ndarray, num_nodes: int) -> np.ndarray:
    """``owners`` in the narrowest unsigned type that holds ``num_nodes``."""
    if num_nodes <= 1 << 16:
        return owners.astype(_node_type(num_nodes), copy=False)
    return owners


def _triangle_boxes(scene: Scene) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Inclusive pixel box ``(x0, y0, x1, y1)`` of every triangle, clamped to the screen.

    The vertex positions are columns of the scene's vertex table; the
    ``floor`` / ``ceil`` / clamp expressions run on ``float64`` columns,
    where every intermediate is an exact integer, and only the clamped
    results are cast to ``int64``.
    """
    table = scene.vertex_table
    ax, ay, bx, by, cx, cy = (table[:, k] for k in (0, 1, 5, 6, 10, 11))
    width, height = scene.width - 1.0, scene.height - 1.0
    x0 = np.clip(np.floor(np.minimum(np.minimum(ax, bx), cx)), 0.0, width)
    y0 = np.clip(np.floor(np.minimum(np.minimum(ay, by), cy)), 0.0, height)
    x1 = np.ceil(np.maximum(np.maximum(ax, bx), cx)) - 1.0
    y1 = np.ceil(np.maximum(np.maximum(ay, by), cy)) - 1.0
    x1 = np.minimum(width, np.maximum(x0, x1))
    y1 = np.minimum(height, np.maximum(y0, y1))
    return x0.astype(np.int64), y0.astype(np.int64), x1.astype(np.int64), y1.astype(np.int64)


def route_triangles(scene: Scene, distribution: Distribution) -> List[np.ndarray]:
    """Bounding-box routing: per node, the triangles sent to it, in submission order.

    This is what a real sort-middle distributor computes — it may route
    a triangle to a node whose tiles its box grazes without covering a
    pixel; that node still pays the 25-cycle setup (the small-triangle
    overhead of Section 2.3).  The pairs come in triangle order, so
    the stable partition by node keeps each node's list in submission
    order.
    """
    triangle, node = distribution.nodes_in_boxes(*_triangle_boxes(scene))
    order, bounds = partition_by_node(node, distribution.num_processors)
    return np.split(triangle[order], bounds[1:-1])


def route_by_coverage(
    pixel_matrix: np.ndarray, num_triangles: int, num_processors: int
) -> List[np.ndarray]:
    """Exact-coverage routing: per node, the triangles it draws >= 1 pixel of.

    The idealised contrast case for the routing ablation — it needs
    oracle knowledge of the rasterisation, so no real distributor can
    implement it, but it isolates how much the grazed-tile setup slots
    of bounding-box routing cost.
    """
    by_node = pixel_matrix.reshape(num_triangles, num_processors).T
    node, triangle = np.nonzero(by_node)
    bounds = np.searchsorted(node, np.arange(1, num_processors))
    return np.split(triangle, bounds)


def compute_routing_plan(
    scene: Scene,
    distribution: Distribution,
    fragments: "FragmentBuffer",
    owners: Owners,
    route_by: str = "bbox",
) -> RoutingPlan:
    """Route a fragment stream: the cache-independent half of the work.

    ``owners`` is ``distribution.owners`` of the stream (in any integer
    type, :func:`frame_owners`' narrow one included), or a callable
    that returns it.  The pixel matrix is counted one
    ``PARTITION_CHUNK`` of stream-order rows at a time: each chunk's
    ``(triangle, node)`` key spans only the triangles it draws, so no
    frame-sized key exists and each count adds to its own window of the
    matrix.  Beyond the fragments and owners, the plan holds
    chunk-sized temporaries and its per-triangle outputs.
    """
    if route_by not in ("bbox", "coverage"):
        raise ConfigurationError(f"route_by must be bbox or coverage, got {route_by!r}")
    n_proc = distribution.num_processors
    n_tri = scene.num_triangles

    stream_owners = _owners_of(owners)
    # Pixels drawn per (triangle, node).  Fragments come in submission
    # order, so a chunk's triangles are a narrow id range: its key is
    # offset to the chunk's lowest triangle id and counted into that window.
    pixel_matrix = np.zeros(n_tri * n_proc, dtype=np.int64)
    for first in range(0, len(fragments), PARTITION_CHUNK):
        triangles = fragments.triangle[first : first + PARTITION_CHUNK]
        low, high = int(triangles.min()), int(triangles.max()) + 1
        key = triangles.astype(np.int64)
        key -= low
        key *= n_proc
        key += stream_owners[first : first + PARTITION_CHUNK]
        pixel_matrix[low * n_proc : high * n_proc] += np.bincount(
            key, minlength=(high - low) * n_proc
        )
    node_pixels = pixel_matrix.reshape(n_tri, n_proc).sum(axis=0)

    if route_by == "bbox":
        routed = route_triangles(scene, distribution)
    else:
        routed = route_by_coverage(pixel_matrix, n_tri, n_proc)

    return RoutingPlan(
        num_processors=n_proc,
        routed=routed,
        pixel_matrix=pixel_matrix,
        node_pixels=node_pixels,
    )


def compute_replay(
    scene: Scene,
    distribution: Distribution,
    fragments: "FragmentBuffer",
    owners: Owners,
    cache_spec: str = "lru",
    cache_config: Optional["CacheConfig"] = None,
    layout: Optional["TextureMemoryLayout"] = None,
    chunk_size: Optional[int] = None,
    translator: Optional[FrameLines] = None,
) -> ReplayResult:
    """Replay every node's fragment stream through its private cache.

    ``owners`` is ``distribution.owners`` of the stream (in any integer
    type; the pipeline hands over :func:`frame_owners`' ``uint8`` or
    ``uint16`` column), or a callable that returns it (a perfect cache
    never calls it).  The frame is partitioned by node once
    (:func:`partition_by_node`), into an ``int32`` row permutation
    sorted and counted chunk by chunk, so the replay holds no
    frame-sized ``int64`` index; each node's replay gathers only
    ``u``, ``v`` and ``triangle``, chunk by chunk, straight from the
    frame's buffer, and looks the mip levels and texture ids up in the
    buffer's per-triangle tables.

    ``translator`` optionally rewrites the line-address stream before
    it reaches the cache model — the virtual-texturing page table maps
    virtual lines onto its resident physical frames here.  It is one
    frame's :class:`~repro.texture.pages.FrameLines`, built by the
    caller through the page table
    (:func:`~repro.texture.pages.build_frame_lines`) and shared with
    its other replays of the frame: every node gathers its rows from
    that table of translated lines.  Translation is pure (the table is
    frozen within a frame), so per-node replay order cannot perturb it.
    """
    layout = layout or scene.memory_layout()
    tex_filter = TrilinearFilter(layout)
    chunk = chunk_size or DEFAULT_CHUNK
    address_lines = layout.total_lines
    frame_lines: Optional[np.ndarray] = None
    if translator is not None:
        address_lines = max(address_lines, translator.address_space_lines)
        frame_lines = translator.lines_for(fragments)
    n_proc = distribution.num_processors
    n_tri = scene.num_triangles

    probe_model = make_cache_model(cache_spec, cache_config)
    total_cache = CacheRunResult(texels_by_triangle=np.zeros(n_tri, dtype=np.int64))
    texels_per_node_tri: List[np.ndarray] = []
    if isinstance(probe_model, PerfectCache):
        # A perfect cache never fetches; skip the (expensive) replay.
        total_cache.fragments = len(fragments)
        total_cache.texel_accesses = len(fragments) * TEXELS_PER_FRAGMENT
        total_cache.line_accesses = total_cache.texel_accesses
        zero = np.zeros(n_tri, dtype=np.int64)
        texels_per_node_tri = [zero for _ in range(n_proc)]
    else:
        # Per-node cache replay, in each node's own stream order.
        order, bounds = partition_by_node(_owners_of(owners), n_proc)
        for node in range(n_proc):
            model = make_cache_model(cache_spec, cache_config)
            if model.texels_per_fetch != 1:
                # Line fills carry however many texels the layout's
                # texel format packs into 64 bytes.
                model.texels_per_fetch = layout.texels_per_line
            seen = np.zeros(address_lines, dtype=bool)
            rows: Optional[np.ndarray] = order[bounds[node] : bounds[node + 1]]
            if len(rows) == len(fragments):
                # The stable partition leaves a node that owns the whole
                # frame its rows in order, so it reads slices, not copies.
                rows = None
            run = replay_fragments(
                fragments,
                tex_filter,
                model,
                seen_lines=seen,
                chunk_size=chunk,
                rows=rows,
                lines=frame_lines,
            )
            total_cache = total_cache.merged_with(run)
            texels_per_node_tri.append(run.texels_by_triangle)

    return ReplayResult(texels_per_node_tri=texels_per_node_tri, cache=total_cache)


def assemble_routed_work(
    plan: RoutingPlan,
    replay: ReplayResult,
    scene: Scene,
    distribution: Distribution,
    cache_name: str,
    setup_cycles: int = 25,
) -> RoutedWork:
    """Combine a routing plan and a cache replay into per-node work lists.

    ``scene``, ``distribution`` and ``cache_name`` are the inputs the
    plan and replay were computed from; only their labels are kept.
    """
    n_proc = plan.num_processors
    empty = np.zeros(0, dtype=np.int64)
    pixels: List[np.ndarray] = []
    texels: List[np.ndarray] = []
    node_work = np.zeros(n_proc, dtype=np.int64)
    for node, ids in enumerate(plan.routed):
        if len(ids):
            px = plan.pixel_matrix[ids * n_proc + node]
            tx = replay.texels_per_node_tri[node][ids]
            node_work[node] = np.maximum(px, setup_cycles).sum()
        else:
            px, tx = empty, empty
        pixels.append(px)
        texels.append(tx)

    return RoutedWork(
        num_processors=n_proc,
        triangles=list(plan.routed),
        pixels=pixels,
        texels=texels,
        node_pixels=plan.node_pixels,
        node_work=node_work,
        cache=replay.cache,
        setup_cycles=setup_cycles,
        scene_name=scene.name,
        num_triangles=scene.num_triangles,
        distribution=distribution.describe(),
        cache_name=cache_name,
    )


def build_routed_work(
    scene: Scene,
    distribution: Distribution,
    cache_spec: str = "lru",
    cache_config: Optional["CacheConfig"] = None,
    setup_cycles: int = 25,
    chunk_size: Optional[int] = None,
    layout: Optional["TextureMemoryLayout"] = None,
    route_by: str = "bbox",
    fragments: Optional["FragmentBuffer"] = None,
    translator: Optional[FrameLines] = None,
) -> RoutedWork:
    """Route a scene and replay every node's stream through its cache.

    ``layout`` overrides the scene's default block-linear texture
    layout (used by the texture-blocking ablation).  ``route_by`` is
    ``"bbox"`` (realistic bounding-box routing, the default) or
    ``"coverage"`` (oracle routing, the ablation contrast).
    ``fragments`` overrides the scene's rasterisation — the early-Z
    ablation passes the depth-resolved survivor stream here.
    ``translator`` is a :class:`~repro.texture.pages.FrameLines` built
    from ``scene``'s fragments through a virtual-texturing page table
    (:mod:`repro.texture.pages`): the cache sees its translated lines,
    and several replays of one frame share them.

    Delegates to :func:`repro.pipeline.routed_work`, which memoizes
    the routing plan, the cache replay and the assembled work by
    content identity whenever the inputs are keyable.
    """
    from repro.pipeline import routed_work

    return routed_work(
        scene,
        distribution,
        cache_spec=cache_spec,
        cache_config=cache_config,
        setup_cycles=setup_cycles,
        chunk_size=chunk_size,
        layout=layout,
        route_by=route_by,
        fragments=fragments,
        translator=translator,
    )
