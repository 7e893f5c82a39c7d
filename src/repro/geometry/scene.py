"""A scene: a screen, a texture table and an ordered triangle trace.

The trace is stored as columns: one ``float64`` vertex table with a
row per triangle (``x, y, u, v, z`` of ``v0``, then ``v1``, then
``v2``) and one ``int32`` texture column.  The rasterizer, the router
and the workload generator read and write the columns directly;
:class:`~repro.geometry.triangle.Triangle` objects are built only for
consumers that ask for them through :attr:`Scene.triangles`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.triangle import Triangle
from repro.geometry.vertex import Vertex
from repro.texture.texture import MipmappedTexture

#: Vertex-table columns per triangle: ``x, y, u, v, z`` of three vertices.
VERTEX_COLUMNS = 15

#: Layout tag of :class:`Scene` in artifact keys.  A scene pickled with
#: a per-triangle object list in an artifact directory keeps its old
#: key and is never read back as a columnar one.
SCENE_FORMAT = "columnar"


def _triangle_row(triangle: Triangle) -> Tuple[float, ...]:
    """One vertex-table row: ``x, y, u, v, z`` of ``v0``, ``v1``, ``v2``."""
    return tuple(
        value
        for vertex in triangle.vertices
        for value in (vertex.x, vertex.y, vertex.u, vertex.v, vertex.z)
    )


def triangle_from_row(row: Sequence[float], texture: int = 0) -> Triangle:
    """The :class:`Triangle` of one vertex-table row."""
    return Triangle(
        Vertex(*row[0:5]), Vertex(*row[5:10]), Vertex(*row[10:15]), texture=texture
    )


@dataclass(frozen=True)
class SceneStatistics:
    """The Table-1 characterisation of a scene.

    ``pixels_rendered`` counts every drawn fragment (overdraw included —
    the paper simulates no Z-buffer), so ``depth_complexity`` is simply
    pixels rendered divided by the screen area.
    """

    name: str
    screen_width: int
    screen_height: int
    pixels_rendered: int
    depth_complexity: float
    num_triangles: int
    num_textures: int
    texture_bytes: int
    unique_texel_to_fragment: float

    @property
    def texture_megabytes(self) -> float:
        return self.texture_bytes / (1024.0 * 1024.0)

    @property
    def pixels_per_triangle(self) -> float:
        if self.num_triangles == 0:
            return 0.0
        return self.pixels_rendered / self.num_triangles


class Scene:
    """An ordered triangle trace plus the textures it samples.

    Triangle order is the strict OpenGL submission order; the
    sort-middle machine must preserve it, and the triangle distributor
    replays it verbatim.  Triangles are appended one at a time with
    :meth:`add` or in bulk with :meth:`extend`; both land in the same
    columns.
    """

    def __init__(
        self,
        name: str,
        width: int,
        height: int,
        textures: Sequence[MipmappedTexture],
        triangles: Optional[Sequence[Triangle]] = None,
    ) -> None:
        if width < 1 or height < 1:
            raise ConfigurationError(f"screen must be at least 1x1, got {width}x{height}")
        if not textures:
            raise ConfigurationError("a scene needs at least one texture")
        self.name = name
        self.width = width
        self.height = height
        self.textures: List[MipmappedTexture] = list(textures)
        self._table = _frozen(np.zeros((0, VERTEX_COLUMNS), dtype=np.float64))
        self._texture_ids = _frozen(np.zeros(0, dtype=np.int32))
        #: Triangles passed to :meth:`add` and not yet in the columns.
        self._pending: List[Triangle] = []
        # Lazily-filled object view and rasterisation / layout caches.
        self._triangles: Optional[Tuple[Triangle, ...]] = None
        self._fragments = None
        self._layout = None
        #: Content-identity key for the artifact pipeline.  Set by the
        #: workload generator (spec fingerprint + scale); ``None`` for
        #: hand-built or trace-loaded scenes, which are then computed
        #: directly instead of through the shared artifact store.
        self.artifact_key = None
        for triangle in triangles or ():
            self.add(triangle)

    def add(self, triangle: Triangle) -> None:
        """Append a triangle, validating its texture reference."""
        self._check_textures(triangle.texture, triangle.texture)
        self._pending.append(triangle)
        self._changed()

    def extend(self, vertex_table: np.ndarray, texture_ids: np.ndarray) -> None:
        """Append triangles in bulk: a vertex table and its texture column.

        ``vertex_table`` has one row of :data:`VERTEX_COLUMNS` values
        per triangle (``x, y, u, v, z`` of ``v0``, then ``v1``, then
        ``v2``); the scene keeps a copy of both arrays.
        """
        table = np.asarray(vertex_table, dtype=np.float64)
        ids = np.asarray(texture_ids)
        if table.ndim != 2 or table.shape[1] != VERTEX_COLUMNS:
            raise ConfigurationError(
                f"vertex table must have shape (n, {VERTEX_COLUMNS}), got {table.shape}"
            )
        if ids.shape != (len(table),):
            raise ConfigurationError(
                f"need one texture id per triangle, got {ids.shape} for {len(table)}"
            )
        if len(ids):
            self._check_textures(int(ids.min()), int(ids.max()))
        current, current_ids = self._columns()
        self._table = _frozen(np.concatenate([current, table]))
        self._texture_ids = _frozen(np.concatenate([current_ids, ids.astype(np.int32)]))
        self._changed()

    def _check_textures(self, low: int, high: int) -> None:
        """Reject texture references outside ``[0, len(textures))``."""
        if low < 0:
            raise ConfigurationError(f"texture index must be >= 0, got {low}")
        if high >= len(self.textures):
            raise ConfigurationError(
                f"triangle references texture {high}, "
                f"scene has {len(self.textures)}"
            )

    def _changed(self) -> None:
        self._triangles = None
        self._fragments = None
        # A mutated scene no longer matches its generated identity.
        self.artifact_key = None

    def _columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The vertex table and texture column, with pending adds moved in."""
        if self._pending:
            rows = np.array(list(map(_triangle_row, self._pending)), dtype=np.float64)
            ids = np.array([triangle.texture for triangle in self._pending], np.int32)
            self._pending = []
            self._table = _frozen(np.concatenate([self._table, rows]))
            self._texture_ids = _frozen(np.concatenate([self._texture_ids, ids]))
        return self._table, self._texture_ids

    @property
    def vertex_table(self) -> np.ndarray:
        """Read-only ``(num_triangles, 15)`` float64 table, in submission order."""
        return self._columns()[0]

    @property
    def texture_ids(self) -> np.ndarray:
        """Read-only int32 texture index of every triangle."""
        return self._columns()[1]

    @property
    def triangles(self) -> Tuple[Triangle, ...]:
        """The triangles as objects, built from the columns on first use."""
        if self._triangles is None:
            table, ids = self._columns()
            self._triangles = tuple(map(triangle_from_row, table.tolist(), ids.tolist()))
        return self._triangles

    @property
    def num_triangles(self) -> int:
        return len(self._texture_ids) + len(self._pending)

    @property
    def screen_pixels(self) -> int:
        return self.width * self.height

    def texture_bytes(self) -> int:
        """Total texture-memory footprint including mipmap pyramids."""
        return sum(texture.total_bytes() for texture in self.textures)

    def fragments(self):
        """Rasterise (once) and return the scene's FragmentBuffer."""
        if self._fragments is None:
            from repro.raster.raster import rasterize_scene

            self._fragments = rasterize_scene(self)
        return self._fragments

    def memory_layout(self):
        """Block-linear texture-memory layout shared by every node."""
        if self._layout is None:
            from repro.texture.layout import TextureMemoryLayout

            self._layout = TextureMemoryLayout(self.textures)
        return self._layout

    def statistics(self) -> SceneStatistics:
        """Compute the scene's Table-1 row (rasterises if needed)."""
        from repro.analysis.characterize import characterize_scene

        return characterize_scene(self)

    def __getstate__(self):
        # The object view, rasterisation and layout memos are pure
        # caches and can dwarf the scene itself; pickles (artifact
        # store, worker transfers) carry only the definition.
        self._columns()
        state = self.__dict__.copy()
        state["_triangles"] = None
        state["_fragments"] = None
        state["_layout"] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        # Unpickled arrays come back writeable.
        _frozen(self._table)
        _frozen(self._texture_ids)

    def __repr__(self) -> str:
        return (
            f"Scene({self.name!r}, {self.width}x{self.height}, "
            f"{self.num_triangles} triangles, {len(self.textures)} textures)"
        )


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, marked read-only."""
    array.flags.writeable = False
    return array
