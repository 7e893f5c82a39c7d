"""Parametric synthetic-scene generator.

A scene is a population of textured *objects* — small grids of quads,
like the wall segments, props and characters of a game frame — placed
over the screen by a cluster mixture (depth complexity is spatially
clustered in real frames: "if a pixel has an important complexity, its
neighbors have too").  Objects are emitted cluster by cluster, which
also recreates the bursty submission order responsible for the local
load imbalance the triangle buffer must absorb (Section 8).

Every generator knob maps to a Table-1 column or a phenomenon knob:

=====================  =====================================================
``depth_complexity``   pixels rendered / screen area (overdraw)
``pixels_per_triangle``triangle size, hence the 25-pixel setup threshold
``num_textures``       texture table size
``texture_edges``      level-0 texture sizes (weighted mix)
``texel_scale``        texels per pixel: <1 magnified, ~1 matched, >1 minified;
                       with the texture sizes this sets the unique
                       texel-to-fragment ratio (small textures wrap and repeat)
``clusters``           hotspot count/size/weight: global load imbalance
=====================  =====================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.scene import Scene
from repro.geometry.triangle import Triangle
from repro.geometry.vertex import Vertex
from repro.texture.texture import MipmappedTexture


@dataclass(frozen=True)
class ClusterSpec:
    """Spatial clustering of objects over the screen.

    ``count`` hotspots; an object joins a hotspot with probability
    ``weight`` (else it lands uniformly), scattered around the hotspot
    centre with standard deviation ``sigma_fraction`` of the screen's
    short edge.
    """

    count: int = 4
    weight: float = 0.6
    sigma_fraction: float = 0.08

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ConfigurationError(f"cluster count must be >= 0, got {self.count}")
        if not 0.0 <= self.weight <= 1.0:
            raise ConfigurationError(f"cluster weight must be in [0, 1], got {self.weight}")
        if self.sigma_fraction <= 0:
            raise ConfigurationError(
                f"cluster sigma must be positive, got {self.sigma_fraction}"
            )


@dataclass(frozen=True)
class SceneSpec:
    """Full-scale description of one synthetic benchmark scene."""

    name: str
    screen_width: int
    screen_height: int
    depth_complexity: float
    pixels_per_triangle: float
    num_textures: int
    #: Weighted mix of level-0 texture edges: ((edge, weight), ...).
    texture_edges: Tuple[Tuple[int, float], ...]
    #: Median texels-per-pixel scale of the texture mappings.
    texel_scale: float
    #: Log-normal spread of the per-object texel scale.
    texel_scale_spread: float = 0.35
    #: Fraction of each texture's extent object origins are drawn from;
    #: below 1.0 objects sharing a texture overlap in texel space,
    #: raising reuse (lowering the unique texel/fragment ratio).
    texture_window: float = 1.0
    clusters: ClusterSpec = ClusterSpec()
    #: Quads per object edge (an object is a grid of quads).
    object_grid: int = 3
    #: Log-normal spread of object sizes.
    object_size_spread: float = 0.3
    #: Fraction of objects rotated by a random angle.
    rotated_fraction: float = 0.3
    #: Triangle submission order: "clustered" (objects of one hotspot
    #: arrive together, like a BSP walk — the default and the source of
    #: bursty local load), "raster" (sorted by screen position, like a
    #: tiled renderer's replay) or "random" (fully shuffled).
    emit_order: str = "clustered"
    seed: int = 1

    def __post_init__(self) -> None:
        if self.depth_complexity <= 0:
            raise ConfigurationError("depth complexity must be positive")
        if self.pixels_per_triangle <= 0:
            raise ConfigurationError("pixels per triangle must be positive")
        if self.num_textures < 1:
            raise ConfigurationError("a scene needs at least one texture")
        if not self.texture_edges:
            raise ConfigurationError("texture_edges must list at least one (edge, weight)")
        if self.texel_scale <= 0:
            raise ConfigurationError("texel scale must be positive")
        if self.object_grid < 1:
            raise ConfigurationError("object grid must be >= 1")
        if not 0 < self.texture_window <= 1:
            raise ConfigurationError("texture window must be in (0, 1]")
        if self.emit_order not in ("clustered", "raster", "random"):
            raise ConfigurationError(
                f"emit_order must be clustered/raster/random, got {self.emit_order!r}"
            )

    def scaled(self, scale: float) -> "SceneSpec":
        """Shrink the scene to a linear ``scale`` in (0, 1].

        The screen and object *count* shrink (pixel count goes as
        ``scale**2``) while per-pixel quantities — triangle size, texel
        scale, texture dimensions — stay fixed, because the cache-line
        footprint and the 25-pixel setup threshold live in absolute
        pixels.  The texture count shrinks only linearly: shrinking it
        quadratically would collapse texture diversity (and with it the
        per-texture reuse statistics) at small scales.
        """
        if not 0 < scale <= 1:
            raise ConfigurationError(f"scene scale must be in (0, 1], got {scale}")
        if scale == 1:
            return self
        return replace(
            self,
            name=self.name,
            screen_width=max(64, round(self.screen_width * scale)),
            screen_height=max(64, round(self.screen_height * scale)),
            num_textures=max(1, round(self.num_textures * scale)),
        )


def _make_textures(spec: SceneSpec, rng: np.random.Generator) -> List[MipmappedTexture]:
    edges = np.array([edge for edge, _ in spec.texture_edges])
    weights = np.array([weight for _, weight in spec.texture_edges], dtype=float)
    weights /= weights.sum()
    chosen = rng.choice(edges, size=spec.num_textures, p=weights)
    return [MipmappedTexture(int(edge), int(edge)) for edge in chosen]


def _cluster_centres(spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.clusters.count == 0:
        return np.zeros((0, 2))
    centres = rng.uniform(
        [0.1 * spec.screen_width, 0.1 * spec.screen_height],
        [0.9 * spec.screen_width, 0.9 * spec.screen_height],
        size=(spec.clusters.count, 2),
    )
    return centres


def _visible_area(corners: List[Tuple[float, float]], width: int, height: int) -> float:
    """Area of a convex polygon clipped to the screen (Sutherland-Hodgman)."""
    polygon = corners
    for axis, bound, keep_below in (
        (0, 0.0, False),
        (0, float(width), True),
        (1, 0.0, False),
        (1, float(height), True),
    ):
        if not polygon:
            return 0.0
        clipped: List[Tuple[float, float]] = []
        for index, current in enumerate(polygon):
            previous = polygon[index - 1]
            cur_in = current[axis] <= bound if keep_below else current[axis] >= bound
            prev_in = previous[axis] <= bound if keep_below else previous[axis] >= bound
            if cur_in != prev_in:
                t = (bound - previous[axis]) / (current[axis] - previous[axis])
                clipped.append(
                    (
                        previous[0] + t * (current[0] - previous[0]),
                        previous[1] + t * (current[1] - previous[1]),
                    )
                )
            if cur_in:
                clipped.append(current)
        polygon = clipped
    area = 0.0
    for index, (x1, y1) in enumerate(polygon):
        x2, y2 = polygon[(index + 1) % len(polygon)]
        area += x1 * y2 - x2 * y1
    return abs(area) * 0.5


@dataclass(frozen=True)
class _ObjectParams:
    """One sampled object, before emission."""

    centre_x: float
    centre_y: float
    cluster: int
    texture_id: int
    quad_edge: float
    texel_scale: float
    angle: float
    u_origin: float
    v_origin: float
    depth: float


def _sample_object(
    spec: SceneSpec,
    rng: np.random.Generator,
    centre: np.ndarray,
    cluster: int,
    texture_id: int,
    texture: MipmappedTexture,
) -> _ObjectParams:
    quad_edge = math.sqrt(2.0 * spec.pixels_per_triangle)
    quad_edge *= rng.lognormal(0.0, spec.object_size_spread)
    angle = rng.uniform(0, 2 * math.pi) if rng.random() < spec.rotated_fraction else 0.0
    return _ObjectParams(
        centre_x=float(centre[0]),
        centre_y=float(centre[1]),
        cluster=cluster,
        texture_id=texture_id,
        quad_edge=quad_edge,
        texel_scale=spec.texel_scale * rng.lognormal(0.0, spec.texel_scale_spread),
        angle=angle,
        u_origin=rng.uniform(0, texture.width * spec.texture_window),
        v_origin=rng.uniform(0, texture.height * spec.texture_window),
        depth=rng.uniform(1.0, 100.0),
    )


def _object_corners(params: _ObjectParams, grid: int) -> List[Tuple[float, float]]:
    """Screen-space outline of the object (its four rotated corners)."""
    half = 0.5 * grid * params.quad_edge
    cos_a, sin_a = math.cos(params.angle), math.sin(params.angle)
    outline = []
    for lx, ly in ((-half, -half), (half, -half), (half, half), (-half, half)):
        outline.append(
            (
                params.centre_x + cos_a * lx - sin_a * ly,
                params.centre_y + sin_a * lx + cos_a * ly,
            )
        )
    return outline


def _emit_object(scene: Scene, spec: SceneSpec, params: _ObjectParams) -> None:
    """Append one object (a grid of textured quads) to the scene."""
    grid = spec.object_grid
    half = 0.5 * grid * params.quad_edge
    # Texels the object's full extent walks; the mapping is affine, so
    # per-quad deltas follow directly.  When the walk exceeds the
    # texture edge the coordinates wrap (GL_REPEAT) — small, heavily
    # repeated textures are how the Quake-derived scenes reach unique
    # texel/fragment ratios far below 1.
    du = params.texel_scale * params.quad_edge
    cos_a, sin_a = math.cos(params.angle), math.sin(params.angle)

    def corner(ix: int, iy: int) -> Vertex:
        local_x = ix * params.quad_edge - half
        local_y = iy * params.quad_edge - half
        x = params.centre_x + cos_a * local_x - sin_a * local_y
        y = params.centre_y + sin_a * local_x + cos_a * local_y
        return Vertex(
            x, y, params.u_origin + ix * du, params.v_origin + iy * du,
            z=params.depth,
        )

    corners = [[corner(ix, iy) for ix in range(grid + 1)] for iy in range(grid + 1)]
    for iy in range(grid):
        for ix in range(grid):
            v00 = corners[iy][ix]
            v10 = corners[iy][ix + 1]
            v01 = corners[iy + 1][ix]
            v11 = corners[iy + 1][ix + 1]
            scene.add(Triangle(v00, v10, v01, texture=params.texture_id))
            scene.add(Triangle(v10, v11, v01, texture=params.texture_id))


def generate_scene(spec: SceneSpec, scale: float = 1.0) -> Scene:
    """Generate the scene described by ``spec`` at a linear ``scale``.

    Deterministic for a given (spec, scale).  Objects are sampled until
    the estimated *visible* (screen-clipped) area reaches the depth-
    complexity target, so edge clipping does not deflate overdraw.
    """
    spec = spec.scaled(scale)
    rng = np.random.default_rng(spec.seed)
    textures = _make_textures(spec, rng)
    scene = Scene(spec.name, spec.screen_width, spec.screen_height, textures)

    target_pixels = spec.depth_complexity * spec.screen_width * spec.screen_height
    hotspots = _cluster_centres(spec, rng)
    sigma = spec.clusters.sigma_fraction * min(spec.screen_width, spec.screen_height)

    objects: List[_ObjectParams] = []
    visible = 0.0
    # Hard cap: generous headroom over the analytic object count, in
    # case a pathological spec never accumulates enough visible area.
    expected = target_pixels / (2.0 * spec.object_grid**2 * spec.pixels_per_triangle)
    cap = max(8, int(20 * expected * (2 * spec.object_grid**2)))
    while visible < target_pixels and len(objects) < cap:
        if len(hotspots) and rng.random() < spec.clusters.weight:
            cluster = int(rng.integers(0, len(hotspots)))
            centre = hotspots[cluster] + rng.normal(0, sigma, size=2)
        else:
            cluster = -1
            centre = rng.uniform(
                [0, 0], [spec.screen_width, spec.screen_height], size=2
            )
        centre[0] = min(max(centre[0], 1.0), spec.screen_width - 1.0)
        centre[1] = min(max(centre[1], 1.0), spec.screen_height - 1.0)
        texture_id = int(rng.integers(0, len(textures)))
        params = _sample_object(
            spec, rng, centre, cluster, texture_id, textures[texture_id]
        )
        objects.append(params)
        visible += _visible_area(
            _object_corners(params, spec.object_grid),
            spec.screen_width,
            spec.screen_height,
        )

    # Submission order shapes the burstiness of per-node load (Sec. 8).
    if spec.emit_order == "clustered":
        # Spatially close objects arrive together, like a game engine
        # walking its BSP/portal structure.
        objects.sort(key=lambda params: params.cluster)
    elif spec.emit_order == "raster":
        objects.sort(key=lambda params: (params.centre_y, params.centre_x))
    else:  # random
        rng.shuffle(objects)
    for params in objects:
        _emit_object(scene, spec, params)
    # Content identity for the artifact pipeline: the scaled spec fixes
    # every generator input (including the scale, via the screen size),
    # so equal keys mean bit-identical scenes across processes.
    from repro.pipeline.keys import spec_fingerprint

    scene.artifact_key = f"{spec.name}#{spec_fingerprint(spec)}"
    return scene

