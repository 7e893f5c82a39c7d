"""The columnar scene: one vertex table and one texture column per scene.

``tests/golden/scene_tables.json`` pins a sha256 of every generated
Table-1 scene's table (and of every ``vt-quake`` pan frame) as the
per-object generator emitted it, so a moved vertex fails here directly
rather than through a drifted cycle count.  Regenerate after an
intentional generator change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_scene_columns.py
"""

from __future__ import annotations

import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MachineConfig, simulate_machine
from repro.distribution import BlockInterleaved
from repro.errors import ConfigurationError
from repro.geometry.scene import VERTEX_COLUMNS, Scene, triangle_from_row
from repro.geometry.triangle import Triangle
from repro.geometry.vertex import Vertex
from repro.raster.raster import MAX_MIP_LEVEL, mip_level_for_scale, rasterize_scene
from repro.texture.texture import MipmappedTexture
from repro.workloads.generator import generate_scene
from repro.workloads.scenes import SCENE_SPECS
from repro.workloads.sequence import translate_scene
from repro.workloads.vt import VT_SCENE_SPECS, vt_frames
from tests.golden_common import (
    SCENE_TABLES_PATH,
    load_golden,
    update_requested,
    write_golden,
)

#: Linear scale of the pinned scenes.
TABLE_SCALE = 0.125


def table_digest(scene: Scene) -> str:
    digest = hashlib.sha256(scene.vertex_table.tobytes())
    digest.update(scene.texture_ids.tobytes())
    return digest.hexdigest()


def test_generated_tables_match_the_pinned_digests():
    scenes = [generate_scene(spec, scale=TABLE_SCALE) for spec in SCENE_SPECS.values()]
    scenes += vt_frames(VT_SCENE_SPECS["vt-quake"], TABLE_SCALE)
    computed = {
        scene.name: {"triangles": scene.num_triangles, "sha256": table_digest(scene)}
        for scene in scenes
    }
    if update_requested():
        write_golden(SCENE_TABLES_PATH, {"scale": TABLE_SCALE, "scenes": computed})
    pinned = load_golden(SCENE_TABLES_PATH)
    assert pinned["scale"] == TABLE_SCALE
    assert computed == pinned["scenes"]


def test_simulating_a_generated_frame_never_builds_triangle_objects(monkeypatch):
    def refuse(scene):
        pytest.fail(f"{scene.name}: the Triangle view was built")

    monkeypatch.setattr(Scene, "triangles", property(refuse))
    scene = translate_scene(generate_scene(SCENE_SPECS["room3"], scale=0.125), -3.0, -5.0)
    config = MachineConfig(distribution=BlockInterleaved(4, 16), cache="lru")
    assert simulate_machine(scene, config).cycles > 0


_coordinate = st.floats(-64.0, 64.0, allow_nan=False, allow_infinity=False)
_rows = st.lists(
    st.tuples(st.integers(0, 2), st.lists(_coordinate, min_size=15, max_size=15)),
    max_size=12,
)


def _empty(name: str = "s") -> Scene:
    return Scene(name, 32, 32, [MipmappedTexture(8, 8) for _ in range(3)])


@settings(max_examples=60, deadline=None)
@given(rows=_rows, split=st.integers(0, 12))
def test_add_constructor_and_extend_give_equal_tables(rows, split):
    triangles = [triangle_from_row(values, texture) for texture, values in rows]
    added = _empty()
    for triangle in triangles:
        added.add(triangle)
    built = Scene("s", 32, 32, added.textures, triangles=triangles)
    table = np.array([values for _, values in rows], dtype=np.float64)
    table = table.reshape(len(rows), VERTEX_COLUMNS)
    ids = np.array([texture for texture, _ in rows], dtype=np.int64)
    bulk = _empty()
    bulk.extend(table, ids)
    # Bulk appends and single adds interleave in submission order.
    mixed = _empty()
    mixed.extend(table[:split], ids[:split])
    for triangle in triangles[split:]:
        mixed.add(triangle)
    for scene in (built, bulk, mixed):
        assert scene.num_triangles == len(rows)
        assert scene.vertex_table.dtype == np.float64
        assert scene.texture_ids.dtype == np.int32
        assert scene.vertex_table.tobytes() == added.vertex_table.tobytes()
        assert scene.texture_ids.tobytes() == added.texture_ids.tobytes()
        assert scene.triangles == tuple(triangles)


def test_mutation_clears_fragments_and_identity(flat_scene):
    extra = Triangle(Vertex(0, 0), Vertex(4, 0), Vertex(0, 4))
    for mutate in (
        lambda scene: scene.add(extra),
        lambda scene: scene.extend(np.zeros((2, VERTEX_COLUMNS)), [0, 0]),
    ):
        flat_scene.fragments()
        flat_scene.artifact_key = "flat#k"
        before = len(flat_scene.triangles)
        mutate(flat_scene)
        assert flat_scene._fragments is None
        assert flat_scene.artifact_key is None
        assert len(flat_scene.triangles) == flat_scene.num_triangles > before
        assert len(flat_scene.fragments().triangle_pixel_counts()) == flat_scene.num_triangles


def test_columns_are_read_only_and_survive_pickling(flat_scene):
    for column in (flat_scene.vertex_table, flat_scene.texture_ids):
        with pytest.raises(ValueError):
            column[0] = 1
    copy = pickle.loads(pickle.dumps(flat_scene))
    assert copy.vertex_table.tobytes() == flat_scene.vertex_table.tobytes()
    assert copy.texture_ids.tobytes() == flat_scene.texture_ids.tobytes()
    with pytest.raises(ValueError):
        copy.vertex_table[0, 0] = 1.0


def test_extend_rejects_bad_tables_and_texture_ids():
    scene = _empty()
    with pytest.raises(ConfigurationError, match="shape"):
        scene.extend(np.zeros((2, 14)), [0, 0])
    with pytest.raises(ConfigurationError, match="one texture id per triangle"):
        scene.extend(np.zeros((2, VERTEX_COLUMNS)), [0])
    with pytest.raises(ConfigurationError, match="references texture 3"):
        scene.extend(np.zeros((2, VERTEX_COLUMNS)), [0, 3])
    with pytest.raises(ConfigurationError, match=">= 0"):
        scene.extend(np.zeros((1, VERTEX_COLUMNS)), [-1])
    assert scene.num_triangles == 0


#: Texel scales on and one ulp either side of 1.0 and every 2**k,
#: k = 1..16, where ``floor(log2(scale))`` changes.
_EDGE_SCALES = [
    value
    for k in range(17)
    for value in (math.nextafter(2.0**k, 0.0), 2.0**k, math.nextafter(2.0**k, math.inf))
]


def _mapped_triangle(cell: int, scale: float, angle: float) -> Triangle:
    """An 8-pixel right triangle in grid cell ``cell`` mapped at ``scale``.

    The texture mapping is the screen offset rotated by ``angle`` and
    stretched by ``scale``, so its texel-to-pixel scale is ``scale`` up
    to rounding.
    """
    x, y = 10.0 * (cell % 24) + 1.0, 10.0 * (cell // 24) + 1.0
    cos_a, sin_a = math.cos(angle), math.sin(angle)

    def vertex(dx: float, dy: float) -> Vertex:
        u = scale * (cos_a * dx - sin_a * dy)
        v = scale * (sin_a * dx + cos_a * dy)
        return Vertex(x + dx, y + dy, u, v)

    return Triangle(vertex(0.0, 0.0), vertex(8.0, 0.0), vertex(0.0, 8.0))


def _assert_levels_match_the_scalar_rule(triangles) -> None:
    scene = Scene("mips", 240, 240, [MipmappedTexture(64, 64)], triangles=triangles)
    fragments = rasterize_scene(scene)
    expected = np.array(
        [mip_level_for_scale(t.texel_to_pixel_scale()) for t in triangles], dtype=np.int16
    )
    assert set(fragments.triangle.tolist()) == set(range(len(triangles)))
    assert np.array_equal(fragments.triangle_level[fragments.triangle], expected[fragments.triangle])


def test_mip_levels_at_powers_of_two_match_the_scalar_rule():
    triangles = [_mapped_triangle(cell, s, 0.0) for cell, s in enumerate(_EDGE_SCALES)]
    _assert_levels_match_the_scalar_rule(triangles)
    levels = {mip_level_for_scale(t.texel_to_pixel_scale()) for t in triangles}
    assert levels == set(range(MAX_MIP_LEVEL + 1))


@settings(max_examples=40, deadline=None)
@given(
    picks=st.lists(
        st.tuples(
            st.sampled_from(_EDGE_SCALES),
            st.integers(-3, 3),
            st.floats(0.0, 2.0 * math.pi, allow_nan=False),
        ),
        min_size=1,
        max_size=48,
    )
)
def test_rotated_mip_levels_near_powers_of_two_match_the_scalar_rule(picks):
    triangles = []
    for cell, (scale, ulps, angle) in enumerate(picks):
        for _ in range(abs(ulps)):
            scale = math.nextafter(scale, math.copysign(math.inf, ulps))
        triangles.append(_mapped_triangle(cell, scale, angle))
    _assert_levels_match_the_scalar_rule(triangles)
