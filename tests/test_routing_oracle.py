"""Columnar bounding-box routing against the per-triangle oracle.

:func:`repro.core.routing.route_triangles` routes a frame in one pass:
one column sweep for the boxes, one ``nodes_in_boxes`` call for the
``(triangle, node)`` pairs, one stable partition by node.  The oracle
(:mod:`tests.oracles.routing`) clamps each triangle's box and asks the
family's scalar node query, one triangle at a time.  Every family must
give the same node sets, and the per-node lists must keep submission
order.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import pipeline
from repro.core.routing import (
    RoutingPlan,
    build_routed_work,
    compute_routing_plan,
    route_by_coverage,
    route_triangles,
)
from repro.distribution import (
    AssignedTiles,
    BlockInterleaved,
    ContiguousBands,
    Distribution,
    MortonInterleaved,
    ScanLineInterleaved,
    SingleProcessor,
    TileGrid,
)
from repro.geometry.scene import Scene
from repro.geometry.triangle import Triangle
from repro.geometry.vertex import Vertex
from repro.texture.texture import MipmappedTexture
from repro.workloads.scenes import build_scene
from tests.oracles import nodes_in_box, reference_nodes_in_box, reference_route_triangles

FAMILIES = ("block", "sli", "single", "bands", "morton", "tiles", "assigned")
PROCESSORS = (1, 3, 6, 64)


def make_distribution(
    family: str, processors: int, size: int, width: int, height: int, seed: int = 0
) -> Distribution:
    if family == "block":
        return BlockInterleaved(processors, size)
    if family == "sli":
        return ScanLineInterleaved(processors, size)
    if family == "single":
        return SingleProcessor()
    if family == "bands":
        return ContiguousBands(processors, height)
    if family == "morton":
        return MortonInterleaved(processors, size)
    grid = TileGrid(size, width, height)
    if family == "tiles":
        return grid
    assignment = np.random.default_rng(seed).integers(0, processors, grid.num_tiles)
    return AssignedTiles(grid, assignment, processors)


def per_node(routed: List[np.ndarray], num_processors: int) -> List[List[int]]:
    """The oracle's per-triangle node lists, regrouped per node."""
    nodes: List[List[int]] = [[] for _ in range(num_processors)]
    for triangle, targets in enumerate(routed):
        for node in targets.tolist():
            nodes[node].append(triangle)
    return nodes


def assert_routes_like_oracle(scene: Scene, dist: Distribution) -> None:
    got = route_triangles(scene, dist)
    assert len(got) == dist.num_processors
    assert all(ids.dtype == np.int64 for ids in got)
    expected = per_node(reference_route_triangles(scene, dist), dist.num_processors)
    assert [ids.tolist() for ids in got] == expected


def scene_of(width: int, height: int, corners) -> Scene:
    triangles = [
        Triangle(Vertex(ax, ay), Vertex(bx, by), Vertex(cx, cy))
        for ax, ay, bx, by, cx, cy in corners
    ]
    return Scene("boxes", width, height, [MipmappedTexture(8, 8)], triangles)


# Coordinates reach past every screen edge; integers make boxes land on
# tile boundaries and collapse into degenerate triangles often.
coordinate = st.one_of(
    st.integers(min_value=-90, max_value=250).map(float),
    st.floats(min_value=-90.0, max_value=250.0, allow_nan=False),
)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=40, deadline=None)
@given(
    processors=st.sampled_from(PROCESSORS),
    size=st.integers(min_value=1, max_value=37),
    width=st.integers(min_value=64, max_value=160),
    height=st.integers(min_value=64, max_value=160),
    corners=st.lists(st.tuples(*[coordinate] * 6), max_size=12),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_columnar_routing_equals_the_oracle(
    family, processors, size, width, height, corners, seed
):
    dist = make_distribution(family, processors, size, width, height, seed)
    assert_routes_like_oracle(scene_of(width, height, corners), dist)


#: Hand-placed scenes on a 100x96 screen, one per routing corner case.
EDGE_CASES = {
    "empty": [],
    "full_screen": [(-40.0, -40.0, 300.0, -40.0, -40.0, 300.0)],
    "off_screen": [
        (-30.0, -30.0, -10.0, -30.0, -30.0, -5.0),
        (200.0, 5.0, 260.0, 9.0, 230.0, 70.0),
    ],
    "degenerate": [(5.0, 5.0, 5.0, 5.0, 5.0, 5.0), (0.0, 0.0, 99.0, 99.0, 50.0, 50.0)],
    "edge_clipped": [
        (95.5, 70.2, 140.0, 70.2, 95.5, 120.0),
        (-3.5, 60.0, 4.0, 90.0, 2.0, 110.0),
    ],
}


@pytest.mark.parametrize("case", EDGE_CASES)
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("processors", PROCESSORS)
def test_edge_cases_route_like_the_oracle(case, family, processors):
    dist = make_distribution(family, processors, 7, 100, 96, seed=processors)
    assert_routes_like_oracle(scene_of(100, 96, EDGE_CASES[case]), dist)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=40, deadline=None)
@given(
    processors=st.sampled_from(PROCESSORS),
    size=st.integers(min_value=1, max_value=37),
    boxes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=127),
            st.integers(min_value=0, max_value=127),
            st.integers(min_value=0, max_value=200),
            st.integers(min_value=0, max_value=200),
        ),
        max_size=10,
    ),
)
def test_nodes_in_boxes_equals_the_scalar_queries(family, processors, size, boxes):
    """Pairs come sorted by box, then node; boxes may overrun the screen."""
    dist = make_distribution(family, processors, size, 128, 128, seed=size)
    corners = [(x0, y0, x0 + dx, y0 + dy) for x0, y0, dx, dy in boxes]
    columns = np.array(corners, dtype=np.int64).reshape(-1, 4).T
    box, node = dist.nodes_in_boxes(*columns)
    expected = [
        (index, int(target))
        for index, corner in enumerate(corners)
        for target in reference_nodes_in_box(dist, *corner)
    ]
    assert list(zip(box.tolist(), node.tolist())) == expected
    for corner in corners:
        assert nodes_in_box(dist, *corner).tolist() == (
            reference_nodes_in_box(dist, *corner).tolist()
        )


@settings(max_examples=50, deadline=None)
@given(
    processors=st.sampled_from(PROCESSORS),
    triangles=st.integers(min_value=0, max_value=20),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_coverage_routing_lists_each_nodes_drawn_triangles(processors, triangles, seed):
    rng = np.random.default_rng(seed)
    pixel_matrix = rng.integers(0, 3, size=triangles * processors) * rng.integers(
        0, 2, size=triangles * processors
    )
    routed = route_by_coverage(pixel_matrix, triangles, processors)
    table = pixel_matrix.reshape(triangles, processors)
    assert len(routed) == processors
    for node, ids in enumerate(routed):
        assert ids.tolist() == np.flatnonzero(table[:, node]).tolist()


def test_plan_under_the_per_triangle_key_is_a_miss(tmp_path):
    """A plan pickled before the per-node layout is never read back."""
    scene = build_scene("truc640", scale=0.0625, cache=False)
    dist = BlockInterleaved(4, 8)
    fragments = scene.fragments()
    owners = dist.owners(fragments.x, fragments.y)
    plan = compute_routing_plan(scene, dist, fragments, owners)
    stale = RoutingPlan(
        num_processors=plan.num_processors,
        routed=reference_route_triangles(scene, dist),
        pixel_matrix=plan.pixel_matrix,
        node_pixels=plan.node_pixels,
    )
    pipeline.configure(disk_dir=tmp_path)
    try:
        old_key = f"{scene.artifact_key}/{dist.fingerprint()}/bbox"
        pipeline.store().put("routing", old_key, stale)
        pipeline.configure(disk_dir=tmp_path)
        work = build_routed_work(scene, dist, cache_spec="perfect")
        stats = pipeline.stats()["routing"]
        assert stats["misses"] == 1
        assert stats["disk_hits"] == stats["memory_hits"] == 0
    finally:
        pipeline.configure()
    assert [ids.tolist() for ids in work.triangles] == [ids.tolist() for ids in plan.routed]
