"""Property tests over the workload generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import SCENE_SPECS
from repro.workloads.generator import SceneSpec, generate_scene
from repro.workloads.sequence import pan_sequence


@st.composite
def generator_specs(draw):
    """Small random-but-valid scene specs."""
    return SceneSpec(
        name="prop",
        screen_width=128,
        screen_height=96,
        depth_complexity=draw(st.floats(min_value=0.5, max_value=6.0)),
        pixels_per_triangle=draw(st.floats(min_value=30.0, max_value=400.0)),
        num_textures=draw(st.integers(min_value=1, max_value=6)),
        texture_edges=((draw(st.sampled_from([8, 16, 32, 64])), 1.0),),
        texel_scale=draw(st.floats(min_value=0.2, max_value=3.0)),
        object_grid=draw(st.integers(min_value=1, max_value=3)),
        emit_order=draw(st.sampled_from(["clustered", "raster", "random"])),
        seed=draw(st.integers(min_value=0, max_value=999)),
    )


class TestGeneratorProperties:
    @settings(max_examples=25, deadline=None)
    @given(spec=generator_specs())
    def test_generated_scenes_are_well_formed(self, spec):
        scene = generate_scene(spec)
        assert scene.num_triangles > 0
        for triangle in scene.triangles[:50]:
            assert 0 <= triangle.texture < len(scene.textures)
        fragments = scene.fragments()
        assert (fragments.x >= 0).all() and (fragments.x < scene.width).all()
        assert (fragments.y >= 0).all() and (fragments.y < scene.height).all()
        assert (fragments.level >= 0).all()

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(spec=generator_specs())
    def test_depth_complexity_tracks_target(self, spec):
        scene = generate_scene(spec)
        measured = len(scene.fragments()) / scene.screen_pixels
        # Area targeting overshoots by at most ~one object and clipping
        # sampling noise; generous bounds still catch regressions.  The
        # absolute slack covers low depth targets, where a single large
        # triangle is a big relative overshoot on a small frame.
        assert measured == pytest.approx(spec.depth_complexity, rel=0.5, abs=0.35)

    @settings(max_examples=10, deadline=None)
    @given(
        frames=st.integers(min_value=1, max_value=4),
        pan=st.integers(min_value=0, max_value=24),
    )
    def test_pan_sequence_invariants(self, frames, pan):
        sequence = pan_sequence(SCENE_SPECS["blowout775"], 0.0625, frames, pan)
        assert len(sequence) == frames
        sizes = {(frame.width, frame.height) for frame in sequence}
        assert len(sizes) == 1
        counts = {frame.num_triangles for frame in sequence}
        assert len(counts) == 1  # same world, translated

