"""Cross-module property tests: invariants of the whole pipeline.

These tie the substrates together on randomly generated miniature
scenes: conservation laws (pixels partition exactly), determinism, and
the agreement of independently implemented paths.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MachineConfig, simulate_machine
from repro.core.routing import build_routed_work
from repro.distribution import (
    BlockInterleaved,
    ScanLineInterleaved,
    SingleProcessor,
)
from repro.geometry import Scene, Triangle, Vertex
from repro.texture.texture import MipmappedTexture


@st.composite
def random_scenes(draw):
    """Small random scenes: a handful of arbitrary textured triangles."""
    num_textures = draw(st.integers(min_value=1, max_value=3))
    textures = [MipmappedTexture(16, 16) for _ in range(num_textures)]
    scene = Scene("fuzz", 48, 48, textures)
    count = draw(st.integers(min_value=1, max_value=10))
    coordinate = st.floats(min_value=-10, max_value=58, width=32)
    texcoord = st.floats(min_value=0, max_value=64, width=32)
    for _ in range(count):
        vertices = [
            Vertex(draw(coordinate), draw(coordinate), draw(texcoord), draw(texcoord))
            for _ in range(3)
        ]
        scene.add(
            Triangle(
                vertices[0],
                vertices[1],
                vertices[2],
                texture=draw(st.integers(min_value=0, max_value=num_textures - 1)),
            )
        )
    return scene


@st.composite
def random_distributions(draw):
    family = draw(st.sampled_from(["block", "sli"]))
    processors = draw(st.sampled_from([1, 2, 4, 8]))
    size = draw(st.sampled_from([1, 2, 4, 8, 16]))
    if family == "block":
        return BlockInterleaved(processors, size)
    return ScanLineInterleaved(processors, size)


class TestPipelineInvariants:
    @settings(max_examples=30, deadline=None)
    @given(scene=random_scenes(), dist=random_distributions())
    def test_pixels_partition_exactly(self, scene, dist):
        """Every fragment belongs to exactly one node; none is lost."""
        work = build_routed_work(scene, dist, cache_spec="perfect")
        assert work.node_pixels.sum() == len(scene.fragments())
        per_node = sum(int(work.pixels[n].sum()) for n in range(dist.num_processors))
        assert per_node == len(scene.fragments())

    @settings(max_examples=20, deadline=None)
    @given(scene=random_scenes(), dist=random_distributions())
    def test_parallel_misses_at_least_serial(self, scene, dist):
        """Splitting an image can only destroy reuse, never create it."""
        split = build_routed_work(scene, dist, cache_spec="lru")
        solo = build_routed_work(scene, SingleProcessor(), cache_spec="lru")
        assert split.cache.misses >= solo.cache.misses

    @settings(max_examples=20, deadline=None)
    @given(scene=random_scenes(), dist=random_distributions())
    def test_simulation_is_deterministic(self, scene, dist):
        config = MachineConfig(distribution=dist, cache="lru", bus_ratio=1.0)
        first = simulate_machine(scene, config)
        second = simulate_machine(scene, config)
        assert first.cycles == second.cycles
        assert (first.timings.finish == second.timings.finish).all()

    @settings(max_examples=20, deadline=None)
    @given(scene=random_scenes(), dist=random_distributions())
    def test_perfect_cache_never_slower_than_real(self, scene, dist):
        perfect = simulate_machine(
            scene, MachineConfig(distribution=dist, cache="perfect", bus_ratio=1.0)
        )
        real = simulate_machine(
            scene, MachineConfig(distribution=dist, cache="lru", bus_ratio=1.0)
        )
        assert perfect.cycles <= real.cycles + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(scene=random_scenes())
    def test_event_path_equals_fast_path_on_random_scenes(self, scene):
        """The two timing implementations agree on arbitrary content."""
        from repro.core.distributor import interleave_stream, run_event_machine

        dist = BlockInterleaved(4, 8)
        work = build_routed_work(scene, dist, cache_spec="lru")
        config = MachineConfig(distribution=dist, cache="lru", bus_ratio=1.0)
        fast = simulate_machine(work, config.timing)
        stream = interleave_stream(work.triangles, work.pixels, work.texels)
        cycles, _finish = run_event_machine(stream, 4, 10**9, 25, 1.0)
        assert cycles == pytest.approx(fast.cycles)

    @settings(max_examples=20, deadline=None)
    @given(scene=random_scenes())
    def test_fragment_count_invariant_under_distribution(self, scene):
        """Rasterisation is distribution-independent (clip-on-draw)."""
        baseline = len(scene.fragments())
        for dist in (BlockInterleaved(4, 4), ScanLineInterleaved(8, 2)):
            work = build_routed_work(scene, dist, cache_spec="perfect")
            assert work.node_pixels.sum() == baseline


class TestUnitTextureInvariant:
    @settings(max_examples=25, deadline=None)
    @given(
        scale=st.floats(min_value=0.25, max_value=8.0),
        offset=st.floats(min_value=0, max_value=100),
    )
    def test_unique_texels_bounded_by_footprint(self, scale, offset):
        """Unique texels touched never exceed 8 per fragment."""
        from repro.analysis.characterize import unique_texels_touched

        scene = Scene("one", 32, 32, [MipmappedTexture(64, 64)])
        scene.add(
            Triangle(
                Vertex(0, 0, offset, offset),
                Vertex(30, 0, offset + 30 * scale, offset),
                Vertex(0, 30, offset, offset + 30 * scale),
            )
        )
        fragments = len(scene.fragments())
        unique = unique_texels_touched(scene)
        assert unique <= 8 * fragments
