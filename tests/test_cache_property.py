"""Property tests: ``LruCache.simulate`` agrees with the stepwise oracle.

The vectorised replay (``simulate``) must produce miss masks that are
bit-identical to the stepwise reference (``ReferenceLru.access`` in
``tests/oracles``) no matter how the stream is chunked, how the two
entry points are interleaved on one stateful cache instance, or how
skewed the address distribution is.
The timing model depends on this equivalence: the machine simulator
replays caches in per-node chunks whose boundaries depend on the
distribution, and the golden-value suite pins the resulting numbers.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, LruCache
from tests.conftest import (
    footprint_stream,
    periodic_rereads,
    shared_set_stream,
    window_cuts,
)
from tests.oracles import ReferenceLru


def geometry(sets: int, ways: int) -> CacheConfig:
    return CacheConfig(total_bytes=64 * sets * ways, line_bytes=64, ways=ways)


def reference_mask(cache: ReferenceLru, lines) -> np.ndarray:
    """Stepwise miss mask via the oracle's ``access`` (mutates ``cache``)."""
    return np.array([not cache.access(line) for line in lines], dtype=bool)


# Streams mix uniform lines with a hot cluster so both capacity misses
# and long hit runs (the consecutive-duplicate fast path) occur.
line_values = st.one_of(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=6),
)
streams = st.lists(line_values, min_size=0, max_size=400)
geometries = st.tuples(
    st.sampled_from([1, 2, 4, 8]), st.integers(min_value=1, max_value=4)
)


class TestAccessSimulateEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(stream=streams, geo=geometries, data=st.data())
    def test_randomly_chunked_simulate_matches_access(self, stream, geo, data):
        """Any chunking of ``simulate`` equals one ``access`` walk."""
        stream = np.asarray(stream, dtype=np.int64)
        config = geometry(*geo)
        expected = reference_mask(ReferenceLru(config), stream)

        chunked = LruCache(config)
        masks = []
        start = 0
        while start < len(stream):
            width = data.draw(
                st.integers(min_value=1, max_value=len(stream) - start),
                label="chunk_width",
            )
            masks.append(chunked.simulate(stream[start:start + width]))
            start += width
        got = (
            np.concatenate(masks) if masks else np.zeros(0, dtype=bool)
        )
        assert got.dtype == np.bool_
        assert (got == expected).all()

    @settings(max_examples=60, deadline=None)
    @given(stream=streams, geo=geometries, data=st.data())
    def test_interleaved_access_and_simulate_share_state(self, stream, geo, data):
        """Mixing the two entry points on ONE cache stays bit-identical.

        This is the stateful-across-calls guarantee: ``simulate`` must
        leave the recency stacks exactly where ``access`` would have,
        and vice versa, even across empty chunks.
        """
        stream = np.asarray(stream, dtype=np.int64)
        config = geometry(*geo)
        expected = reference_mask(ReferenceLru(config), stream)

        mixed = ReferenceLru(config)
        got = np.zeros(len(stream), dtype=bool)
        start = 0
        while start < len(stream):
            width = data.draw(
                st.integers(min_value=0, max_value=len(stream) - start),
                label="chunk_width",
            )
            use_access = data.draw(st.booleans(), label="use_access")
            piece = stream[start:start + width]
            if use_access:
                got[start:start + width] = reference_mask(mixed, piece)
            else:
                got[start:start + width] = mixed.simulate(piece)
            if width == 0:
                # An empty simulate call must not disturb state.
                mixed.simulate(np.zeros(0, dtype=np.int64))
                width = data.draw(st.integers(min_value=1, max_value=4))
                width = min(width, len(stream) - start)
                got[start:start + width] = mixed.simulate(
                    stream[start:start + width]
                )
            start += width
        assert (got == expected).all()

    @settings(max_examples=40, deadline=None)
    @given(
        geo=geometries,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        length=st.integers(min_value=1, max_value=600),
    )
    def test_zipf_like_streams_agree(self, geo, seed, length):
        """Skewed (texture-locality-shaped) streams, chunked in thirds."""
        rng = np.random.default_rng(seed)
        # Square a uniform draw to bias toward low line ids — a crude
        # stand-in for texture working sets with a hot mip level.
        stream = (rng.random(length) ** 2 * 64).astype(np.int64)
        config = geometry(*geo)
        expected = reference_mask(ReferenceLru(config), stream)

        chunked = LruCache(config)
        cuts = sorted(rng.integers(0, length + 1, size=2))
        parts = np.split(stream, cuts)
        got = np.concatenate([chunked.simulate(part) for part in parts])
        assert (got == expected).all()
        # Both walks must also leave identical *future* behaviour.
        probe = np.arange(16, dtype=np.int64)
        fresh_reference = ReferenceLru(config)
        reference_mask(fresh_reference, stream)
        assert (
            chunked.simulate(probe) == reference_mask(fresh_reference, probe)
        ).all()


def set_mru_rereads(stream: np.ndarray, num_sets: int) -> list:
    """Positions re-reading their set's MRU line that are not repeats.

    These are the accesses the batch replay drops beyond plain
    consecutive duplicates; a call that starts at one of them begins
    with a hit on the MRU line the previous call left in its set.
    """
    found, last_in_set = [], {}
    previous = None
    for position, line in enumerate(stream.tolist()):
        if line != previous and last_in_set.get(line % num_sets) == line:
            found.append(position)
        last_in_set[line % num_sets] = previous = line
    return found


# Footprint streams need sets for their lines to spread over; 3 and 6
# cover the modulo (non-power-of-two) set index.
footprint_geometries = st.tuples(
    st.sampled_from([1, 3, 4, 6, 64]), st.integers(min_value=1, max_value=4)
)


class TestFootprintStreams:
    """Texture-shaped streams, where most accesses re-read a set's MRU line."""

    @settings(max_examples=60, deadline=None)
    @given(
        geo=footprint_geometries,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        length=st.integers(min_value=1, max_value=800),
        data=st.data(),
    )
    def test_chunked_simulate_matches_access(self, geo, seed, length, data):
        config = geometry(*geo)
        stream = footprint_stream(np.random.default_rng(seed), config.num_sets, length)
        reference = ReferenceLru(config)
        expected = reference_mask(reference, stream)

        # One call boundary lands on an access that hits the MRU line
        # its set kept from the previous call, when the stream has one.
        cuts = data.draw(
            st.lists(st.integers(min_value=0, max_value=length), max_size=4),
            label="cuts",
        )
        rereads = set_mru_rereads(stream, config.num_sets)
        if rereads:
            cuts.append(data.draw(st.sampled_from(rereads), label="mru_cut"))
        chunked = LruCache(config)
        got = np.concatenate(
            [chunked.simulate(part) for part in np.split(stream, sorted(cuts))]
        )
        assert (got == expected).all()
        assert chunked.contents() == reference.contents()

    def test_call_starting_on_set_mru_hits(self):
        """The entry MRU check: a call whose first access is its set's MRU."""
        config = geometry(3, 2)
        # Lines 4, 7, 10 and 13 share set 1; 5 sits in set 2.  The second
        # call opens on 7 (MRU of set 1, not the last line read) and then
        # on 5 (the last line read by the previous call).  The third
        # opens on 7 again, now set 1's LRU line: a hit that reorders
        # the set, so 13 must evict 10 and the final 7 must hit.
        calls = [[4, 7, 5], [7, 5, 4, 7, 10], [7, 13, 7]]
        reference = ReferenceLru(config)
        expected = reference_mask(reference, sum(calls, []))
        cache = LruCache(config)
        got = np.concatenate(
            [cache.simulate(np.asarray(call, dtype=np.int64)) for call in calls]
        )
        assert got.tolist() == expected.tolist()
        assert got[3:5].tolist() == [False, False]
        assert got[8:].tolist() == [False, True, False]
        assert cache.contents() == reference.contents()

    def test_streams_are_dominated_by_set_mru_rereads(self):
        """The generator exercises the re-read filter, unlike uniform streams."""
        stream = footprint_stream(np.random.default_rng(5), 64, 4000)
        repeats = int(np.count_nonzero(stream[1:] == stream[:-1]))
        assert len(set_mru_rereads(stream, 64)) + repeats > 0.6 * len(stream)


class TestSharedSetStreams:
    """Footprints whose lines share a set: periodic per-set re-reads.

    In a set's own order these streams run through periods of 2-4
    accesses, the runs the batch replay drops whole repeats of.  Call
    boundaries land inside those runs, so a call can open mid-run and
    cut a period in two, and inside the stream-order MRU window, so a
    re-read and the access it repeats fall in different calls.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        ways=st.sampled_from([1, 2, 3, 4, 8]),
        sets=st.sampled_from([1, 3, 4, 64]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        length=st.integers(min_value=1, max_value=800),
        data=st.data(),
    )
    def test_chunked_simulate_matches_access(self, ways, sets, seed, length, data):
        config = geometry(sets, ways)
        stream = shared_set_stream(np.random.default_rng(seed), sets, length)
        reference = ReferenceLru(config)
        expected = reference_mask(reference, stream)

        cuts = data.draw(
            st.lists(st.integers(min_value=0, max_value=length), max_size=3),
            label="cuts",
        )
        for period in (2, 3, 4):
            inside = periodic_rereads(stream, sets, period)
            if inside:
                cuts.append(data.draw(st.sampled_from(inside), label=f"cut_{period}"))
        inside = window_cuts(stream, sets)
        if inside:
            cuts.append(data.draw(st.sampled_from(inside), label="cut_window"))
        chunked = LruCache(config)
        got = np.concatenate(
            [chunked.simulate(part) for part in np.split(stream, sorted(cuts))]
        )
        assert (got == expected).all()
        assert chunked.contents() == reference.contents()

    def test_streams_run_through_same_set_periods(self):
        """The generator exercises periods 2-4 in a set's own order."""
        stream = shared_set_stream(np.random.default_rng(11), 4, 4000)
        for period in (2, 3, 4):
            assert len(periodic_rereads(stream, 4, period)) > 0.05 * len(stream)
