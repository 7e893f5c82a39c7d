"""Tests for the cache simulator: LRU correctness and cache models.

Behaviour tests drive the shipped ``LruCache.simulate``; equivalence
properties compare it with the stepwise oracle in ``tests/oracles``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, LruCache, NoCache, PerfectCache, make_cache_model
from repro.cache.models import RealCache
from repro.errors import ConfigurationError
from tests.oracles import ReferenceLru


def tiny_config(sets=2, ways=2):
    return CacheConfig(total_bytes=64 * sets * ways, line_bytes=64, ways=ways)


class TestCacheConfig:
    def test_default_matches_paper(self):
        config = CacheConfig()
        assert config.total_bytes == 16384
        assert config.line_bytes == 64
        assert config.ways == 4
        assert config.num_lines == 256
        assert config.num_sets == 64

    def test_rejects_partial_sets(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(total_bytes=1000, line_bytes=64, ways=4)

    def test_rejects_degenerate_geometry(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(total_bytes=32, line_bytes=64)
        with pytest.raises(ConfigurationError):
            CacheConfig(ways=0)


class TestLruReference:
    """Concrete true-LRU behaviour, driven through the shipped ``simulate``."""

    def test_first_access_misses_then_hits(self):
        cache = LruCache(tiny_config())
        assert cache.simulate(np.array([0])).tolist() == [True]
        assert cache.simulate(np.array([0])).tolist() == [False]

    def test_lru_eviction_order(self):
        # 1 set, 2 ways: every line maps to set 0.
        cache = LruCache(tiny_config(sets=1, ways=2))
        # 10 is re-touched (MRU, 20 LRU), so 30 evicts 20.
        misses = cache.simulate(np.array([10, 20, 10, 30, 10, 20]))
        assert misses.tolist() == [True, True, False, True, False, True]

    def test_sets_are_independent(self):
        cache = LruCache(tiny_config(sets=2, ways=1))
        # 0 and 2 share set 0 (one way); 1 sits alone in set 1, so
        # 2 evicting 0 leaves it untouched.
        misses = cache.simulate(np.array([0, 1, 0, 1, 2, 1, 0]))
        assert misses.tolist() == [True, True, False, False, True, False, True]

    def test_contents_snapshot_mru_first(self):
        cache = LruCache(tiny_config(sets=1, ways=3))
        cache.simulate(np.array([1, 2, 3, 1]))
        assert cache.contents()[0] == [1, 3, 2]

    def test_reset_empties_cache(self):
        cache = LruCache(tiny_config())
        cache.simulate(np.array([5]))
        cache.reset()
        assert cache.contents() == {}
        assert cache.simulate(np.array([5])).tolist() == [True]

    @pytest.mark.parametrize("line", [-1, 2**62], ids=["negative", "key-overflow"])
    def test_rejects_unreplayable_line_addresses(self, line):
        cache = LruCache(tiny_config())
        with pytest.raises(ConfigurationError, match="cache line addresses"):
            cache.simulate(np.array([0, line], dtype=np.int64))


class TestLruBatched:
    def test_matches_reference_on_simple_stream(self):
        stream = np.array([0, 1, 0, 2, 64, 0, 1, 1, 1, 2])
        batched = LruCache(CacheConfig())
        reference = ReferenceLru(CacheConfig())
        got = batched.simulate(stream)
        want = np.array([not reference.access(line) for line in stream])
        assert (got == want).all()

    def test_empty_stream(self):
        cache = LruCache(CacheConfig())
        assert cache.simulate(np.array([], dtype=np.int64)).size == 0

    def test_statefulness_across_chunks(self):
        stream = np.arange(100) % 7
        whole = LruCache(tiny_config(sets=2, ways=2)).simulate(stream)
        chunked_cache = LruCache(tiny_config(sets=2, ways=2))
        parts = [chunked_cache.simulate(chunk) for chunk in np.array_split(stream, 7)]
        assert (np.concatenate(parts) == whole).all()

    def test_consecutive_duplicates_always_hit(self):
        cache = LruCache(tiny_config())
        misses = cache.simulate(np.array([9, 9, 9, 9]))
        assert misses.tolist() == [True, False, False, False]

    def test_duplicate_hit_survives_chunk_boundary(self):
        cache = LruCache(tiny_config(sets=1, ways=1))
        first = cache.simulate(np.array([3]))
        second = cache.simulate(np.array([3, 3]))
        assert first.tolist() == [True]
        assert second.tolist() == [False, False]

    @settings(max_examples=60, deadline=None)
    @given(
        stream=st.lists(st.integers(min_value=0, max_value=40), min_size=0, max_size=300),
        sets=st.sampled_from([1, 2, 4, 8]),
        ways=st.integers(min_value=1, max_value=4),
    )
    def test_property_batched_equals_reference(self, stream, sets, ways):
        """The vectorised replay is bit-identical to the stepwise LRU."""
        config = tiny_config(sets=sets, ways=ways)
        stream = np.asarray(stream, dtype=np.int64)
        batched = LruCache(config).simulate(stream)
        reference = ReferenceLru(config)
        expected = np.array(
            [not reference.access(line) for line in stream], dtype=bool
        )
        assert (batched == expected).all()

    @settings(max_examples=30, deadline=None)
    @given(
        stream=st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=200),
        cut=st.integers(min_value=0, max_value=200),
    )
    def test_property_chunking_is_transparent(self, stream, cut):
        stream = np.asarray(stream, dtype=np.int64)
        cut = min(cut, len(stream))
        config = tiny_config(sets=4, ways=2)
        whole = LruCache(config).simulate(stream)
        cache = LruCache(config)
        split = np.concatenate([cache.simulate(stream[:cut]), cache.simulate(stream[cut:])])
        assert (split == whole).all()

    def test_miss_count_bounded_by_unique_lines_with_huge_cache(self):
        config = CacheConfig(total_bytes=1 << 20, line_bytes=64, ways=4)
        stream = np.random.default_rng(0).integers(0, 500, size=5000)
        misses = LruCache(config).simulate(stream)
        assert misses.sum() == len(np.unique(stream))



class TestPeriodicRereads:
    """Same-set cycles, which the replay drops whole periods of."""

    # Lines 1, 5, 9, 13 and 17 all sit in set 1 of a 4-set cache.
    A, B, C, D, E = 1, 5, 9, 13, 17

    def test_period_two_at_two_ways_hits_after_two_misses(self):
        cache = LruCache(tiny_config(sets=4, ways=2))
        misses = cache.simulate(np.array([self.A, self.B] * 3))
        assert misses.tolist() == [True, True, False, False, False, False]
        assert cache.contents() == {1: [self.B, self.A]}

    def test_period_two_at_one_way_always_misses(self):
        cache = LruCache(tiny_config(sets=4, ways=1))
        misses = cache.simulate(np.array([self.A, self.B] * 3))
        assert misses.tolist() == [True] * 6
        assert cache.contents() == {1: [self.B]}

    def test_period_longer_than_the_ways_is_replayed(self):
        """``(A B C) x 3`` at two ways: k > W, so every access misses."""
        config = tiny_config(sets=4, ways=2)
        stream = np.array([self.A, self.B, self.C] * 3)
        cache, reference = LruCache(config), ReferenceLru(config)
        misses = cache.simulate(stream)
        assert misses.tolist() == reference.replay(stream).tolist() == [True] * 9
        assert cache.contents() == reference.contents() == {1: [self.C, self.B]}

    def test_period_four_spanning_two_calls(self):
        config = tiny_config(sets=4, ways=4)
        cycle = [self.A, self.B, self.C, self.D]
        # Each call holds a whole repeat of the period and cuts the next.
        calls = [cycle * 2 + cycle[:2], cycle[2:] + cycle * 2 + [self.E]]
        cache, reference = LruCache(config), ReferenceLru(config)
        got = [cache.simulate(np.array(call)).tolist() for call in calls]
        want = [reference.replay(np.array(call)).tolist() for call in calls]
        assert got == want
        assert got == [[True] * 4 + [False] * 6, [False] * 10 + [True]]
        # E evicts A, the least recently used line of the cycle.
        assert cache.contents() == reference.contents()
        assert cache.contents() == {1: [self.E, self.D, self.C, self.B]}


class TestStreamWindow:
    """MRU re-reads in stream order, which the replay drops before its set sort."""

    # In a 4-set cache A and B sit in set 1, X and Y in set 2.
    A, B, X, Y = 1, 5, 2, 6
    # Eight distinct lines of sets 0, 2 and 3, none repeated back to back.
    OTHERS = [2, 3, 4, 6, 7, 8, 10, 11]

    def test_same_set_access_between_keeps_the_reread(self):
        """In ``A B A`` the second A follows B, its set's MRU line: replayed, it hits."""
        cache = LruCache(tiny_config(sets=4, ways=2))
        assert cache.simulate(np.array([self.A, self.B, self.A])).tolist() == [
            True, True, False,
        ]
        assert cache.contents() == {1: [self.A, self.B]}

    def test_other_set_access_between_drops_the_reread(self):
        cache = LruCache(tiny_config(sets=4, ways=2))
        assert cache.simulate(np.array([self.A, self.X, self.A])).tolist() == [
            True, True, False,
        ]
        assert cache.contents() == {1: [self.A], 2: [self.X]}

    @pytest.mark.parametrize("head", [[], [B]])
    def test_same_set_predecessor_nine_positions_back(self, head):
        config = tiny_config(sets=4, ways=2)
        stream = np.array([self.A] + head + self.OTHERS + [self.A])
        cache, reference = LruCache(config), ReferenceLru(config)
        misses = cache.simulate(stream)
        assert misses.tolist() == reference.replay(stream).tolist()
        assert misses.tolist() == [True] * (len(stream) - 1) + [False]
        assert cache.contents() == reference.contents()
        assert cache.contents()[1] == [self.A] + head

    def test_three_sets(self):
        # Lines 1 and 4 sit in set 1 of a 3-set cache, 2 in set 2, 3 in set 0.
        stream = np.array([1, 2, 1, 4, 3, 1, 2, 4, 1, 3, 2, 7, 2, 1])
        config = tiny_config(sets=3, ways=2)
        cache, reference = LruCache(config), ReferenceLru(config)
        expected = [not reference.access(line) for line in stream]
        assert cache.simulate(stream).tolist() == expected
        assert expected == [True, True, False, True, True, False, False,
                            False, False, False, False, True, False, False]
        assert cache.contents() == reference.contents() == {
            0: [3], 1: [1, 7], 2: [2],
        }

    def test_one_way(self):
        cache = LruCache(tiny_config(sets=4, ways=1))
        stream = np.array([self.A, self.X, self.A, self.B, self.A])
        assert cache.simulate(stream).tolist() == [True, True, False, True, True]
        assert cache.contents() == {1: [self.A], 2: [self.X]}

    def test_window_straddling_two_calls(self):
        """The window is per call: history comes from the cache's contents."""
        cache = LruCache(tiny_config(sets=4, ways=2))
        cache.simulate(np.array([self.A, self.B]))
        assert cache.simulate(np.array([self.X, self.A, self.Y])).tolist() == [
            True, False, True,
        ]
        assert cache.contents() == {1: [self.A, self.B], 2: [self.Y, self.X]}
        assert cache.simulate(np.array([self.A, self.X])).tolist() == [False, False]

        cache.reset()
        assert cache.simulate(np.array([self.X, self.A])).tolist() == [True, True]
        other = LruCache(tiny_config(sets=4, ways=2))
        assert other.simulate(np.array([self.Y, self.A])).tolist() == [True, True]

class TestModels:
    def test_factory(self):
        assert isinstance(make_cache_model("perfect"), PerfectCache)
        assert isinstance(make_cache_model("none"), NoCache)
        assert isinstance(make_cache_model("lru"), RealCache)
        with pytest.raises(ConfigurationError):
            make_cache_model("bogus")

    def test_perfect_never_misses(self):
        model = PerfectCache()
        assert model.misses(np.arange(100)).sum() == 0

    def test_nocache_always_fetches_single_texels(self):
        model = NoCache()
        assert model.misses(np.zeros(10)).all()
        assert model.texels_per_fetch == 1

    def test_real_cache_fetches_whole_lines(self):
        model = RealCache()
        assert model.texels_per_fetch == 16
        stream = np.array([0, 0, 1, 0])
        assert model.misses(stream).tolist() == [True, False, True, False]
        model.reset()
        assert model.misses(np.array([0]))[0]
