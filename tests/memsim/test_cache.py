"""Set-associative LRU cache simulator and multi-level chaining."""

import pytest

from repro.core.errors import InvalidParameterError
from repro.memsim import AddressSpace, CacheSim


class TestCacheSim:
    def test_cold_miss_then_hit(self):
        cache = CacheSim(capacity_bytes=1024, line_size=64, ways=2)
        assert cache.access(0) == 1  # cold miss
        assert cache.access(0) == 0  # hit
        assert cache.access(8) == 0  # same line
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1

    def test_lru_eviction_within_set(self):
        # 2 lines total, fully associative (1 set, 2 ways).
        cache = CacheSim(capacity_bytes=128, line_size=64, ways=2)
        cache.access(0)    # line 0
        cache.access(64)   # line 1
        cache.access(128)  # line 2 evicts line 0 (LRU)
        assert cache.access(64) == 0   # still cached
        assert cache.access(0) == 1    # was evicted

    def test_lru_order_updated_on_hit(self):
        cache = CacheSim(capacity_bytes=128, line_size=64, ways=2)
        cache.access(0)
        cache.access(64)
        cache.access(0)     # touch line 0: now line 1 is LRU
        cache.access(128)   # evicts line 1
        assert cache.access(0) == 0
        assert cache.access(64) == 1

    def test_set_mapping_conflicts(self):
        # 4 lines, 1 way: direct mapped with 4 sets. Lines 0 and 4 collide.
        cache = CacheSim(capacity_bytes=256, line_size=64, ways=1)
        cache.access(0)
        cache.access(4 * 64)
        assert cache.access(0) == 1  # conflict-evicted despite capacity

    def test_multi_line_access(self):
        cache = CacheSim(capacity_bytes=1024, line_size=64, ways=4)
        misses = cache.access(0, size=200)  # spans 4 lines
        assert misses == 4

    def test_replay_and_reset(self):
        cache = CacheSim(capacity_bytes=1024, line_size=64, ways=4)
        stats = cache.replay([(0, 8), (0, 8), (64, 8)])
        assert stats.accesses == 3
        assert stats.misses == 2
        assert stats.miss_ratio == pytest.approx(2 / 3)
        cache.reset()
        assert cache.stats.accesses == 0

    def test_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            CacheSim(capacity_bytes=0)
        with pytest.raises(InvalidParameterError):
            CacheSim(capacity_bytes=64 * 9, line_size=64, ways=6)  # 9 % 6 != 0
        with pytest.raises(InvalidParameterError):
            CacheSim(capacity_bytes=32, line_size=64)  # smaller than a line
        with pytest.raises(InvalidParameterError):
            CacheSim(capacity_bytes=1024).access(0, size=0)

    def test_ways_clamped_to_line_count(self):
        # Requesting more ways than lines degrades to fully associative.
        cache = CacheSim(capacity_bytes=128, line_size=64, ways=16)
        assert cache.ways == 2
        assert cache.n_sets == 1

    def test_working_set_behaviour(self):
        # Working set fits: steady-state hit ratio ~1; doesn't fit: misses.
        cache = CacheSim(capacity_bytes=64 * 16, line_size=64, ways=16)
        fitting = [(i * 64, 8) for i in range(16)] * 10
        cache.replay(fitting[:16])  # warm up
        stats = cache.replay(fitting[16:])
        assert stats.miss_ratio == 0.0
        cache.reset()
        thrashing = [(i * 64, 8) for i in range(32)] * 10
        stats = cache.replay(thrashing)
        assert stats.miss_ratio > 0.9


class TestAddressSpace:
    def test_alignment(self):
        space = AddressSpace(base=0, align=64)
        a = space.alloc(10)
        b = space.alloc(10)
        assert a % 64 == 0
        assert b % 64 == 0
        assert b > a

    def test_of_memoizes_per_object(self):
        space = AddressSpace()
        obj = object()
        assert space.of(obj, 100) == space.of(obj, 100)
        other = object()
        assert space.of(other, 100) != space.of(obj, 100)

    def test_bytes_allocated(self):
        space = AddressSpace()
        space.of(object(), 100)
        space.of(object(), 50)
        assert space.bytes_allocated == 150

    def test_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            AddressSpace(align=3)
        with pytest.raises(InvalidParameterError):
            AddressSpace().alloc(0)
