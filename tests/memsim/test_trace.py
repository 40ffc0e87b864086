"""Address-trace generation and cache replay of B+ tree lookups."""

import numpy as np

from repro.btree import BPlusTree
from repro.memsim import AddressSpace, CacheSim, lookup_trace


def build_tree(n=2_000, branching=8):
    tree = BPlusTree(branching=branching)
    for i in range(n):
        tree.insert(float(i), i)
    return tree


class TestLookupTrace:
    def test_trace_length_tracks_height(self):
        tree = build_tree()
        space = AddressSpace()
        trace = lookup_trace(tree, 1234.0, space)
        # height-1 inner nodes + >=1 probe in the leaf.
        assert len(trace) >= tree.height

    def test_empty_tree_empty_trace(self):
        assert lookup_trace(BPlusTree(), 1.0, AddressSpace()) == []

    def test_addresses_stable_across_lookups(self):
        tree = build_tree()
        space = AddressSpace()
        t1 = lookup_trace(tree, 500.0, space)
        t2 = lookup_trace(tree, 500.0, space)
        assert t1 == t2

    def test_different_keys_share_root(self):
        tree = build_tree()
        space = AddressSpace()
        t1 = lookup_trace(tree, 10.0, space)
        t2 = lookup_trace(tree, 1990.0, space)
        assert t1[0][0] == t2[0][0]  # same root address
        assert t1[-1][0] != t2[-1][0]  # different leaves

    def test_repeated_lookups_become_cache_hits(self):
        tree = build_tree()
        space = AddressSpace()
        cache = CacheSim(capacity_bytes=1 << 20, line_size=64, ways=8)
        first = cache.replay(lookup_trace(tree, 777.0, space))
        again = cache.replay(lookup_trace(tree, 777.0, space))
        assert first.misses > 0
        assert again.misses == 0

    def test_scattered_lookups_thrash_small_cache(self):
        tree = build_tree(5_000)
        space = AddressSpace()
        cache = CacheSim(capacity_bytes=4 * 1024, line_size=64, ways=4)
        rng = np.random.default_rng(0)
        misses = 0
        for q in rng.uniform(0, 5_000, 200):
            misses += cache.replay(lookup_trace(tree, float(q), space)).misses
        # A 4KB cache cannot hold a 5k-entry tree: most lookups miss.
        assert misses > 200

