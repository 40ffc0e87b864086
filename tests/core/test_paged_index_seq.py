"""The page directory: splits, interleaving, pages sharing a start key.

These scenarios target the trickiest part of the paged index: pages that
share a start key (split duplicate runs) must keep their relative data
order across arbitrarily many re-segmentations, and the directory must
stay sorted by start key through every split.
"""

import numpy as np

from repro.core.fiting_tree import FITingTree


def starts_of(index):
    return [page.start_key for page in index.pages()]


def test_split_inserts_between_neighbors():
    keys = np.sort(np.random.default_rng(1).uniform(0, 1e4, 2000))
    t = FITingTree(keys, error=8, buffer_capacity=2)
    for i in range(200):
        t.insert(float(i * 50 % 10_000), 10_000 + i)
    t.validate()
    starts = starts_of(t)
    assert starts == sorted(starts)  # still sorted after many splits
    assert len(starts) == t.n_pages


def test_equal_start_pages_keep_data_order():
    # A duplicate run long enough to split across pages with equal starts.
    keys = np.sort(np.concatenate([np.full(60, 500.0), np.arange(100.0)]))
    t = FITingTree(keys, error=4, buffer_capacity=2)
    assert starts_of(t).count(500.0) > 1
    # All 60 duplicate values recoverable in insertion (rowid) order.
    values = t.lookup_all(500.0)
    assert sorted(values) == values
    assert len(values) == 60


def test_repeated_splits_inside_duplicate_run():
    keys = np.sort(np.concatenate([np.full(60, 500.0), np.arange(100.0)]))
    t = FITingTree(keys, error=4, buffer_capacity=2)
    # Hammer the duplicate-run area with inserts, forcing repeated
    # re-segmentation of equal-start pages.
    for i in range(120):
        t.insert(500.0, 10_000 + i)
    t.validate()
    assert len(t.lookup_all(500.0)) == 180
    starts = starts_of(t)
    assert starts == sorted(starts)


def test_directory_cache_invalidation():
    keys = np.sort(np.random.default_rng(5).uniform(0, 1e3, 500))
    t = FITingTree(keys, error=16, buffer_capacity=2)
    q = [keys[3], keys[400]]
    assert t.bulk_lookup(q) == [3, 400]
    # Mutate; lookups must route through the new directory.
    for i in range(50):
        t.insert(float(i) + 0.5, 1000 + i)
    assert t.bulk_lookup([49.5]) == [1049]
