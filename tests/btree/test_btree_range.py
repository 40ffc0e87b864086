"""Ordered queries: floor and range scans."""

import pytest

from repro.btree import BPlusTree


@pytest.fixture
def tree():
    t = BPlusTree(branching=4)
    for i in range(0, 100, 10):  # 0, 10, ..., 90
        t.insert(i, f"v{i}")
    return t


class TestFloorCeiling:
    def test_floor_exact(self, tree):
        assert tree.floor_item(50) == (50, "v50")

    def test_floor_between(self, tree):
        assert tree.floor_item(55) == (50, "v50")

    def test_floor_below_min(self, tree):
        assert tree.floor_item(-1) is None

    def test_floor_above_max(self, tree):
        assert tree.floor_item(1000) == (90, "v90")

    def test_empty_tree_queries(self):
        t = BPlusTree()
        assert t.floor_item(1) is None

    def test_floor_across_leaf_boundary(self):
        # Force a query to land on a leaf whose smallest key exceeds it.
        t = BPlusTree(branching=3)
        for i in range(30):
            t.insert(i * 2, i)  # even keys
        for odd in range(1, 59, 2):
            assert t.floor_item(odd)[0] == odd - 1


class TestRangeItems:
    def test_full_range(self, tree):
        assert len(list(tree.range_items())) == 10

    def test_closed_range(self, tree):
        items = list(tree.range_items(20, 50))
        assert [k for k, _ in items] == [20, 30, 40, 50]

    def test_open_lo(self, tree):
        items = list(tree.range_items(20, 50, include_lo=False))
        assert [k for k, _ in items] == [30, 40, 50]

    def test_open_hi(self, tree):
        items = list(tree.range_items(20, 50, include_hi=False))
        assert [k for k, _ in items] == [20, 30, 40]

    def test_bounds_between_keys(self, tree):
        items = list(tree.range_items(15, 45))
        assert [k for k, _ in items] == [20, 30, 40]

    def test_empty_range(self, tree):
        assert list(tree.range_items(51, 59)) == []

    def test_range_outside_domain(self, tree):
        assert list(tree.range_items(1000, 2000)) == []
        assert [k for k, _ in tree.range_items(-100, -1)] == []

    def test_unbounded_lo(self, tree):
        items = list(tree.range_items(hi=30))
        assert [k for k, _ in items] == [0, 10, 20, 30]

    def test_unbounded_hi(self, tree):
        items = list(tree.range_items(lo=70))
        assert [k for k, _ in items] == [70, 80, 90]

    def test_empty_tree_range(self):
        assert list(BPlusTree().range_items(0, 10)) == []

    def test_large_range_crosses_many_leaves(self):
        t = BPlusTree(branching=3)
        for i in range(500):
            t.insert(i, i)
        items = list(t.range_items(100, 399))
        assert [k for k, _ in items] == list(range(100, 400))
