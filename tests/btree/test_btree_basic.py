"""Basic B+ tree operations: get/insert/contains/iteration."""

import pytest

from repro.btree import BPlusTree
from repro.core.errors import InvalidParameterError, KeyNotFoundError


def make_tree(items, branching=4):
    tree = BPlusTree(branching=branching)
    for k, v in items:
        tree.insert(k, v)
    return tree


class TestConstruction:
    def test_empty_tree(self):
        tree = BPlusTree()
        assert len(tree) == 0
        assert not tree
        assert tree.height == 0
        assert tree.get(1) is None
        tree.validate()

    def test_branching_too_small_rejected(self):
        with pytest.raises(InvalidParameterError):
            BPlusTree(branching=2)

    def test_leaf_capacity_too_small_rejected(self):
        with pytest.raises(InvalidParameterError):
            BPlusTree(leaf_capacity=1)

    def test_default_leaf_capacity_follows_branching(self):
        tree = BPlusTree(branching=7)
        assert tree.leaf_capacity == 7


class TestInsertGet:
    def test_single_insert(self):
        tree = BPlusTree()
        assert tree.insert(5, "five")
        assert tree.get(5) == "five"
        assert len(tree) == 1
        assert tree.height == 1

    def test_many_inserts_ascending(self):
        tree = make_tree((i, i * 10) for i in range(200))
        assert len(tree) == 200
        for i in range(200):
            assert tree.get(i) == i * 10
        tree.validate()

    def test_many_inserts_descending(self):
        tree = make_tree((i, i) for i in range(199, -1, -1))
        assert len(tree) == 200
        assert list(tree.keys()) == list(range(200))
        tree.validate()

    def test_upsert_replaces_value(self):
        tree = make_tree([(1, "a")])
        assert not tree.insert(1, "b")  # existing key: not new
        assert tree.get(1) == "b"
        assert len(tree) == 1

    def test_get_missing_returns_default(self):
        tree = make_tree([(1, "a")])
        assert tree.get(2) is None
        assert tree.get(2, "fallback") == "fallback"

    def test_contains(self):
        tree = make_tree([(1, "a"), (3, "c")])
        assert 1 in tree
        assert 2 not in tree

    def test_contains_none_value(self):
        tree = make_tree([(1, None)])
        assert 1 in tree

    def test_getitem_and_setitem(self):
        tree = BPlusTree()
        tree[3] = "x"
        assert tree[3] == "x"
        with pytest.raises(KeyNotFoundError):
            tree[4]

    def test_float_keys(self):
        tree = make_tree([(0.5, "a"), (1.25, "b"), (-3.75, "c")])
        assert tree.get(1.25) == "b"
        assert tree.get(-3.75) == "c"

    def test_tuple_keys(self):
        tree = make_tree([((1, 0.0), "a"), ((1, 1.0), "b"), ((2, 0.0), "c")])
        assert tree.get((1, 1.0)) == "b"
        assert tree.floor_item((1, 0.5)) == ((1, 0.0), "a")


class TestIteration:
    def test_items_sorted(self, rng):
        keys = rng.permutation(500)
        tree = make_tree((int(k), int(k) * 2) for k in keys)
        items = list(tree.items())
        assert items == [(i, i * 2) for i in range(500)]

    def test_keys_values_aligned(self):
        tree = make_tree([(2, "b"), (1, "a"), (3, "c")])
        assert list(tree.keys()) == [1, 2, 3]
        assert list(tree.values()) == ["a", "b", "c"]
        assert list(iter(tree)) == [1, 2, 3]

    def test_clear(self):
        tree = make_tree((i, i) for i in range(50))
        tree.clear()
        assert len(tree) == 0
        assert list(tree.items()) == []
        tree.validate()
        tree.insert(1, 1)
        assert tree.get(1) == 1


class TestStructure:
    def test_height_grows_logarithmically(self):
        tree = make_tree(((i, i) for i in range(1000)), branching=4)
        # 4-ary tree over 1000 keys: height must be bounded by ~log2(1000).
        assert 4 <= tree.height <= 10

    def test_node_counts(self):
        tree = make_tree(((i, i) for i in range(100)), branching=4)
        inner, leaves = tree.node_counts()
        assert leaves >= 100 // 4
        assert inner >= 1

    def test_model_bytes_scales_with_entries(self):
        t1 = make_tree((i, i) for i in range(100))
        t2 = make_tree((i, i) for i in range(1000))
        assert t2.model_bytes() > t1.model_bytes() * 5
        # At minimum the leaf level: 16 bytes per entry.
        assert t1.model_bytes() >= 100 * 16

    def test_counter_counts_descent(self):
        from repro.memsim import AccessCounter

        counter = AccessCounter()
        tree = BPlusTree(branching=4, counter=counter)
        for i in range(200):
            tree.insert(i, i)
        counter.reset()
        tree.get(137)
        assert counter.tree_nodes == tree.height
