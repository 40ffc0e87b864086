"""Property-based B+ tree tests: equivalence with a dict model."""

from bisect import bisect_right, insort

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import BPlusTree

# Small key domain forces collisions (upserts) and dense structure churn.
keys_st = st.integers(min_value=-50, max_value=50)
ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), keys_st, st.integers()),
        st.tuples(st.just("delete"), keys_st, st.none()),
        st.tuples(st.just("get"), keys_st, st.none()),
    ),
    max_size=200,
)


@given(ops=ops_st, branching=st.integers(min_value=3, max_value=9))
@settings(max_examples=120, deadline=None)
def test_matches_dict_model(ops, branching):
    tree = BPlusTree(branching=branching)
    model = {}
    for op, key, value in ops:
        if op == "insert":
            tree.insert(key, value)
            model[key] = value
        elif op == "delete":
            if key in model:
                assert tree.delete(key) == model.pop(key)
            else:
                assert tree.pop(key, "missing") == "missing"
        else:
            assert tree.get(key, "missing") == model.get(key, "missing")
    tree.validate()
    assert len(tree) == len(model)
    assert list(tree.items()) == sorted(model.items())


@given(keys=st.lists(st.integers(min_value=-1000, max_value=1000), max_size=150))
@settings(max_examples=100, deadline=None)
def test_ordered_queries_match_sorted_list(keys):
    tree = BPlusTree(branching=4)
    sorted_keys = []
    for k in keys:
        if tree.insert(k, k):
            insort(sorted_keys, k)

    for probe in list(sorted_keys[:5]) + [-2000, 0, 37, 2000]:
        i = bisect_right(sorted_keys, probe)
        expected_floor = sorted_keys[i - 1] if i else None
        floor = tree.floor_item(probe)
        assert (floor[0] if floor else None) == expected_floor


@given(
    keys=st.sets(st.integers(min_value=0, max_value=500), max_size=120),
    lo=st.integers(min_value=-10, max_value=510),
    span=st.integers(min_value=0, max_value=200),
)
@settings(max_examples=100, deadline=None)
def test_range_items_match_slice(keys, lo, span):
    hi = lo + span
    tree = BPlusTree(branching=4)
    for k in keys:
        tree.insert(k, -k)
    expected = [(k, -k) for k in sorted(keys) if lo <= k <= hi]
    assert list(tree.range_items(lo, hi)) == expected


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_bulk_load_matches_inserts(data):
    keys = sorted(
        data.draw(st.sets(st.integers(min_value=0, max_value=10_000), max_size=300))
    )
    fill = data.draw(st.sampled_from([0.5, 0.75, 1.0]))
    branching = data.draw(st.integers(min_value=3, max_value=8))
    bulk = BPlusTree(branching=branching)
    bulk.bulk_load([(k, k) for k in keys], fill=fill)
    bulk.validate()
    assert list(bulk.keys()) == keys
    assert len(bulk) == len(keys)
