"""Tombstoned data deletes read exactly like physically removed rows.

A data delete marks its row dead instead of copying the page. The contract
pinned here: an index whose pages carry tombstones answers every read verb,
a batch delete and a snapshot round trip exactly as a twin whose pages hold
the same live rows with the dead ones physically removed (same starts,
slopes, buffers and deletion counts). Plus the regression for a duplicate
run split across pages whose last page lost its copies.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fiting_tree import FITingTree
from repro.core.page import SegmentPage
from repro.engine import flat_view

key_st = st.integers(min_value=0, max_value=60).map(float)


def compacted_twin(tree):
    """``tree`` with every page's dead rows physically removed."""
    twin = FITingTree(
        error=tree.error, buffer_capacity=tree.buffer_capacity,
        search=tree.search_mode,
    )
    copies = []
    for page in tree.pages():
        copy = SegmentPage(page.start_key, page.slope, *page.live_arrays())
        copy.deletions = page.deletions
        copy.buf_keys = page.buf_keys[:]
        copy.buf_values = page.buf_values[:]
        copies.append(copy)
    twin._set_pages(copies)
    twin._n = len(tree)
    twin._next_rowid = tree._next_rowid
    return twin


def assert_same_answers(a, b):
    probes = np.arange(-1.0, 62.0, 0.5)
    assert [a.get(q, -1) for q in probes] == [b.get(q, -1) for q in probes]
    assert a.get_batch(probes, -1).tolist() == b.get_batch(probes, -1).tolist()
    for q in probes:
        assert a.lookup_all(q) == b.lookup_all(q)
    assert list(a.items()) == list(b.items())
    for lo, hi in ((None, None), (0.0, 20.0), (10.5, 10.5), (30.0, 90.0)):
        want = list(b.range_items(lo, hi))
        assert list(a.range_items(lo, hi)) == want
        keys, values = flat_view(a).range_arrays(lo, hi)
        assert list(zip(keys.tolist(), values.tolist())) == want


@given(
    build=st.lists(key_st, min_size=1, max_size=120).map(sorted),
    inserts=st.lists(key_st, max_size=6),
    data=st.data(),
    capacity=st.integers(min_value=4, max_value=12),
    search=st.sampled_from(["binary", "linear", "exponential"]),
)
@settings(max_examples=150, deadline=None)
def test_tombstoned_pages_answer_like_a_compacted_twin(
    build, inserts, data, capacity, search
):
    tree = FITingTree(
        np.asarray(build), error=capacity + 8, buffer_capacity=capacity,
        search=search,
    )
    for key in inserts:
        tree.insert(key)
    doomed = data.draw(st.lists(st.sampled_from(build), max_size=12))
    for key in doomed:
        if key in tree:
            tree.delete(key)
    tree.validate()
    twin = compacted_twin(tree)
    twin.validate()
    assert_same_answers(tree, twin)
    for page, copy in zip(tree.pages(), twin.pages()):
        for got, want in zip(page.merged_arrays(), copy.merged_arrays()):
            assert got.tolist() == want.tolist()
        assert page.n_total == copy.n_total

    state, twin_state = tree.to_state(), twin.to_state()
    for name, arr in state.items():
        if isinstance(arr, np.ndarray):
            assert np.array_equal(arr, twin_state[name]), name
    assert_same_answers(FITingTree.from_state(state), twin)

    requests = np.asarray(data.draw(st.lists(key_st, max_size=10)))
    got = tree.delete_batch(requests, missing="ignore", default=-1)
    want = twin.delete_batch(requests, missing="ignore", default=-1)
    assert got.tolist() == want.tolist()
    tree.validate()
    assert_same_answers(tree, twin)


def test_duplicate_run_survives_deleting_its_last_page_copies():
    tree = FITingTree([0.0], error=4, buffer_capacity=2)
    for key in (0.0, 1.0, 0.0, 0.0, 1.0):
        tree.insert(key)
    tree.delete(0.0)
    tree.delete(1.0)
    # The last page starting at 0.0 lost its copy; three remain before it.
    assert len(tree.lookup_all(0.0)) == 3
    assert tree.get(0.0) is not None
    assert tree.get_batch([0.0])[0] == tree.get(0.0)
    assert tree.bulk_lookup([0.0])[0] == tree.get(0.0)
