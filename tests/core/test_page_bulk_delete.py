"""The bulk delete path: scalar equivalence, edge cases.

Pins the PR's delete contract at the core layer:

* ``PagedIndexBase.delete_batch`` leaves exactly the state a loop of
  scalar ``delete`` calls (sorted order, ties in request order) leaves —
  including page rebuilds triggered by deletion widening — and returns
  the same values;
* deleted keys then miss on lookup; deleting an absent key is a no-op
  under ``missing="ignore"`` and raises under ``missing="raise"``;
* interleaved insert/delete batches stay equivalent to their scalar twin.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import KeyNotFoundError
from repro.core.fiting_tree import FITingTree

key_st = st.integers(min_value=0, max_value=120).map(float)


def build_pair(build, error=24, buffer_capacity=6):
    arr = np.asarray(sorted(build), dtype=np.float64)
    ref = FITingTree(arr, error=error, buffer_capacity=buffer_capacity)
    bulk = FITingTree(arr, error=error, buffer_capacity=buffer_capacity)
    return ref, bulk


def state_of(index):
    return [
        (
            page.start_key,
            page.keys.tolist(),
            list(page.values),
            [float(k) for k in page.buf_keys],
            list(page.buf_values),
            page.deletions,
            None if page.dead is None else page.dead.tolist(),
        )
        for page in index.pages()
    ]


def scalar_delete_loop(index, keys):
    """The reference semantics: scalar deletes in stable-sorted order."""
    out = []
    order = np.argsort(np.asarray(keys, dtype=np.float64), kind="stable")
    sorted_back = np.empty(len(keys), dtype=object)
    for pos in order:
        try:
            sorted_back[pos] = index.delete(float(keys[pos]))
        except KeyNotFoundError:
            sorted_back[pos] = None
    out = list(sorted_back)
    return out


class TestScalarEquivalence:
    @given(
        build=st.lists(key_st, min_size=1, max_size=150),
        inserts=st.lists(key_st, max_size=60),
        deletes=st.lists(key_st, min_size=1, max_size=120),
    )
    @settings(max_examples=120, deadline=None)
    def test_state_values_and_counters_match(self, build, inserts, deletes):
        ref, bulk = build_pair(build)
        if inserts:
            ins = np.asarray(inserts, dtype=np.float64)
            ref.insert_batch(ins)
            bulk.insert_batch(ins)
        want = scalar_delete_loop(ref, deletes)
        got = bulk.delete_batch(deletes, missing="ignore", default=None)
        assert list(got) == want
        bulk.validate()
        assert state_of(ref) == state_of(bulk)
        assert list(ref.items()) == list(bulk.items())

    @given(
        build=st.lists(key_st, min_size=1, max_size=100),
        rounds=st.lists(
            st.tuples(
                st.lists(key_st, max_size=25), st.lists(key_st, max_size=25)
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_interleaved_insert_delete_rounds(self, build, rounds):
        ref, bulk = build_pair(build, error=16, buffer_capacity=4)
        for inserts, deletes in rounds:
            if inserts:
                ins = np.asarray(inserts, dtype=np.float64)
                ref.insert_batch(ins)
                bulk.insert_batch(ins)
            if deletes:
                scalar_delete_loop(ref, deletes)
                bulk.delete_batch(deletes, missing="ignore")
            assert state_of(ref) == state_of(bulk)
        bulk.validate()


class TestDeleteSemantics:
    def test_delete_then_lookup_misses(self):
        keys = np.sort(np.random.default_rng(0).uniform(0, 1e4, 4_000))
        index = FITingTree(keys, error=64, buffer_capacity=16)
        victims = keys[100:2100:2]
        got = index.delete_batch(victims)
        assert (got == np.arange(100, 2100, 2)).all()
        sentinel = object()
        assert all(index.get(k, sentinel) is sentinel for k in victims[:200])
        survivors = keys[101:2101:2]
        assert (index.get_batch(survivors) == np.arange(101, 2101, 2)).all()
        assert len(index) == keys.size - victims.size
        index.validate()

    def test_delete_absent_ignore_is_noop(self):
        keys = np.sort(np.random.default_rng(1).uniform(0, 1e4, 1_000))
        index = FITingTree(keys, error=32, buffer_capacity=8)
        before = state_of(index)
        version = index.version
        out = index.delete_batch(
            [-5.0, 2e9, keys[0] + 1e-7], missing="ignore", default="gone"
        )
        assert list(out) == ["gone"] * 3
        assert state_of(index) == before
        assert index.version == version  # strict no-op, views stay valid

    def test_delete_absent_raises_after_applying_earlier_keys(self):
        keys = np.asarray([1.0, 2.0, 3.0, 4.0])
        index = FITingTree(keys, error=8, buffer_capacity=2)
        with pytest.raises(KeyNotFoundError):
            index.delete_batch([2.0, 2.5])  # 2.0 applies, then 2.5 raises
        sentinel = object()
        assert index.get(2.0, sentinel) is sentinel
        assert len(index) == 3

    def test_empty_batch_is_strict_noop(self):
        index = FITingTree(np.asarray([1.0, 2.0]), error=8, buffer_capacity=2)
        version = index.version
        out = index.delete_batch(np.empty(0))
        assert out.size == 0
        assert index.version == version

    def test_duplicate_requests_consume_occurrences_then_miss(self):
        keys = np.asarray([1.0, 2.0, 2.0, 2.0, 3.0])
        index = FITingTree(keys, error=8, buffer_capacity=2)
        out = index.delete_batch([2.0] * 5, missing="ignore", default=None)
        assert sorted(v for v in out if v is not None) == [1, 2, 3]
        assert list(out).count(None) == 2
        sentinel = object()
        assert index.get(2.0, sentinel) is sentinel

    def test_deletion_widening_triggers_rebuild_like_scalar(self):
        keys = np.sort(np.random.default_rng(2).uniform(0, 1e4, 2_000))
        ref = FITingTree(keys, error=24, buffer_capacity=6)
        bulk = FITingTree(keys, error=24, buffer_capacity=6)
        victims = keys[::3]  # enough deletions per page to force rebuilds
        scalar_delete_loop(ref, victims)
        bulk.delete_batch(victims)
        assert state_of(ref) == state_of(bulk)
        bulk.validate()
        assert all(p.deletions < 6 for p in bulk.pages())

    def test_buffered_occurrences_deleted_before_data(self):
        index = FITingTree(np.asarray([1.0, 2.0, 3.0]), error=16,
                           buffer_capacity=8)
        index.insert(2.0, 99)  # buffered duplicate of a data key
        out = index.delete_batch([2.0, 2.0])
        assert list(out) == [99, 1]  # buffer first, then the data slot
