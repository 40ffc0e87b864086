"""``bulk_insert`` is result-identical to a loop of scalar inserts.

The bulk write path's contract, pinned at both layers:

* ``SegmentPage.bulk_insert`` produces exactly the buffer a loop of
  ``insert_into_buffer`` would — including the ``bisect_left`` tie order
  (batch ties stack in reverse arrival order, ahead of existing equals);
* ``PagedIndexBase.insert_batch`` produces exactly the index state a loop
  of ``insert`` (in stable key order) would — including mid-batch buffer
  overflows, merge/re-segmentation splits, and object-dtype payloads that
  cannot be represented in the page's values dtype.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidParameterError
from repro.core.fiting_tree import FITingTree
from repro.core.page import SegmentPage

key_st = st.integers(min_value=0, max_value=60).map(float)
batch_st = st.lists(st.tuples(key_st, st.integers(0, 10**6)), max_size=80)


def make_page(data_keys, dtype=np.int64):
    keys = np.asarray(sorted(data_keys), dtype=np.float64)
    return SegmentPage(
        keys[0] if keys.size else 0.0,
        0.0,
        keys,
        np.arange(keys.size).astype(dtype),
    )


def page_state(page):
    return (
        page.keys.tolist(),
        page.values.tolist(),
        [float(k) for k in page.buf_keys],
        [v for v in page.buf_values],
    )


class TestPageLevel:
    @given(
        data_keys=st.lists(key_st, max_size=30),
        pre=batch_st,
        batch=batch_st,
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_loop(self, data_keys, pre, batch):
        """One bulk_insert == the same batch applied key by key."""
        scalar, bulk = make_page(data_keys), make_page(data_keys)
        for k, v in sorted(pre, key=lambda kv: kv[0]):
            scalar.insert_into_buffer(k, v)
            # pre-populate bulk identically (scalar path on both)
            bulk.insert_into_buffer(k, v)
        batch_sorted = sorted(batch, key=lambda kv: kv[0])
        for k, v in batch_sorted:
            scalar.insert_into_buffer(k, v)
        bk = np.asarray([k for k, _ in batch_sorted], dtype=np.float64)
        bv = np.asarray([v for _, v in batch_sorted], dtype=np.int64)
        bulk.bulk_insert(bk, bv)
        assert page_state(scalar) == page_state(bulk)

    def test_tie_order_matches_bisect_left(self):
        """Batch ties land reversed, ahead of previously buffered equals —
        exactly what repeated bisect_left insertion does."""
        # str payloads need an object-valued page, as an index holds them.
        scalar, bulk = (make_page([1.0, 9.0], object) for _ in range(2))
        for page in (scalar, bulk):
            page.insert_into_buffer(5.0, "old")
        for k, v in ((5.0, "a"), (5.0, "b")):
            scalar.insert_into_buffer(k, v)
        bulk.bulk_insert(
            np.asarray([5.0, 5.0]), np.asarray(["a", "b"], dtype=object)
        )
        assert scalar.buf_values == ["b", "a", "old"]
        assert page_state(scalar) == page_state(bulk)

    def test_empty_batch_is_noop(self):
        page = make_page([1.0, 2.0])
        page.insert_into_buffer(1.5, 7)
        before = page_state(page)
        page.bulk_insert(np.empty(0), np.empty(0, dtype=np.int64))
        assert page_state(page) == before


def index_state(index):
    return [
        (p.start_key, p.keys.tolist(), list(p.values),
         [float(k) for k in p.buf_keys], list(p.buf_values))
        for p in index.pages()
    ]


class TestIndexLevel:
    @given(
        build=st.lists(key_st, max_size=60).map(sorted),
        batch=st.lists(st.tuples(key_st, st.integers(0, 10**6)), max_size=120),
        error=st.integers(min_value=2, max_value=24),
    )
    @settings(max_examples=150, deadline=None)
    def test_insert_batch_matches_scalar_loop(self, build, batch, error):
        """insert_batch == looping insert in stable key order, through
        buffer overflows and page splits."""
        cap = max(1, error // 2)
        scalar = FITingTree(
            np.asarray(build, dtype=np.float64), error=error,
            buffer_capacity=cap,
        )
        bulk = FITingTree(
            np.asarray(build, dtype=np.float64), error=error,
            buffer_capacity=cap,
        )
        keys = np.asarray([k for k, _ in batch], dtype=np.float64)
        values = np.asarray([v for _, v in batch], dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        for k, v in zip(keys[order], values[order]):
            scalar.insert(k, v)
        bulk.insert_batch(keys, values)
        scalar.validate()
        bulk.validate()
        assert len(scalar) == len(bulk) == len(build) + len(batch)
        assert index_state(scalar) == index_state(bulk)

    @given(
        build=st.lists(key_st, min_size=1, max_size=40).map(sorted),
        batch_keys=st.lists(key_st, min_size=1, max_size=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_object_payload_fallback(self, build, batch_keys):
        """Object-dtype payloads (unrepresentable in the page dtype) flow
        through the bulk path unchanged, including flat-view exports."""
        payloads = np.empty(len(batch_keys), dtype=object)
        for i, k in enumerate(batch_keys):
            payloads[i] = ("tag", k, i)
        arr = np.asarray(build, dtype=np.float64)
        build_values = np.empty(arr.size, dtype=object)
        build_values[:] = [("build", i) for i in range(arr.size)]
        scalar = FITingTree(arr, build_values, error=16, buffer_capacity=4)
        bulk = FITingTree(arr, build_values.copy(), error=16, buffer_capacity=4)
        keys = np.asarray(batch_keys, dtype=np.float64)
        order = np.argsort(keys, kind="stable")
        for i in order:
            scalar.insert(keys[i], payloads[i])
        bulk.insert_batch(keys, payloads)
        assert index_state(scalar) == index_state(bulk)
        for k, p in zip(batch_keys, payloads):
            assert p in scalar.lookup_all(k)
            assert scalar.lookup_all(k) == bulk.lookup_all(k)
        # The batch read path must agree too (object buffer export).
        got = bulk.get_batch(keys)
        for i, k in enumerate(keys):
            assert got[i] == scalar.get(k)

    def test_sequence_payload_lists_stay_opaque(self):
        """A plain list of tuple payloads (equal-length or ragged) must
        behave exactly like the scalar loop — not recurse into a 2-D
        array or raise."""
        build = np.arange(10, dtype=np.float64)
        build_values = np.empty(10, dtype=object)
        build_values[:] = [("b", i) for i in range(10)]
        for payloads in (
            [(10, 20), (30, 40)],          # equal-length: np.asarray -> 2-D
            [(1, 2), (3, 4, 5)],           # ragged: np.asarray raises
        ):
            scalar = FITingTree(build, build_values, error=16, buffer_capacity=4)
            bulk = FITingTree(build, build_values.copy(), error=16,
                              buffer_capacity=4)
            keys = [4.5, 5.5]
            for k, v in zip(keys, payloads):
                scalar.insert(k, v)
            bulk.insert_batch(keys, payloads)
            assert index_state(scalar) == index_state(bulk)
            for k, v in zip(keys, payloads):
                assert bulk.get(k) == v

    def test_insert_batch_into_empty_index(self):
        index = FITingTree(error=16, buffer_capacity=4)
        index.insert_batch([3.0, 1.0, 2.0, 1.0])
        index.validate()
        # Auto row ids are assigned in request order, pre-sort.
        assert index.get(3.0) == 0
        assert sorted(index.lookup_all(1.0)) == [1, 3]
        assert index.get(2.0) == 2

    def test_empty_batch_is_noop(self):
        index = FITingTree(np.arange(10, dtype=np.float64), error=16)
        version = index.version
        index.insert_batch(np.empty(0))
        assert index.version == version and len(index) == 10

    def test_typed_values_require_explicit_batch_values(self):
        index = FITingTree(
            np.arange(8, dtype=np.float64),
            np.arange(8, dtype=np.int64) * 10,
            error=16,
        )
        with pytest.raises(InvalidParameterError):
            index.insert_batch([1.5, 2.5])
