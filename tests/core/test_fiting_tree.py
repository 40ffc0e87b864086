"""Clustered FITing-Tree: build, lookups, ranges, inserts, deletes."""

import numpy as np
import pytest

from repro.core.errors import (
    InvalidParameterError,
    KeyNotFoundError,
    NotSortedError,
)
from repro.core.fiting_tree import FITingTree


@pytest.fixture
def index(uniform_keys):
    return FITingTree(uniform_keys, error=64)


class TestConstruction:
    def test_empty(self):
        t = FITingTree(error=32)
        assert len(t) == 0
        assert t.n_segments == 0
        assert t.get(5.0) is None
        t.validate()

    def test_error_must_exceed_buffer(self):
        with pytest.raises(InvalidParameterError):
            FITingTree([1.0], error=10, buffer_capacity=10)
        with pytest.raises(InvalidParameterError):
            FITingTree([1.0], error=10, buffer_capacity=20)

    def test_negative_buffer_rejected(self):
        with pytest.raises(InvalidParameterError):
            FITingTree([1.0], error=10, buffer_capacity=-1)

    def test_default_buffer_is_half_error(self):
        t = FITingTree([1.0, 2.0], error=100)
        assert t.buffer_capacity == 50
        assert t.seg_error == 50.0

    def test_unsorted_keys_rejected(self):
        with pytest.raises(NotSortedError):
            FITingTree([3.0, 1.0], error=10)

    def test_values_length_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            FITingTree([1.0, 2.0], [7], error=10)

    def test_far_fewer_segments_than_keys(self, uniform_keys):
        t = FITingTree(uniform_keys, error=64)
        assert t.n_segments < len(uniform_keys) / 50

    def test_exact_accept_variant(self, uniform_keys):
        t = FITingTree(uniform_keys, error=64, accept="exact")
        t.validate()
        assert t.get(uniform_keys[7]) == 7


class TestLookups:
    def test_every_built_key_found(self, uniform_keys):
        t = FITingTree(uniform_keys, error=48)
        for i in range(0, len(uniform_keys), 97):
            assert t.get(uniform_keys[i]) == i

    def test_missing_key_default(self, index):
        assert index.get(-1.0) is None
        assert index.get(-1.0, "x") == "x"

    def test_contains(self, uniform_keys, index):
        assert uniform_keys[5] in index
        assert -1.0 not in index

    def test_getitem_raises(self, index):
        with pytest.raises(KeyNotFoundError):
            index[-123.0]

    def test_custom_values(self):
        keys = np.arange(100, dtype=np.float64)
        values = keys * 2.5
        t = FITingTree(keys, values, error=8)
        assert t.get(40.0) == 100.0

    def test_small_error_still_correct(self, uniform_keys):
        t = FITingTree(uniform_keys, error=2, buffer_capacity=1)
        for i in range(0, len(uniform_keys), 211):
            assert t.get(uniform_keys[i]) == i

    def test_bulk_lookup_matches_get(self, uniform_keys, rng):
        t = FITingTree(uniform_keys, error=32)
        queries = np.concatenate(
            [rng.choice(uniform_keys, 100), rng.uniform(-10, 1e6 + 10, 100)]
        )
        bulk = t.bulk_lookup(queries, default=-1)
        single = [t.get(q, -1) for q in queries]
        assert bulk == single

    def test_bulk_lookup_empty_index(self):
        t = FITingTree(error=16)
        assert t.bulk_lookup([1.0, 2.0], default=0) == [0, 0]


class TestDuplicates:
    def test_lookup_all_small_run(self):
        keys = np.sort(np.array([1.0, 2.0, 2.0, 2.0, 3.0] * 4))
        t = FITingTree(keys, error=32)
        assert sorted(t.lookup_all(2.0)) == sorted(
            int(i) for i in np.flatnonzero(keys == 2.0)
        )
        assert t.lookup_all(9.9) == []

    def test_lookup_all_run_split_across_segments(self):
        # error 4, buffer 2 -> seg_error 2: a run of 40 equal keys must
        # split into many segments sharing a start key.
        keys = np.sort(np.concatenate([np.full(40, 50.0), np.arange(40.0)]))
        t = FITingTree(keys, error=4, buffer_capacity=2)
        assert t.n_segments > 5
        assert len(t.lookup_all(50.0)) == 40
        t.validate()

    def test_get_returns_some_occurrence(self):
        keys = np.array([1.0] * 30)
        t = FITingTree(keys, error=5, buffer_capacity=2)
        assert t.get(1.0) in set(range(30))


class TestRangeQueries:
    def test_range_matches_numpy(self, uniform_keys):
        t = FITingTree(uniform_keys, error=64)
        lo, hi = uniform_keys[200], uniform_keys[800]
        got = [k for k, _ in t.range_items(lo, hi)]
        expected = uniform_keys[(uniform_keys >= lo) & (uniform_keys <= hi)]
        assert np.allclose(got, expected)

    def test_range_values_are_rowids(self, uniform_keys):
        t = FITingTree(uniform_keys, error=64)
        got = [v for _, v in t.range_items(uniform_keys[10], uniform_keys[20])]
        assert got == list(range(10, 21))

    def test_range_exclusive_bounds(self):
        keys = np.arange(100, dtype=np.float64)
        t = FITingTree(keys, error=8)
        got = [k for k, _ in t.range_items(10, 20, include_lo=False, include_hi=False)]
        assert got == list(np.arange(11.0, 20.0))

    def test_range_spans_segments(self, periodic_keys):
        t = FITingTree(periodic_keys, error=4, buffer_capacity=1)
        assert t.n_segments > 1
        lo, hi = periodic_keys[5], periodic_keys[-5]
        got = [k for k, _ in t.range_items(lo, hi)]
        expected = periodic_keys[(periodic_keys >= lo) & (periodic_keys <= hi)]
        assert np.allclose(got, expected)

    def test_range_open_ended(self, uniform_keys):
        t = FITingTree(uniform_keys, error=64)
        assert len(list(t.range_items())) == len(uniform_keys)
        assert len(list(t.range_items(lo=uniform_keys[-3]))) == 3
        assert len(list(t.range_items(hi=uniform_keys[2]))) == 3

    def test_range_includes_buffered(self, uniform_keys):
        t = FITingTree(uniform_keys, error=1000, buffer_capacity=400)
        t.insert(uniform_keys[50] + 1e-9, 777_777)
        got = [v for _, v in t.range_items(uniform_keys[50], uniform_keys[52])]
        assert 777_777 in got

    def test_items_sorted(self, uniform_keys):
        t = FITingTree(uniform_keys, error=64)
        keys = [k for k, _ in t.items()]
        assert keys == sorted(keys)
        assert len(keys) == len(uniform_keys)


class TestInserts:
    def test_insert_into_empty(self):
        t = FITingTree(error=16)
        t.insert(5.0)
        assert t.get(5.0) == 0
        assert len(t) == 1
        t.validate()

    def test_auto_rowids_continue(self, uniform_keys):
        t = FITingTree(uniform_keys, error=64)
        t.insert(1e7)
        assert t.get(1e7) == len(uniform_keys)

    def test_insert_below_minimum(self, uniform_keys):
        t = FITingTree(uniform_keys, error=64)
        t.insert(-1000.0, 42)
        assert t.get(-1000.0) == 42
        t.validate()

    def test_insert_above_maximum(self, uniform_keys):
        t = FITingTree(uniform_keys, error=64)
        t.insert(1e12, 42)
        assert t.get(1e12) == 42
        t.validate()

    def test_buffer_overflow_triggers_resegmentation(self):
        keys = np.arange(1000, dtype=np.float64)
        t = FITingTree(keys, error=8, buffer_capacity=2)
        before = t.n_segments
        for i in range(40):
            t.insert(500.0 + i / 100.0, 10_000 + i)
        t.validate()
        for i in range(40):
            assert t.get(500.0 + i / 100.0) == 10_000 + i
        assert len(t) == 1040
        assert t.n_segments >= before

    def test_many_random_inserts_stay_consistent(self, rng):
        keys = np.sort(rng.uniform(0, 1e5, 2_000))
        t = FITingTree(keys, error=32, buffer_capacity=8)
        inserted = rng.uniform(0, 1e5, 1_000)
        for i, k in enumerate(inserted):
            t.insert(k, 100_000 + i)
        t.validate()
        assert len(t) == 3_000
        for i, k in enumerate(inserted[::13]):
            assert k in t

    def test_sequential_append_workload(self):
        keys = np.arange(500, dtype=np.float64)
        t = FITingTree(keys, error=16, buffer_capacity=4)
        for i in range(500, 1500):
            t.insert(float(i))
        t.validate()
        assert len(t) == 1500
        assert t.get(1499.0) == 1499

    def test_typed_values_require_explicit_value(self):
        t = FITingTree(np.arange(5.0), np.arange(5.0) * 2, error=4)
        with pytest.raises(InvalidParameterError):
            t.insert(9.0)
        t.insert(9.0, 18.0)
        assert t.get(9.0) == 18.0

    def test_object_values_allow_none(self):
        values = np.array(["a", "b", "c"], dtype=object)
        t = FITingTree(np.arange(3.0), values, error=4)
        t.insert(7.0)
        assert t.get(7.0) is None

    def test_read_only_mode_rejects_writes(self, uniform_keys):
        t = FITingTree(uniform_keys, error=64, buffer_capacity=0)
        with pytest.raises(InvalidParameterError):
            t.insert(1.0)
        with pytest.raises(InvalidParameterError):
            t.delete(uniform_keys[0])


class TestValuesDtype:
    """An index stores every payload in the dtype it was built with and
    refuses, before applying anything, one that dtype cannot hold."""

    @pytest.mark.parametrize("odd", ["x", "8", 1.5, 2**70, ("a", "b")])
    def test_int64_index_refuses_what_it_cannot_hold(self, odd):
        t = FITingTree(np.arange(100.0), error=8, buffer_capacity=4)
        version = t.version
        with pytest.raises(InvalidParameterError):
            t.insert(0.5, odd)
        with pytest.raises(InvalidParameterError):
            t.insert_batch([0.25, 0.75], [7, odd])
        assert t.version == version and len(t) == 100
        t.validate()

    def test_a_value_does_not_change_when_its_page_rebuilds(self):
        t = FITingTree(np.arange(1000.0), error=8, buffer_capacity=4)
        with pytest.raises(InvalidParameterError):
            t.insert(0.5, 1.5)  # would read back as 1 after the rebuild
        t.insert(0.5, 2.0)  # int64 holds this one exactly
        rebuilds = t.page_rebuilds
        for key in (0.25, 0.75, 0.875):
            t.insert(key, 7)
        assert t.page_rebuilds == rebuilds + 1
        assert t.get(0.5) == 2
        t.validate()

    def test_a_refused_payload_cannot_wedge_its_page(self):
        t = FITingTree(np.arange(1000.0), error=8, buffer_capacity=4)
        with pytest.raises(InvalidParameterError):
            t.insert(0.5, "x")
        for key in (0.25, 0.75, 0.875, 0.9375):
            t.insert(key, 7)
        t.validate()
        assert len(t) == 1004 and 0.5 not in t

    def test_empty_build_keeps_its_values_dtype(self):
        objects = FITingTree([], np.empty(0, dtype=object))
        objects.insert(1.0, "x")
        assert objects.get(1.0) == "x"
        floats = FITingTree([], np.empty(0))
        floats.insert(1.0, 1.5)
        assert floats.get(1.0) == 1.5
        rowids = FITingTree([])
        rowids.insert(1.0)
        assert rowids.flat_arrays()["values"].dtype == np.int64


class TestDeletes:
    def test_delete_from_buffer(self, uniform_keys):
        t = FITingTree(uniform_keys, error=64)
        t.insert(123.456, 999)
        assert t.delete(123.456) == 999
        assert 123.456 not in t
        t.validate()

    def test_delete_from_data(self, uniform_keys):
        t = FITingTree(uniform_keys, error=64)
        assert t.delete(uniform_keys[10]) == 10
        assert len(t) == len(uniform_keys) - 1
        assert t.get(uniform_keys[11]) == 11
        t.validate()

    def test_delete_missing_raises(self, index):
        with pytest.raises(KeyNotFoundError):
            index.delete(-555.0)

    def test_delete_many_triggers_rebuild(self):
        keys = np.arange(2_000, dtype=np.float64)
        t = FITingTree(keys, error=16, buffer_capacity=4)
        for k in range(100, 400, 2):
            t.delete(float(k))
        t.validate()
        assert len(t) == 2_000 - 150
        assert t.get(101.0) == 101
        assert t.get(100.0) is None

    def test_delete_everything(self):
        keys = np.arange(300, dtype=np.float64)
        t = FITingTree(keys, error=8, buffer_capacity=2)
        for k in range(300):
            t.delete(float(k))
        assert len(t) == 0
        t.validate()

    def test_delete_then_reinsert(self, uniform_keys):
        t = FITingTree(uniform_keys, error=32)
        key = uniform_keys[77]
        t.delete(key)
        t.insert(key, 424242)
        assert t.get(key) == 424242
        t.validate()


class TestStatsAndSize:
    def test_model_bytes_far_below_full(self, uniform_keys):
        from repro.baselines import FullIndex

        t = FITingTree(uniform_keys, error=256, buffer_capacity=0)
        full = FullIndex(uniform_keys)
        assert t.model_bytes() * 10 < full.model_bytes()

    def test_model_bytes_grows_as_error_shrinks(self, uniform_keys):
        big = FITingTree(uniform_keys, error=512, buffer_capacity=0)
        small = FITingTree(uniform_keys, error=4, buffer_capacity=0)
        assert small.model_bytes() > big.model_bytes()

    def test_stats_fields(self, index):
        stats = index.stats()
        assert stats["n"] == len(index)
        assert stats["n_segments"] == index.n_segments
        assert stats["error"] == 64.0
        assert stats["seg_error"] == 32.0
        assert stats["avg_segment_len"] > 1
