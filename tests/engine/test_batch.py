"""FlatView: the vectorized batch path matches per-key gets exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FixedPageIndex
from repro.core.errors import InvalidParameterError
from repro.core.fiting_tree import FITingTree
from repro.engine.batch import flat_view
from repro.memsim import AccessCounter

key_st = st.integers(min_value=0, max_value=400).map(float)
build_st = st.lists(key_st, min_size=1, max_size=200).map(sorted)


def assert_batch_matches_scalar(index, queries):
    sentinel = object()
    batch = index.get_batch(queries, sentinel)
    for q, got in zip(queries, batch):
        expected = index.get(q, sentinel)
        if expected is sentinel:
            assert got is sentinel, f"batch hit where scalar missed: {q}"
        else:
            assert got == expected, f"mismatch at {q}: {got} != {expected}"


class TestFlatViewLookups:
    def test_uniform_hits_and_misses(self, uniform_keys):
        tree = FITingTree(uniform_keys, error=64)
        rng = np.random.default_rng(0)
        present = uniform_keys[rng.integers(0, len(uniform_keys), 500)]
        absent = rng.uniform(-1e5, 2e6, 200)
        assert_batch_matches_scalar(tree, np.concatenate([present, absent]))

    def test_periodic_keys(self, periodic_keys):
        tree = FITingTree(periodic_keys, error=16)
        assert_batch_matches_scalar(tree, periodic_keys[::3])

    def test_duplicate_keys(self):
        rng = np.random.default_rng(3)
        keys = np.sort(rng.integers(0, 200, 2000).astype(np.float64))
        tree = FITingTree(keys, error=32)
        queries = np.concatenate([np.unique(keys), np.asarray([-1.0, 500.0])])
        assert_batch_matches_scalar(tree, queries)

    def test_buffered_inserts_visible(self, uniform_keys):
        tree = FITingTree(uniform_keys, error=256, buffer_capacity=64)
        view_before = flat_view(tree)
        rng = np.random.default_rng(4)
        inserted = rng.uniform(0, 1e6, 300)
        for k in inserted:
            tree.insert(k)
        # Snapshot invalidated by the version counter, not object identity.
        assert flat_view(tree) is not view_before
        assert_batch_matches_scalar(tree, inserted)
        assert_batch_matches_scalar(tree, uniform_keys[::17])

    def test_deletion_widened_windows(self, uniform_keys):
        tree = FITingTree(uniform_keys, error=64, buffer_capacity=16)
        rng = np.random.default_rng(5)
        doomed = rng.choice(uniform_keys, 200, replace=False)
        for k in doomed:
            tree.delete(k)
        remaining = np.asarray([k for k, _ in tree.items()])
        assert_batch_matches_scalar(tree, remaining[::5])
        assert_batch_matches_scalar(tree, doomed)

    def test_view_cached_until_mutation(self, uniform_keys):
        tree = FITingTree(uniform_keys, error=64)
        stats = {}
        v1 = flat_view(tree, stats)
        v2 = flat_view(tree, stats)
        assert v1 is v2
        assert stats == {"view_builds": 1, "view_hits": 1}
        tree.insert(123.25)
        v3 = flat_view(tree, stats)
        assert v3 is not v1
        assert stats == {"view_builds": 2, "view_hits": 1}

    def test_fixed_page_index_whole_page_windows(self, uniform_keys):
        fixed = FixedPageIndex(uniform_keys, page_size=256, buffer_capacity=0)
        assert_batch_matches_scalar(fixed, uniform_keys[::11])
        assert_batch_matches_scalar(fixed, np.asarray([-5.0, 2e6]))

    def test_buffered_values_of_other_dtypes_survive(self):
        """An int64 index refuses what int64 cannot hold, so whatever its
        buffers hold reads back typed."""
        keys = np.arange(100, dtype=np.float64)
        tree = FITingTree(keys, error=32, buffer_capacity=8)
        for odd in (7.5, "tag", 2**70):
            with pytest.raises(InvalidParameterError):
                tree.insert(2.5, odd)
        tree.insert(2.5, 7.0)  # a float int64 holds exactly
        out = tree.get_batch(np.asarray([2.5, 10.0]))
        assert out.dtype == np.int64
        assert out.tolist() == [tree.get(2.5), 10] == [7, 10]

    def test_nan_payload_keeps_values_dtype(self):
        keys = np.arange(50.0)
        tree = FITingTree(keys, values=keys * 2.0, error=16, buffer_capacity=4)
        tree.insert(7.5, float("nan"))
        out = tree.get_batch(np.asarray([3.0, 4.0]))
        assert out.dtype == np.float64  # NaN is representable: no object fallback
        assert np.isnan(tree.get_batch(np.asarray([7.5]))[0])

    def test_failed_delete_keeps_view_cached(self, uniform_keys):
        import pytest

        from repro.core.errors import KeyNotFoundError

        tree = FITingTree(uniform_keys, error=64, buffer_capacity=16)
        v1 = flat_view(tree)
        with pytest.raises(KeyNotFoundError):
            tree.delete(-123.0)
        assert flat_view(tree) is v1, "no-op delete must not invalidate"
        assert tree.delete_value(float(uniform_keys[0]), "nope") is False
        assert flat_view(tree) is v1, "no-op delete_value must not invalidate"
        tree.delete(float(uniform_keys[0]))
        assert flat_view(tree) is not v1

    def test_non_finite_queries_miss_cleanly(self, uniform_keys):
        tree = FITingTree(uniform_keys, error=64, buffer_capacity=16)
        tree.insert(500.5)  # non-empty buffer: misses also probe buffers
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = tree.get_batch(
                np.asarray([np.nan, np.inf, -np.inf, float(uniform_keys[0])]),
                default=None,
            )
        assert out[0] is None and out[1] is None and out[2] is None
        assert out[3] == 0

    def test_empty_index(self):
        tree = FITingTree(None, error=64)
        out = tree.get_batch(np.asarray([1.0, 2.0]), default=-1)
        assert out.tolist() == [-1, -1]

    def test_all_hits_returns_values_dtype(self, uniform_keys):
        tree = FITingTree(uniform_keys, error=64)
        out = tree.get_batch(uniform_keys[:100])
        assert out.dtype == np.int64
        assert out.tolist() == list(range(100))

    @given(
        keys=build_st,
        error=st.integers(min_value=2, max_value=64),
        queries=st.lists(key_st, max_size=40),
        inserts=st.lists(key_st, max_size=40),
        deletes=st.lists(key_st, max_size=40),
        fixed=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_batch_equals_scalar(
        self, keys, error, queries, inserts, deletes, fixed
    ):
        def build(counter):
            kind = {"page_size": error} if fixed else {"error": error}
            index = (FixedPageIndex if fixed else FITingTree)(
                np.asarray(keys, dtype=np.float64),
                buffer_capacity=max(1, error // 2),
                counter=counter,
                **kind,
            )
            for k in inserts:
                index.insert(k)
            for k in deletes:
                if k in index:
                    index.delete(k)
            return index

        tree = build(None)
        stream = np.asarray(queries + keys[:10] + inserts[:10], dtype=np.float64)
        if not stream.size:
            return
        assert_batch_matches_scalar(tree, stream)
        # Batch verbs are uncounted: an attached counter changes no answer
        # and no state, a read leaves it alone, and a write adds to it only
        # what the scalar code it shares charges (seeding an empty index
        # is one scalar insert, hence one op).
        counter = AccessCounter()
        counted = build(counter)
        counter.reset()
        assert counted.get_batch(stream).tolist() == tree.get_batch(stream).tolist()
        assert counter == AccessCounter()
        seeds = int(len(counted) == 0)
        counted.insert_batch(stream)
        tree.insert_batch(stream)
        assert (counter.ops, counter.buffer_probes) == (seeds, 0)
        doomed = np.concatenate((stream[::2], stream[:3] + 0.5))
        got = counted.delete_batch(doomed, missing="ignore")
        assert got.tolist() == tree.delete_batch(doomed, missing="ignore").tolist()
        assert list(counted.items()) == list(tree.items())
        if len(counted):
            counter.reset()
            counted.get(stream[0])
            assert counter.ops == 1 and counter.tree_nodes >= counted.height
            assert counter.segment_probes + counter.buffer_probes > 0


class TestFlatViewRanges:
    def test_range_arrays_match_range_items(self, uniform_keys):
        tree = FITingTree(uniform_keys, error=64, buffer_capacity=16)
        rng = np.random.default_rng(6)
        for k in rng.uniform(0, 1e6, 30):
            tree.insert(k)
        view = flat_view(tree)
        for lo, hi in [(1e5, 2e5), (0.0, 1e6), (9e5, 9.5e5)]:
            expected = list(tree.range_items(lo, hi))
            keys_got, values_got = view.range_arrays(lo, hi)
            assert [k for k, _ in expected] == keys_got.tolist()
            assert [v for _, v in expected] == values_got.tolist()

    def test_exclusive_bounds(self, small_keys):
        tree = FITingTree(small_keys, error=16)
        view = flat_view(tree)
        lo, hi = float(small_keys[10]), float(small_keys[-10])
        for inc_lo in (True, False):
            for inc_hi in (True, False):
                expected = list(tree.range_items(lo, hi, inc_lo, inc_hi))
                keys_got, _ = view.range_arrays(lo, hi, inc_lo, inc_hi)
                assert [k for k, _ in expected] == keys_got.tolist()
