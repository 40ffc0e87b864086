"""Range partitioning: cut selection, shard slices, the router, and the
scatter/gather kernel every sharded tier splits and reassembles with."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidParameterError, NotSortedError
from repro.engine.partition import partition_cuts, route, shard_bounds
from repro.engine.scatter import (
    gather_points,
    split_points,
    split_ranges,
    split_sorted,
    stitch_ranges,
)

key_st = st.integers(min_value=0, max_value=200).map(float)
build_st = st.lists(key_st, max_size=120).map(sorted)
# Cuts on the key grid, batches reaching past both ends of it: duplicates,
# keys equal to a cut, below the first and above the last cut all occur.
cuts_st = st.lists(key_st, unique=True, max_size=6).map(
    lambda c: np.asarray(sorted(c), dtype=np.float64)
)
batch_st = st.lists(
    st.integers(min_value=-20, max_value=220).map(float), max_size=60
).map(lambda k: np.asarray(k, dtype=np.float64))


class TestPartitionCuts:
    def test_even_split(self):
        keys = np.arange(1000, dtype=np.float64)
        cuts = partition_cuts(keys, 4)
        assert cuts.tolist() == [250.0, 500.0, 750.0]

    def test_single_shard_no_cuts(self):
        assert partition_cuts(np.arange(10.0), 1).size == 0

    def test_empty_keys(self):
        assert partition_cuts(np.empty(0), 8).size == 0

    def test_strictly_increasing(self):
        rng = np.random.default_rng(0)
        keys = np.sort(rng.uniform(0, 100, 5000))
        cuts = partition_cuts(keys, 16)
        assert np.all(np.diff(cuts) > 0)

    def test_all_equal_keys_collapse_to_one_shard(self):
        keys = np.full(100, 7.0)
        assert partition_cuts(keys, 4).size == 0

    def test_more_shards_than_keys(self):
        keys = np.asarray([1.0, 2.0, 3.0])
        cuts = partition_cuts(keys, 10)
        assert np.all(np.diff(cuts) > 0)
        assert cuts.size <= 2

    def test_invalid_n_shards(self):
        with pytest.raises(InvalidParameterError):
            partition_cuts(np.arange(10.0), 0)

    def test_unsorted_rejected(self):
        with pytest.raises(NotSortedError):
            partition_cuts(np.asarray([3.0, 1.0, 2.0]), 2)


class TestRoute:
    def test_matches_scalar_bisect(self):
        rng = np.random.default_rng(1)
        keys = np.sort(rng.uniform(0, 1000, 2000))
        cuts = partition_cuts(keys, 5)
        queries = rng.uniform(-50, 1050, 500)
        sids = route(cuts, queries)
        for q, sid in zip(queries, sids):
            expected = int(np.sum(cuts <= q))
            assert sid == expected

    def test_cut_key_routes_right(self):
        cuts = np.asarray([10.0, 20.0])
        assert route(cuts, [10.0]).tolist() == [1]
        assert route(cuts, [20.0]).tolist() == [2]
        assert route(cuts, [9.999]).tolist() == [0]
        assert route(cuts, [-1e9]).tolist() == [0]


class TestShardBounds:
    def test_slices_cover_and_partition(self):
        rng = np.random.default_rng(2)
        keys = np.sort(rng.integers(0, 300, 4000).astype(np.float64))
        cuts = partition_cuts(keys, 7)
        bounds = shard_bounds(keys, cuts)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == len(keys)
        for (_, e1), (s2, _) in zip(bounds, bounds[1:]):
            assert e1 == s2

    def test_duplicates_never_straddle(self):
        keys = np.sort(np.repeat(np.arange(50.0), 40))
        cuts = partition_cuts(keys, 4)
        for a, b in shard_bounds(keys, cuts):
            shard = keys[a:b]
            if a > 0:
                assert keys[a - 1] != shard[0]

    @given(keys=build_st, n_shards=st.integers(min_value=1, max_value=8))
    @settings(max_examples=150, deadline=None)
    def test_route_agrees_with_bounds(self, keys, n_shards):
        """Every build key routes to the shard whose slice holds it."""
        arr = np.asarray(keys, dtype=np.float64)
        cuts = partition_cuts(arr, n_shards)
        bounds = shard_bounds(arr, cuts)
        sids = route(cuts, arr)
        for pos, sid in enumerate(sids):
            a, b = bounds[sid]
            assert a <= pos < b


class TestScatterKernel:
    @given(cuts=cuts_st, keys=batch_st)
    @settings(max_examples=200, deadline=None)
    def test_points_roundtrip_is_identity(self, cuts, keys):
        """Split, "look up" each key as itself, gather: the batch again."""
        groups = split_points(cuts, keys)
        for sid, pos in groups:
            assert pos.size and np.all(route(cuts, keys[pos]) == sid)
        assert [sid for sid, _ in groups] == sorted({*route(cuts, keys).tolist()})
        out = gather_points(
            keys.size, [(pos, keys[pos], None) for _, pos in groups]
        )
        assert out.tolist() == keys.tolist()
        assert out.dtype == (np.float64 if keys.size else object)

    @given(cuts=cuts_st, keys=batch_st)
    @settings(max_examples=200, deadline=None)
    def test_points_found_masks_fill_default(self, cuts, keys):
        """Slots a found-mask marks as missed get ``default``, as object."""
        parts = [
            (pos, keys[pos], keys[pos] >= 100.0)
            for _, pos in split_points(cuts, keys)
        ]
        out = gather_points(keys.size, parts, "MISS")
        assert out.dtype == object
        assert out.tolist() == [k if k >= 100.0 else "MISS" for k in keys]

    @given(cuts=cuts_st, keys=batch_st)
    @settings(max_examples=200, deadline=None)
    def test_sorted_slices_concatenate_to_stable_sort(self, cuts, keys):
        order, skeys, slices = split_sorted(cuts, keys)
        assert order.tolist() == np.argsort(keys, kind="stable").tolist()
        assert skeys.tolist() == keys[order].tolist()
        assert [b for _, _, b in slices[:-1]] == [a for _, a, _ in slices[1:]]
        joined = [k for _, a, b in slices for k in skeys[a:b].tolist()]
        assert joined == skeys.tolist()
        for sid, a, b in slices:
            assert a < b and np.all(route(cuts, skeys[a:b]) == sid)

    @given(
        cuts=cuts_st,
        bounds=st.lists(
            st.tuples(
                st.integers(min_value=-20, max_value=220).map(float),
                st.integers(min_value=-20, max_value=220).map(float),
            ),
            max_size=12,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_ranges_match_per_row_loop(self, cuts, bounds):
        """The vectorised overlap equals the per-row, per-shard loop."""
        arr = np.asarray(bounds, dtype=np.float64).reshape(-1, 2)
        want = {}
        for row, (lo, hi) in enumerate(arr):
            first = int(np.sum(cuts <= lo))
            last = int(np.sum(cuts <= hi))
            for sid in range(first, last + 1):
                want.setdefault(sid, []).append(row)
        checked, jobs = split_ranges(cuts, arr)
        assert checked.shape == arr.shape
        assert [(sid, rows.tolist()) for sid, rows in jobs] == sorted(
            want.items()
        )

    @pytest.mark.parametrize(
        "bad", [np.zeros((2, 3)), np.zeros(4), np.zeros((1, 2, 2)), []]
    )
    def test_malformed_bounds_rejected(self, bad):
        with pytest.raises(InvalidParameterError, match=r"\(n, 2\)"):
            split_ranges(np.asarray([10.0]), bad)

    @pytest.mark.parametrize("sibling", [np.float64, object])
    def test_stitch_keeps_large_int64_exact(self, sibling):
        big = (1 << 62) + 1  # not representable as float64
        rows = np.asarray([0])
        left = (np.asarray([1.0]), np.asarray([big], dtype=np.int64))
        right = (np.asarray([2.0]), np.asarray([0.5], dtype=sibling))
        ((keys, values),) = stitch_ranges(
            1, [(rows, [left]), (rows, [right])], np.int64
        )
        assert keys.tolist() == [1.0, 2.0]
        assert values.dtype == object and values.tolist() == [big, 0.5]

    def test_stitch_single_and_empty_rows(self):
        pair = (np.asarray([1.0]), np.asarray([7], dtype=np.int64))
        lone, empty = stitch_ranges(
            2, [(np.asarray([0]), [pair])], np.int32
        )
        assert lone is pair  # a single contribution comes back as-is
        assert empty[0].dtype == np.float64 and empty[1].dtype == np.int32
        assert empty[0].size == empty[1].size == 0
