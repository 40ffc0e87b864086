"""ShardedEngine: batch results are identical to per-key scalar results.

The satellite contract for the engine layer: ``get_batch``/``range_batch``
agree with per-key ``FITingTree.get``/``range_items`` across uniform,
temporal and adversarial datasets — including duplicate keys and
post-insert/buffered state — and the batch path clears the 5x speedup bar.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fiting_tree import FITingTree
from repro.datasets import get
from repro.engine import ShardedEngine, flat_view

key_st = st.integers(min_value=0, max_value=300).map(float)
build_st = st.lists(key_st, max_size=150).map(sorted)


def dataset_keys(name, n=8_000, seed=0):
    return get(name, n=n, seed=seed)


def assert_engine_matches_scalar(engine, queries):
    """engine.get_batch == per-key scalar FITingTree.get on the same state."""
    sentinel = object()
    batch = engine.get_batch(queries, sentinel)
    for q, got in zip(queries, batch):
        expected = engine.get(q, sentinel)  # routed per-key FITingTree.get
        if expected is sentinel:
            assert got is sentinel, f"batch hit where scalar missed: {q}"
        else:
            assert got == expected, f"mismatch at {q}: {got} != {expected}"


@pytest.mark.parametrize("dataset", ["uniform", "iot", "adversarial"])
@pytest.mark.parametrize("n_shards", [1, 4])
class TestGetBatchEquivalence:
    def test_build_only(self, dataset, n_shards):
        keys = dataset_keys(dataset)
        engine = ShardedEngine(keys, n_shards=n_shards, error=64)
        rng = np.random.default_rng(1)
        present = keys[rng.integers(0, len(keys), 600)]
        absent = rng.uniform(keys.min() - 10, keys.max() + 10, 300)
        queries = np.concatenate([present, absent])
        assert_engine_matches_scalar(engine, queries)
        # And against a plain single FITing-Tree sharing the row-id space.
        tree = FITingTree(keys, error=64)
        sentinel = object()
        batch = engine.get_batch(present, sentinel)
        for q, got in zip(present, batch):
            assert keys[int(got)] == q == keys[int(tree.get(q, sentinel))]

    def test_post_insert_buffered_state(self, dataset, n_shards):
        keys = dataset_keys(dataset)
        engine = ShardedEngine(
            keys, n_shards=n_shards, error=128, buffer_capacity=32
        )
        rng = np.random.default_rng(2)
        inserts = rng.uniform(keys.min(), keys.max(), 500)
        engine.insert_batch(inserts)
        assert len(engine) == len(keys) + len(inserts)
        queries = np.concatenate([inserts, keys[rng.integers(0, len(keys), 400)]])
        assert_engine_matches_scalar(engine, queries)


class TestDuplicates:
    def test_duplicate_heavy_build_and_inserts(self):
        rng = np.random.default_rng(3)
        keys = np.sort(rng.integers(0, 150, 6000).astype(np.float64))
        engine = ShardedEngine(keys, n_shards=4, error=48, buffer_capacity=16)
        engine.insert_batch(rng.integers(0, 150, 200).astype(np.float64))
        queries = np.arange(-5.0, 160.0)
        assert_engine_matches_scalar(engine, queries)

    def test_duplicates_never_straddle_shards(self):
        keys = np.sort(np.repeat(np.arange(40.0), 300))
        engine = ShardedEngine(keys, n_shards=4, error=32)
        for cut in engine.cuts:
            hits = [
                i
                for i, shard in enumerate(engine.shards)
                if len(shard.lookup_all(cut)) > 0
            ]
            assert len(hits) == 1
        assert_engine_matches_scalar(engine, np.arange(40.0))


class TestRangeBatchEquivalence:
    @pytest.mark.parametrize("dataset", ["uniform", "iot", "adversarial"])
    def test_matches_single_tree(self, dataset):
        keys = dataset_keys(dataset, n=5_000)
        tree = FITingTree(keys, error=64)
        engine = ShardedEngine(keys, n_shards=4, error=64)
        rng = np.random.default_rng(4)
        los = rng.uniform(keys.min(), keys.max(), 20)
        bounds = np.stack([los, los + (keys.max() - keys.min()) * 0.07], axis=1)
        results = engine.range_batch(bounds)
        assert len(results) == len(bounds)
        for (lo, hi), (got_keys, got_values) in zip(bounds, results):
            expected = list(tree.range_items(lo, hi))
            assert [k for k, _ in expected] == got_keys.tolist()
            assert [v for _, v in expected] == got_values.tolist()

    def test_post_insert_and_bounds_modes(self):
        keys = np.sort(np.random.default_rng(5).uniform(0, 1000, 3000))
        engine = ShardedEngine(keys, n_shards=3, error=64, buffer_capacity=16)
        engine.insert_batch(np.random.default_rng(6).uniform(0, 1000, 150))
        lo, hi = 200.0, 400.0
        for inc_lo in (True, False):
            for inc_hi in (True, False):
                got_keys, got_values = engine.range_arrays(lo, hi, inc_lo, inc_hi)
                expected = []
                for shard in engine.shards:
                    expected.extend(shard.range_items(lo, hi, inc_lo, inc_hi))
                assert [k for k, _ in expected] == got_keys.tolist()
                assert [v for _, v in expected] == got_values.tolist()

    def test_cross_shard_span(self):
        keys = np.arange(1000, dtype=np.float64)
        engine = ShardedEngine(keys, n_shards=4, error=32)
        got_keys, _ = engine.range_arrays(100.0, 900.0)
        assert got_keys.tolist() == [float(k) for k in range(100, 901)]


class TestEngineBehaviour:
    def test_empty_engine_grows_by_inserts(self):
        engine = ShardedEngine(n_shards=4, error=64, buffer_capacity=8)
        assert len(engine) == 0
        out = engine.get_batch(np.asarray([1.0]), default=-7)
        assert out.tolist() == [-7]
        engine.insert_batch(np.asarray([5.0, 1.0, 9.0]))
        assert len(engine) == 3
        assert_engine_matches_scalar(engine, np.asarray([1.0, 5.0, 9.0, 2.0]))

    def test_insert_batch_matches_scalar_loop(self):
        keys = np.sort(np.random.default_rng(7).uniform(0, 100, 2000))
        batched = ShardedEngine(keys, n_shards=4, error=64, buffer_capacity=16)
        looped = ShardedEngine(keys, n_shards=4, error=64, buffer_capacity=16)
        stream = np.random.default_rng(8).uniform(0, 100, 300)
        batched.insert_batch(stream)
        for k in stream:
            looped.insert(k)
        assert len(batched) == len(looped)
        queries = np.concatenate([stream, keys[::7]])
        sentinel = object()
        for got, want in zip(
            batched.get_batch(queries, sentinel), looped.get_batch(queries, sentinel)
        ):
            assert (got is sentinel) == (want is sentinel)
            if got is not sentinel:
                assert got == want

    def test_under_min_insert_after_cut_key_deleted(self):
        """Routing stays correct when a shard's first page start drifts
        above the cut (min key deleted, page rebuilt) and a smaller key —
        still >= the cut — is buffered as an under-min insert."""
        keys = np.arange(0, 1000, dtype=np.float64)
        engine = ShardedEngine(keys, n_shards=4, error=32, buffer_capacity=8)
        cut = float(engine.cuts[0])
        shard = engine.shard_for(cut)
        shard.delete(cut)
        # Overflow the first page's buffer so it rebuilds with start > cut.
        engine.insert_batch(cut + np.arange(1, 9) / 10.0)
        first_start = min(page.start_key for page in shard.pages())
        assert first_start > cut
        probe = cut + 0.05  # routes to this shard, below its first page start
        engine.insert(probe)
        assert engine.get(probe) is not None
        out = engine.get_batch(np.asarray([probe, cut]), default=None)
        assert out[0] == engine.get(probe)
        assert out[1] is None

    def test_explicit_values_and_payload_requirements(self):
        keys = np.asarray([1.0, 2.0, 3.0])
        engine = ShardedEngine(keys, values=np.asarray([10, 20, 30]), n_shards=2)
        assert engine.get(2.0) == 20
        from repro.core.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            engine.insert_batch(np.asarray([4.0]))

    def test_heterogeneous_shard_dtypes_scatter_losslessly(self):
        """The engine's view must not cast one shard's values into
        another shard's dtype."""
        built = []

        def factory(k, v):
            # First shard carries int64 row ids, later shards float64+0.5.
            dtype = np.int64 if not built else np.float64
            vals = np.asarray(v, dtype=dtype)
            if built:
                vals = vals + 0.5
            built.append(dtype)
            return FITingTree(k, vals, error=32, buffer_capacity=8)

        keys = np.arange(100, dtype=np.float64)
        engine = ShardedEngine(keys, n_shards=2, index_factory=factory)
        assert flat_view(engine).values.dtype == object  # mixed dtypes
        lo_key, hi_key = 10.0, 60.0
        out = engine.get_batch(np.asarray([lo_key, hi_key]))
        assert out[0] == engine.get(lo_key) == 10
        assert out[1] == engine.get(hi_key) == 60.5
        # Cross-shard ranges must not let NumPy promote int64 into float64.
        range_keys, range_values = engine.range_arrays(48.0, 52.0)
        for k, v in zip(range_keys, range_values):
            assert v == engine.get(k), f"range value {v!r} != get({k})"

    def test_stats_shape(self):
        keys = np.sort(np.random.default_rng(9).uniform(0, 1e5, 20_000))
        engine = ShardedEngine(keys, n_shards=4, error=64, buffer_capacity=16)
        engine.get_batch(keys[:100])
        engine.get_batch(keys[100:200])
        stats = engine.stats()
        assert stats["n"] == 20_000
        assert stats["n_shards"] == 4
        assert len(stats["shards"]) == 4
        assert stats["view_builds"] >= 1
        assert stats["view_hits"] >= 1
        assert 0.0 <= stats["view_hit_rate"] <= 1.0
        assert stats["n_pages"] == sum(s["n_pages"] for s in stats["shards"])
        engine.validate()

    @given(
        keys=build_st,
        n_shards=st.integers(min_value=1, max_value=5),
        inserts=st.lists(key_st, max_size=50),
        queries=st.lists(key_st, max_size=40),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_engine_matches_scalar(self, keys, n_shards, inserts, queries):
        engine = ShardedEngine(
            np.asarray(keys, dtype=np.float64),
            n_shards=n_shards,
            error=32,
            buffer_capacity=8,
        )
        if inserts:
            engine.insert_batch(np.asarray(inserts, dtype=np.float64))
        stream = np.asarray(queries + keys[:10] + inserts[:10], dtype=np.float64)
        if stream.size:
            assert_engine_matches_scalar(engine, stream)
        assert len(engine) == len(keys) + len(inserts)


class TestAcceptanceSpeedup:
    def test_sharded_batch_beats_scalar_loop_5x(self):
        """The PR's headline number: >= 5x over per-key FITingTree.get at
        100k uniform keys, batch size 1024, 4 shards."""
        keys = get("uniform", n=100_000, seed=0)
        tree = FITingTree(keys, error=64, buffer_capacity=0)
        engine = ShardedEngine(keys, n_shards=4, error=64, buffer_capacity=0)
        rng = np.random.default_rng(11)
        queries = keys[rng.integers(0, len(keys), 32_768)]

        def time_batch():
            start = time.perf_counter()
            for i in range(0, len(queries), 1024):
                engine.get_batch(queries[i : i + 1024])
            return time.perf_counter() - start

        scalar_queries = queries[:4096]
        tree_get = tree.get

        def time_scalar():
            start = time.perf_counter()
            for q in scalar_queries:
                tree_get(q)
            return time.perf_counter() - start

        # Best-of-3 on both sides to keep CI timing noise out of the ratio.
        batch_seconds = min(time_batch() for _ in range(3))
        scalar_seconds = min(time_scalar() for _ in range(3))
        scalar = [tree_get(q) for q in scalar_queries]
        batch = engine.get_batch(queries)

        # Bit-identical results on the overlapping prefix.
        head = engine.get_batch(scalar_queries)
        assert head.tolist() == scalar
        assert batch is not None and batch.dtype == np.int64

        scalar_ns = scalar_seconds / len(scalar_queries)
        batch_ns = batch_seconds / len(queries)
        assert scalar_ns / batch_ns >= 5.0, (
            f"speedup {scalar_ns / batch_ns:.1f}x below the 5x bar"
        )
