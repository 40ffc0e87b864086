"""The engine bulk delete path: equivalence, no-op edges, view upkeep, speed.

Pins the PR's engine-level delete contract:

* ``ShardedEngine.delete_batch`` leaves exactly the state the per-key
  delete path (route + one scalar ``delete`` per key) leaves, returning
  the same values in request order;
* an empty batch is a strict no-op (no shard versions bumped);
* the engine's view is updated, not re-exported, after deletes that
  leave every page standing (they only set tombstones);
* at 100k keys the bulk path clears the 3x acceptance bar over the
  per-key delete loop.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import KeyNotFoundError
from repro.datasets import get
from repro.engine import ShardedEngine
from repro.engine.partition import shard_bounds

key_st = st.integers(min_value=0, max_value=300).map(float)


def delete_per_key(engine, keys):
    """The reference path: grouped routing, one scalar delete per key."""
    order = np.argsort(np.asarray(keys, dtype=np.float64), kind="stable")
    out = np.empty(len(keys), dtype=object)
    sk = np.asarray(keys, dtype=np.float64)[order]
    for sid, (a, b) in enumerate(shard_bounds(sk, engine.cuts)):
        shard = engine._shards[sid]
        for pos, k in zip(order[a:b], sk[a:b]):
            try:
                out[pos] = shard.delete(k)
            except KeyNotFoundError:
                out[pos] = None
    return list(out)


def engine_state(engine):
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
        for shard in engine._shards
        for page in shard.pages()
    ]


class TestBulkEquivalence:
    @given(
        build=st.lists(key_st, min_size=1, max_size=200).map(sorted),
        batch=st.lists(key_st, min_size=1, max_size=150),
        n_shards=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_state_identical_to_per_key_delete(self, build, batch, n_shards):
        arr = np.asarray(build, dtype=np.float64)
        bulk = ShardedEngine(arr, n_shards=n_shards, error=24, buffer_capacity=6)
        ref = ShardedEngine(arr, n_shards=n_shards, error=24, buffer_capacity=6)
        want = delete_per_key(ref, batch)
        got = bulk.delete_batch(
            np.asarray(batch, dtype=np.float64), missing="ignore", default=None
        )
        assert list(got) == want
        bulk.validate()
        assert engine_state(bulk) == engine_state(ref)

    def test_large_mixed_batch(self):
        keys = get("uniform", n=20_000, seed=3)
        bulk = ShardedEngine(keys, n_shards=4, error=128, buffer_capacity=32)
        ref = ShardedEngine(keys, n_shards=4, error=128, buffer_capacity=32)
        rng = np.random.default_rng(4)
        ins = rng.uniform(keys.min(), keys.max(), 2_000)
        bulk.insert_batch(ins)
        ref.insert_batch(ins)
        victims = np.concatenate(
            [keys[rng.choice(keys.size, 5_000, replace=False)], ins[:500]]
        )
        want = delete_per_key(ref, victims)
        got = bulk.delete_batch(victims, missing="ignore", default=None)
        assert list(got) == want
        assert engine_state(bulk) == engine_state(ref)
        assert len(bulk) == len(ref)

    def test_missing_raise_is_default(self):
        keys = np.sort(np.random.default_rng(5).uniform(0, 1e4, 1_000))
        engine = ShardedEngine(keys, n_shards=2, error=32, buffer_capacity=8)
        with pytest.raises(KeyNotFoundError):
            engine.delete_batch([keys[0], 2e9])  # 2e9 sorts (and misses) last
        # keys[0] routed/applied before the raise, as the scalar loop would.
        sentinel = object()
        assert engine.get(keys[0], sentinel) is sentinel


class TestEmptyBatchNoOp:
    def test_empty_batch_touches_nothing(self):
        keys = np.sort(np.random.default_rng(6).uniform(0, 1e6, 5_000))
        engine = ShardedEngine(keys, n_shards=4, error=64, buffer_capacity=16)
        engine.get_batch(keys[:256])  # warm flat views
        versions = engine.shard_versions()
        builds = engine.stats()["view_builds"]
        for empty in (np.empty(0), [], np.asarray([], dtype=np.float64)):
            out = engine.delete_batch(empty)
            assert out.size == 0
        assert engine.shard_versions() == versions
        engine.get_batch(keys[:256])
        assert engine.stats()["view_builds"] == builds


class TestViewMaintenance:
    def test_single_shard_delete_patches_combined_view(self):
        keys = get("uniform", n=20_000, seed=7)
        engine = ShardedEngine(keys, n_shards=4, error=64, buffer_capacity=16)
        engine.get_batch(keys[:512])  # export the engine's view
        # Few enough per page that no page reaches its rebuild budget.
        low_shard = keys[keys < engine.cuts[0]][::500]
        engine.delete_batch(low_shard)
        sentinel = object()
        for _ in range(3):
            got = engine.get_batch(np.concatenate([low_shard, keys[-200:]]),
                                   sentinel)
        assert all(v is sentinel for v in got[: low_shard.size])
        assert all(v is not sentinel for v in got[low_shard.size:])
        stats = engine.stats()
        assert stats["view_patches"] == 1  # tombstones patched in place
        assert stats["view_full_rebuilds"] == 1  # the first export only


class TestAcceptanceSpeedup:
    def test_delete_batch_beats_per_key_delete_3x(self):
        """The PR's headline delete number: >= 3x over the per-key delete
        loop at 100k uniform keys (write-optimized buffer config)."""
        keys = get("uniform", n=100_000, seed=8)
        rng = np.random.default_rng(9)
        victims = keys[rng.choice(keys.size, 50_000, replace=False)]

        def build():
            return ShardedEngine(
                keys, n_shards=4, error=1056.0, buffer_capacity=1024
            )

        # Best-of-3 on both sides to keep CI timing noise out of the ratio.
        per_key_seconds, bulk_seconds = [], []
        for _ in range(3):
            eng_pk = build()
            start = time.perf_counter()
            order = np.argsort(victims, kind="stable")
            sk = victims[order]
            for sid, (a, b) in enumerate(shard_bounds(sk, eng_pk.cuts)):
                delete = eng_pk._shards[sid].delete
                for k in sk[a:b]:
                    delete(k)
            per_key_seconds.append(time.perf_counter() - start)

            eng_bulk = build()
            start = time.perf_counter()
            eng_bulk.delete_batch(victims)
            bulk_seconds.append(time.perf_counter() - start)

        assert len(eng_pk) == len(eng_bulk) == keys.size - victims.size
        sample = victims[::97]
        miss = object()
        assert all(
            v is miss for v in eng_bulk.get_batch(sample, miss)
        ) and all(v is miss for v in eng_pk.get_batch(sample, miss))
        speedup = min(per_key_seconds) / min(bulk_seconds)
        assert speedup >= 3.0, f"delete_batch speedup {speedup:.2f}x < 3x"
