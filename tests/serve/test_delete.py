"""The serving layer's delete verb: batching, fencing, failure isolation.

Pins the PR's serve-level delete contract:

* ``await server.delete(key)`` resolves to the deleted value, coalesced
  through one ``engine.delete_batch`` dispatch per flush;
* deletes share the inserts' read-your-writes fence: a read submitted
  after an overlapping delete never sees the removed occurrence, and
  writes of both kinds apply in submission order;
* an absent key rejects only its own future with ``KeyNotFoundError`` —
  batch-mates still succeed;
* ``max_batch=1`` dispatches the scalar delete verb, one key per chunk.
"""

import asyncio

import numpy as np
import pytest

from repro.core.errors import KeyNotFoundError
from repro.engine import ShardedEngine
from repro.serve import RequestBatcher, Server


def make_engine(n=2_000, seed=0, **kwargs):
    keys = np.sort(np.random.default_rng(seed).uniform(0, 1e6, n))
    kwargs.setdefault("n_shards", 2)
    kwargs.setdefault("error", 64)
    kwargs.setdefault("buffer_capacity", 16)
    return keys, ShardedEngine(keys, **kwargs)


class TestDeleteDispatch:
    def test_concurrent_deletes_coalesce_into_one_batch(self):
        keys, engine = make_engine()

        async def main():
            async with Server(engine) as server:
                values = await asyncio.gather(
                    *[server.delete(k) for k in keys[:64]]
                )
                assert values == list(range(64))
                stats = server.stats()["batcher"]
                assert stats["ops"]["delete"] == 64
                assert stats["batches"]["delete"] <= 2  # coalesced, not 64
                sentinel = object()
                misses = await asyncio.gather(
                    *[server.get(k, sentinel) for k in keys[:64]]
                )
                assert all(v is sentinel for v in misses)

        asyncio.run(main())

    def test_absent_key_rejects_only_its_future(self):
        keys, engine = make_engine()

        async def main():
            async with Server(engine) as server:
                results = await asyncio.gather(
                    server.delete(keys[0]),
                    server.delete(-123.0),
                    server.delete(keys[1]),
                    return_exceptions=True,
                )
                assert results[0] == 0 and results[2] == 1
                assert isinstance(results[1], KeyNotFoundError)

        asyncio.run(main())

    def test_solo_mode_scalar_deletes(self):
        keys, engine = make_engine()

        async def main():
            async with Server(engine, max_batch=1) as server:
                assert await server.delete(keys[3]) == 3
                with pytest.raises(KeyNotFoundError):
                    await server.delete(keys[3])

        asyncio.run(main())


class TestWriteFence:
    def test_read_after_delete_misses(self):
        keys, engine = make_engine()

        async def main():
            async with Server(engine) as server:
                deleted, read = await asyncio.gather(
                    server.delete(keys[10]), server.get(keys[10], "MISS")
                )
                assert deleted == 10 and read == "MISS"
                held = server.stats()["batcher"]["barrier_held"]
                assert held >= 1  # the read really crossed the fence

        asyncio.run(main())

    def test_insert_then_delete_same_key_in_one_cycle(self):
        keys, engine = make_engine()

        async def main():
            async with Server(engine) as server:
                new_key = 123.456
                _, deleted, read = await asyncio.gather(
                    server.insert(new_key, 999),
                    server.delete(new_key),
                    server.get(new_key, "MISS"),
                )
                assert deleted == 999  # submission order: insert first
                assert read == "MISS"

        asyncio.run(main())

    def test_delete_then_insert_same_key_in_one_cycle(self):
        keys, engine = make_engine()

        async def main():
            async with Server(engine) as server:
                k = float(keys[20])
                deleted, _, read = await asyncio.gather(
                    server.delete(k),
                    server.insert(k, 555),
                    server.get(k),
                )
                assert deleted == 20
                assert read == 555  # the re-insert is visible afterwards

        asyncio.run(main())

    def test_range_after_delete_excludes_removed_rows(self):
        keys, engine = make_engine()

        async def main():
            async with Server(engine) as server:
                lo, hi = float(keys[30]), float(keys[40])
                _, (rkeys, _rvals) = await asyncio.gather(
                    server.delete(float(keys[35])), server.range(lo, hi)
                )
                assert keys[35] not in rkeys
                assert rkeys.size == 10  # 11 keys in [30, 40] minus one

        asyncio.run(main())


class TestBatcherDirect:
    def test_delete_stats_and_drain(self):
        keys, engine = make_engine()

        async def main():
            batcher = RequestBatcher(engine, max_batch=8, max_delay=0.001)
            futures = [batcher.submit_delete(k) for k in keys[:8]]
            values = await asyncio.gather(*futures)
            assert values == list(range(8))
            stats = batcher.stats()
            assert stats["ops"]["delete"] == 8
            assert stats["batches"]["delete"] == 1
            assert stats["barrier_version"] == engine.version
            await batcher.drain()

        asyncio.run(main())

    def test_whole_batch_failure_falls_back_per_key(self):
        keys, engine = make_engine()

        class ExplodingBatch:
            """delete_batch fails, applying nothing, on more than one key;
            a per-key retry (a one-key batch) works."""

            def __getattr__(self, name):
                return getattr(engine, name)

            def delete_batch(self, keys, **kw):
                if len(keys) > 1:
                    raise RuntimeError("boom")
                return engine.delete_batch(keys, **kw)

        async def main():
            batcher = RequestBatcher(ExplodingBatch(), max_batch=8)
            results = await asyncio.gather(
                *[batcher.submit_delete(k) for k in keys[:4]],
                return_exceptions=True,
            )
            assert results == [0, 1, 2, 3]  # per-key fallback succeeded
            assert batcher.stats()["scalar_fallbacks"] >= 1

        asyncio.run(main())
