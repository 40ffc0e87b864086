"""Server facade: equivalence with the scalar path, ordering, stats.

The serving layer is an execution strategy, not a semantic change: every
test here pins "what a client awaits" against what scalar ``engine.get`` /
``range_items`` / ``insert`` would have produced.
"""

import asyncio

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError
from repro.datasets import get
from repro.engine import ShardedEngine
from repro.serve import Server
from repro.workloads import uniform_lookups


def run(coro):
    return asyncio.run(coro)


def build_engine(n=20_000, seed=0, buffer_capacity=64, error=128.0):
    keys = get("uniform", n=n, seed=seed)
    return ShardedEngine(
        keys, n_shards=4, error=error, buffer_capacity=buffer_capacity
    ), keys


class TestEquivalence:
    def test_concurrent_gets_match_scalar(self):
        engine, keys = build_engine()
        queries = uniform_lookups(keys, 2_000, seed=1)
        expected = [engine.get(k) for k in queries]

        async def main():
            async with Server(engine) as server:
                return await asyncio.gather(*(server.get(k) for k in queries))

        got = run(main())
        assert list(got) == expected

    def test_missing_keys_get_defaults(self):
        engine, keys = build_engine()
        miss = float(keys[-1]) + 1000.0

        async def main():
            async with Server(engine) as server:
                return (
                    await server.get(miss),
                    await server.get(miss, default="sentinel"),
                )

        assert run(main()) == (None, "sentinel")

    def test_range_matches_scalar_iteration(self):
        engine, keys = build_engine()
        lo, hi = float(keys[100]), float(keys[400])
        expected = list(engine.range_items(lo, hi))

        async def main():
            async with Server(engine) as server:
                return await server.range(lo, hi)

        rk, rv = run(main())
        assert [(float(k), v) for k, v in zip(rk, rv)] == expected

    def test_concurrent_ranges_batch_together(self):
        engine, keys = build_engine()
        bounds = [
            (float(keys[i]), float(keys[i + 50])) for i in range(0, 500, 100)
        ]
        expected = [engine.range_arrays(lo, hi) for lo, hi in bounds]

        async def main():
            async with Server(engine) as server:
                return await asyncio.gather(
                    *(server.range(lo, hi) for lo, hi in bounds)
                )

        got = run(main())
        for (gk, gv), (ek, ev) in zip(got, expected):
            assert np.array_equal(gk, ek)
            assert np.array_equal(gv, ev)

    def test_closed_loop_matches_scalar(self):
        engine, keys = build_engine(buffer_capacity=0)
        queries = uniform_lookups(keys, 3_000, seed=2)
        expected = np.asarray([engine.get(k) for k in queries])

        async def main():
            # 32 closed-loop callers: caller c awaits keys c, c+32, ...
            # one at a time.
            results = [None] * queries.size

            async def caller(c):
                for i in range(c, queries.size, 32):
                    results[i] = await server.get(float(queries[i]))

            async with Server(engine) as server:
                await asyncio.gather(*(caller(c) for c in range(32)))
            return results

        assert np.array_equal(np.asarray(run(main())), expected)

    def test_open_loop_matches_scalar(self):
        engine, keys = build_engine(buffer_capacity=0)
        queries = uniform_lookups(keys, 500, seed=3)
        expected = np.asarray([engine.get(k) for k in queries])

        async def main():
            # Seeded Poisson arrivals at 50 k/s, each get its own task.
            arrivals = np.cumsum(
                np.random.default_rng(4).exponential(1 / 50_000.0, queries.size)
            )
            loop = asyncio.get_running_loop()

            async def arrive(i, start):
                await asyncio.sleep(max(0.0, start + arrivals[i] - loop.time()))
                return await server.get(float(queries[i]))

            async with Server(engine) as server:
                start = loop.time()
                return await asyncio.gather(
                    *(arrive(i, start) for i in range(queries.size))
                )

        assert np.array_equal(np.asarray(run(main())), expected)


class TestReadYourWrites:
    def test_insert_then_get_same_key(self):
        engine, keys = build_engine()

        async def main():
            async with Server(engine) as server:
                await server.insert(123.25, 777)
                return await server.get(123.25)

        assert run(main()) == 777

    def test_overlapping_read_waits_for_insert_in_same_cycle(self):
        engine, _keys = build_engine()

        async def main():
            async with Server(engine) as server:
                # Submitted back-to-back without yielding: both land in the
                # same flush cycle, and the read overlaps the insert fence.
                ins = asyncio.ensure_future(server.insert(55.5, 42))
                red = asyncio.ensure_future(server.get(55.5))
                await asyncio.gather(ins, red)
                assert server.stats()["batcher"]["barrier_held"] == 1
                return red.result()

        assert run(main()) == 42

    def test_non_overlapping_read_not_held(self):
        engine, keys = build_engine()
        far_key = float(keys[10])  # far below the inserted key

        async def main():
            async with Server(engine) as server:
                ins = asyncio.ensure_future(server.insert(1e12, 1))
                red = asyncio.ensure_future(server.get(far_key))
                await asyncio.gather(ins, red)
                return server.stats()["batcher"]["barrier_held"]

        assert run(main()) == 0

    def test_overlapping_range_waits_for_insert(self):
        engine, _keys = build_engine()

        async def main():
            async with Server(engine) as server:
                ins = asyncio.ensure_future(server.insert(500.5, 9))
                rng = asyncio.ensure_future(server.range(400.0, 600.0))
                await asyncio.gather(ins, rng)
                rk, rv = rng.result()
                return [(float(k), v) for k, v in zip(rk, rv)]

        items = run(main())
        assert (500.5, 9) in items

    def test_insert_batch_equivalent_to_scalar_loop(self):
        engine_a, keys = build_engine(seed=5)
        engine_b, _ = build_engine(seed=5)
        rng = np.random.default_rng(6)
        new_keys = rng.uniform(keys[0], keys[-1], 500)

        async def main():
            async with Server(engine_a) as server:
                await asyncio.gather(
                    *(server.insert(k) for k in new_keys)
                )

        run(main())
        # The scalar reference applies the same stream in arrival order.
        for k in new_keys:
            engine_b.insert(k)
        sample = new_keys[::7]
        assert np.array_equal(
            engine_a.get_batch(sample), engine_b.get_batch(sample)
        )

    def test_barrier_version_recorded(self):
        engine, _keys = build_engine()

        async def main():
            async with Server(engine) as server:
                pre = server.stats()["batcher"]["barrier_version"]
                await server.insert(3.5, 1)
                post = server.stats()["batcher"]["barrier_version"]
                return pre, post, engine.version

        pre, post, version = run(main())
        assert pre is None
        assert post == version


class TestStatsAndKnobs:
    def test_stats_shape(self):
        engine, keys = build_engine()

        async def main():
            async with Server(engine) as server:
                await asyncio.gather(*(server.get(k) for k in keys[:64]))
                await server.insert(1.5, 2)
                return server.stats()

        st = run(main())
        assert st["completed"] == 65
        assert st["latency"]["get"]["count"] == 64
        assert st["latency"]["get"]["p99_us"] >= st["latency"]["get"]["p50_us"]
        assert st["batcher"]["ops"]["get"] == 64
        assert st["batcher"]["flushes"] >= 1
        assert st["batcher"]["max_batch_observed"] >= 2
        assert st["engine_version"] == engine.version
        assert st["throughput_ops_per_s"] > 0

    def test_engine_version_monotonic(self):
        engine, _keys = build_engine()
        v0 = engine.version
        engine.insert(9.25, 0)
        assert engine.version > v0

    def test_max_batch_chunks_dispatch(self):
        engine, keys = build_engine()

        async def main():
            async with Server(engine, max_batch=8) as server:
                await asyncio.gather(*(server.get(k) for k in keys[:64]))
                return server.stats()["batcher"]

        st = run(main())
        assert st["max_batch_observed"] <= 8
        assert st["batches"]["get"] >= 8

    def test_warm_builds_views(self):
        engine, _keys = build_engine(buffer_capacity=0)

        async def main():
            async with Server(engine) as server:
                await server.warm()
                return engine.stats()["view_builds"]

        assert run(main()) >= 1

    def test_invalid_parameters_rejected(self):
        engine, _keys = build_engine()
        with pytest.raises(InvalidParameterError):
            Server(engine, overload="bogus")
        with pytest.raises(InvalidParameterError):
            Server(engine, max_pending=0)
        with pytest.raises(InvalidParameterError):
            Server(engine, latency_window=0)
