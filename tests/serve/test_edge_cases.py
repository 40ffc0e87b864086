"""Serve edge cases: failure isolation, backpressure, clean shutdown.

The satellite checklist items: an exception in one request of a batch must
not poison its batch-mates, a full queue must behave per the configured
overload policy, and shutdown must drain in-flight requests while refusing
new ones.
"""

import asyncio

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError
from repro.datasets import get
from repro.engine import ShardedEngine
from repro.serve import Server, ServerClosedError, ServerOverloadedError


def run(coro):
    return asyncio.run(coro)


def build_engine(n=5_000, seed=0, buffer_capacity=64):
    keys = get("uniform", n=n, seed=seed)
    return ShardedEngine(
        keys, n_shards=2, error=128.0, buffer_capacity=buffer_capacity
    ), keys


class TestFailureIsolation:
    def test_bad_get_does_not_poison_batch_mates(self):
        engine, keys = build_engine()
        good = [float(k) for k in keys[:8]]
        expected = [engine.get(k) for k in good]

        async def main():
            async with Server(engine) as server:
                futs = [asyncio.ensure_future(server.get(k)) for k in good]
                bad = asyncio.ensure_future(server.get("not-a-key"))
                results = await asyncio.gather(*futs)
                with pytest.raises(Exception):
                    await bad
                return results, server.stats()["batcher"]["scalar_fallbacks"]

        results, fallbacks = run(main())
        assert results == expected
        # The bad key fails at submission, on its own: no batch ever
        # held it, so none had to be retried per op.
        assert fallbacks == 0

    def test_bad_insert_does_not_poison_batch_mates(self):
        engine, keys = build_engine()
        lo, hi = float(keys[0]), float(keys[-1])
        good = list(np.linspace(lo + 0.123, hi - 0.123, 6))

        async def main():
            async with Server(engine) as server:
                futs = [
                    asyncio.ensure_future(server.insert(k, i))
                    for i, k in enumerate(good)
                ]
                bad = asyncio.ensure_future(server.insert(object(), 99))
                refused = asyncio.ensure_future(server.insert(hi - 0.5, "x"))
                await asyncio.gather(*futs)
                with pytest.raises(Exception):
                    await bad
                with pytest.raises(InvalidParameterError):
                    await refused
                checks = await asyncio.gather(*(server.get(k) for k in good))
                return checks, await server.get(hi - 0.5, "MISS")

        checks, gone = run(main())
        assert checks == list(range(6))
        assert gone == "MISS"

    def test_bad_range_does_not_poison_batch_mates(self):
        engine, keys = build_engine()
        lo, hi = float(keys[10]), float(keys[60])
        ek, ev = engine.range_arrays(lo, hi)

        async def main():
            async with Server(engine) as server:
                good = asyncio.ensure_future(server.range(lo, hi))
                bad = asyncio.ensure_future(server.range("x", "y"))
                gk, gv = await good
                with pytest.raises(Exception):
                    await bad
                return gk, gv

        gk, gv = run(main())
        assert np.array_equal(gk, ek)
        assert np.array_equal(gv, ev)

    def test_mixed_value_inserts_apply_per_item(self):
        # None (auto row id) and explicit payloads in one batch cannot go
        # through a single insert_batch; the batcher splits them per item
        # and both semantics hold.
        engine, keys = build_engine()
        auto_key = float(keys[-1]) + 10.0
        expl_key = float(keys[-1]) + 20.0

        async def main():
            async with Server(engine) as server:
                a = asyncio.ensure_future(server.insert(auto_key))
                b = asyncio.ensure_future(server.insert(expl_key, 4242))
                await asyncio.gather(a, b)
                return (
                    await server.get(auto_key),
                    await server.get(expl_key),
                )

        auto_val, expl_val = run(main())
        assert auto_val == len(keys)  # next auto row id
        assert expl_val == 4242


class TestBackpressure:
    def test_reject_mode_raises_when_queue_full(self):
        engine, keys = build_engine()

        async def main():
            # eager_flush off + huge delay: submissions pile up unflushed,
            # so the queue genuinely fills.
            server = Server(
                engine, max_pending=4, overload="reject",
                eager_flush=False, max_delay=30.0,
            )
            admitted = [
                asyncio.ensure_future(server.get(k)) for k in keys[:4]
            ]
            await asyncio.sleep(0)  # let the four tasks submit
            with pytest.raises(ServerOverloadedError):
                await server.get(float(keys[4]))
            rejected = server.stats()["rejected"]
            await server.close()  # drains the four admitted requests
            return [await f for f in admitted], rejected

        results, rejected = run(main())
        assert results == [engine.get(k) for k in keys[:4]]
        assert rejected == 1

    def test_wait_mode_bounds_in_flight_and_completes(self):
        engine, keys = build_engine()
        queries = [float(k) for k in keys[:32]]
        expected = [engine.get(k) for k in queries]

        async def main():
            async with Server(engine, max_pending=4, overload="wait") as server:
                seen = []

                async def one(k):
                    value = await server.get(k)
                    seen.append(server.stats()["in_flight"])
                    return value

                results = await asyncio.gather(*(one(k) for k in queries))
                return results, max(seen)

        results, max_in_flight = run(main())
        assert results == expected
        assert max_in_flight <= 4


class TestShutdown:
    def test_close_drains_in_flight_requests(self):
        engine, keys = build_engine()
        queries = [float(k) for k in keys[:16]]

        async def main():
            server = Server(engine, eager_flush=False, max_delay=30.0)
            futs = [asyncio.ensure_future(server.get(k)) for k in queries]
            await asyncio.sleep(0)  # requests are now pending, unflushed
            await server.close()
            return await asyncio.gather(*futs)

        results = run(main())
        assert results == [engine.get(k) for k in queries]

    def test_submit_after_close_raises(self):
        engine, keys = build_engine()

        async def main():
            server = Server(engine)
            await server.close()
            with pytest.raises(ServerClosedError):
                await server.get(keys[0])
            with pytest.raises(ServerClosedError):
                await server.insert(1.0, 1)
            with pytest.raises(ServerClosedError):
                await server.range(0.0, 1.0)

        run(main())

    def test_close_is_idempotent(self):
        engine, _keys = build_engine()

        async def main():
            server = Server(engine)
            await server.close()
            await server.close()
            assert server.closed

        run(main())

    def test_context_manager_closes(self):
        engine, keys = build_engine()

        async def main():
            async with Server(engine) as server:
                await server.get(keys[0])
            assert server.closed
            with pytest.raises(ServerClosedError):
                await server.get(keys[1])

        run(main())
