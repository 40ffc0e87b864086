"""RequestBatcher mechanics: flush triggers, chunking, fences, drain.

These tests drive the batcher directly (no Server facade) with
``eager_flush`` disabled where the size/delay semantics themselves are
under test — the idle-flush optimization would otherwise fire first.
"""

import asyncio

import pytest

from repro.core.errors import InvalidParameterError
from repro.datasets import get
from repro.engine import ShardedEngine
from repro.serve import RequestBatcher


def run(coro):
    return asyncio.run(coro)


def build_engine(n=5_000, seed=0):
    keys = get("uniform", n=n, seed=seed)
    return ShardedEngine(keys, n_shards=2, error=128.0, buffer_capacity=64), keys


class TestFlushTriggers:
    def test_flush_on_timeout_single_pending_request(self):
        """A lone request is never stranded: the max_delay timer fires
        even with nothing else arriving (the satellite edge case)."""
        engine, keys = build_engine()
        expected = engine.get(keys[7])

        async def main():
            batcher = RequestBatcher(
                engine, max_batch=1024, max_delay=0.01, eager_flush=False
            )
            fut = batcher.submit_get(keys[7])
            assert batcher.pending == 1
            value = await asyncio.wait_for(fut, timeout=2.0)
            assert batcher.pending == 0
            return value, batcher.stats()

        value, stats = run(main())
        assert value == expected
        assert stats["flushes"] == 1
        assert stats["batches"]["get"] == 1

    def test_flush_on_max_batch_before_delay(self):
        engine, keys = build_engine()

        async def main():
            batcher = RequestBatcher(
                engine, max_batch=4, max_delay=30.0, eager_flush=False
            )
            futs = [batcher.submit_get(k) for k in keys[:4]]
            # The timer is half a minute out; only the size trigger can
            # flush this fast.
            await asyncio.wait_for(asyncio.gather(*futs), timeout=2.0)
            return batcher.stats()

        stats = run(main())
        assert stats["flushes"] >= 1
        assert stats["max_batch_observed"] == 4

    def test_idle_flush_coalesces_concurrent_clients(self):
        """With eager_flush on, N blocked clients form one N-sized batch
        without waiting for max_delay."""
        engine, keys = build_engine()

        async def main():
            batcher = RequestBatcher(
                engine, max_batch=1024, max_delay=30.0, eager_flush=True
            )
            futs = [batcher.submit_get(k) for k in keys[:32]]
            await asyncio.wait_for(asyncio.gather(*futs), timeout=2.0)
            return batcher.stats()

        stats = run(main())
        assert stats["max_batch_observed"] == 32
        assert stats["batches"]["get"] == 1

    def test_drain_flushes_everything(self):
        engine, keys = build_engine()
        expected = [engine.get(k) for k in keys[:10]]

        async def main():
            batcher = RequestBatcher(
                engine, max_batch=1024, max_delay=30.0, eager_flush=False
            )
            futs = [batcher.submit_get(k) for k in keys[:10]]
            ins = batcher.submit_insert(float(keys[3]) + 0.5, 1)
            await batcher.drain()
            assert batcher.pending == 0
            assert ins.result() is None
            return [f.result() for f in futs]

        assert run(main()) == expected

    def test_invalid_parameters(self):
        engine, _ = build_engine()
        with pytest.raises(InvalidParameterError):
            RequestBatcher(engine, max_batch=0)
        with pytest.raises(InvalidParameterError):
            RequestBatcher(engine, max_delay=-1.0)


class TestInsertFence:
    def test_fence_tracks_min_max_of_pending_inserts(self):
        engine, _ = build_engine()

        async def main():
            batcher = RequestBatcher(engine, eager_flush=False, max_delay=30.0)
            batcher.submit_insert(100.0, 1)
            batcher.submit_insert(200.0, 2)
            # Inside [100, 200]: held. Outside: not held.
            batcher.submit_get(150.0)
            batcher.submit_get(99.0)
            batcher.submit_get(201.0)
            held = batcher.stats()["barrier_held"]
            await batcher.drain()
            return held

        assert run(main()) == 1

    def test_unroutable_insert_widens_fence_to_everything(self):
        engine, keys = build_engine()

        async def main():
            batcher = RequestBatcher(engine, eager_flush=False, max_delay=30.0)
            batcher.submit_insert("bogus", 1)  # cannot float(): full fence
            batcher.submit_get(float(keys[0]))
            held = batcher.stats()["barrier_held"]
            await batcher.drain()
            return held

        assert run(main()) == 1

    def test_held_reads_resolve_in_same_cycle(self):
        engine, _ = build_engine()

        async def main():
            batcher = RequestBatcher(engine, eager_flush=False, max_delay=30.0)
            ins = batcher.submit_insert(500.0, 77)
            red = batcher.submit_get(500.0)
            await batcher.drain()
            assert ins.result() is None
            return red.result()

        assert run(main()) == 77


class TestSoloMode:
    """max_batch=1: chunks of one through the ordinary flush cycle."""

    def test_per_request_tasks_match_scalar(self):
        engine, keys = build_engine()
        expected = [engine.get(k) for k in keys[:20]]

        async def main():
            batcher = RequestBatcher(engine, max_batch=1, max_delay=0.0)
            futs = [batcher.submit_get(k) for k in keys[:20]]
            got = await asyncio.gather(*futs)
            stats = batcher.stats()
            return list(got), stats

        got, stats = run(main())
        assert got == expected
        assert stats["batches"]["get"] == 20
        assert stats["max_batch_observed"] == 1
        # One tick of submissions is one flush cycle of 20 one-key
        # dispatches, not 20 cycles.
        assert stats["flushes"] == 1
        assert stats["flush_reasons"]["size"] == 1

    def test_solo_read_your_writes_fifo(self):
        engine, _ = build_engine()

        async def main():
            batcher = RequestBatcher(engine, max_batch=1, max_delay=0.0)
            ins = batcher.submit_insert(77.5, 5)
            red = batcher.submit_get(77.5)
            await asyncio.gather(ins, red)
            return red.result()

        assert run(main()) == 5

    def test_solo_drain_awaits_inflight_tasks(self):
        engine, keys = build_engine()
        expected = [engine.get(k) for k in keys[:8]]

        async def main():
            batcher = RequestBatcher(engine, max_batch=1, max_delay=0.0)
            futs = [batcher.submit_get(k) for k in keys[:8]]
            await batcher.drain()
            return [f.result() for f in futs]

        assert run(main()) == expected
