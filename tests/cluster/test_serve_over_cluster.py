"""The serve layer runs over a ClusterEngine unchanged.

The point of keeping the exact ShardedEngine API: ``repro.serve.Server``
(batching, read-your-writes fences, failure isolation, drain-on-close)
must work over the multi-process engine with no adapter — and with
``shard_concurrency`` set, get flushes split into per-shard tasks answered
by different worker processes.
"""

import asyncio

import numpy as np
import pytest

from helpers import cluster
from repro.serve import Server


@pytest.fixture
def keys():
    return np.sort(np.random.default_rng(0).uniform(0, 1e6, 10_000))


def run(coro):
    return asyncio.run(coro)


class TestServerOverCluster:
    def test_gets_match_row_ids(self, keys):
        async def main(engine):
            async with Server(engine) as server:
                await server.warm()
                values = await asyncio.gather(
                    *[server.get(k) for k in keys[:300]]
                )
                assert values == list(range(300))
                assert server.stats()["batcher"]["batches"]["get"] >= 1

        with cluster(keys, n_shards=4, error=64) as engine:
            run(main(engine))

    def test_read_your_writes_across_the_process_hop(self, keys):
        async def scenario(engine):
            async with Server(engine, max_batch=256) as server:
                async def write_then_read(k, v):
                    await server.insert(k, None)
                    return await server.get(k)

                fresh = np.random.default_rng(1).uniform(0, 1e6, 32)
                results = await asyncio.gather(
                    *[write_then_read(float(k), None) for k in fresh]
                )
                assert all(r is not None for r in results)
                barrier = server.stats()["batcher"]["barrier_version"]
                assert barrier == engine.version

        with cluster(keys, n_shards=3, error=64, buffer_capacity=16) as engine:
            run(scenario(engine))

    def test_failure_isolation_per_request(self, keys):
        """A poisoned batch-mate (uncoercible key) fails alone; the rest
        of the batch still answers from the worker processes."""

        async def main(engine):
            async with Server(engine) as server:
                futures = [server.get(k) for k in keys[:10]]
                bad = server.get("not-a-key")
                results = await asyncio.gather(
                    *futures, bad, return_exceptions=True
                )
                assert results[:10] == list(range(10))
                assert isinstance(results[10], Exception)

        with cluster(keys, n_shards=2, error=64) as engine:
            run(main(engine))

    def test_drain_on_close(self, keys):
        async def main(engine):
            server = Server(engine, max_delay=5.0, eager_flush=False)
            futures = [server.get(k) for k in keys[:50]]
            await server.close()  # drain must resolve everything pending
            assert [f.result() for f in futures] == list(range(50))

        with cluster(keys, n_shards=2, error=64) as engine:
            run(main(engine))
