"""Multi-process serving: an async Server over a ClusterEngine.

The whole stack in one file: build a FITing-Tree-backed engine, promote it
to one worker process per range shard (``ClusterEngine.from_engine``), and
serve concurrent async clients through the micro-batching front-end — each
flush's batch is split per owning worker and every worker gets its
sub-batch before any reply is read, so the shards compute *at the same
time*.

Run: ``PYTHONPATH=src python examples/cluster_server.py``
"""

import asyncio
import time

import numpy as np

from repro import open_engine
from repro.serve import Server

N_KEYS = 200_000
N_SHARDS = 4
N_CLIENTS = 64
REQUESTS_PER_CLIENT = 200


async def client(server, queries):
    hits = 0
    for q in queries:
        if await server.get(float(q)) is not None:
            hits += 1
    return hits


async def main():
    keys = np.sort(np.random.default_rng(0).uniform(0, 1e9, N_KEYS))
    # One declarative call: build + snapshot + one worker per shard.
    # (To promote an already-live in-process engine instead, use
    # ClusterEngine.from_engine(engine).)
    engine = open_engine(keys, executor="cluster", n_shards=N_SHARDS,
                         error=128, buffer_capacity=32)
    print(f"built {N_SHARDS}-worker cluster over {N_KEYS:,} keys")
    try:
        stats = engine.stats()
        print("workers:", [w["pid"] for w in stats["workers"]])

        rng = np.random.default_rng(1)
        streams = [
            keys[rng.integers(0, N_KEYS, REQUESTS_PER_CLIENT)]
            for _ in range(N_CLIENTS)
        ]
        async with Server(engine) as server:
            await server.warm()

            # Writes are fenced: the insert is applied in its owning
            # worker before the await resolves, so this read — possibly
            # batched with reads served by other processes — sees it.
            await server.insert(123.456, 999)
            assert await server.get(123.456) == 999

            start = time.perf_counter()
            hits = await asyncio.gather(
                *[client(server, s) for s in streams]
            )
            elapsed = time.perf_counter() - start

            total = N_CLIENTS * REQUESTS_PER_CLIENT
            batcher = server.stats()["batcher"]
            print(f"{total:,} requests in {elapsed:.2f}s "
                  f"({total / elapsed:,.0f} ops/s), all hits: "
                  f"{sum(hits) == total}")
            print(f"get batches: {batcher['batches']['get']}, "
                  f"largest: {batcher['max_batch_observed']}")
    finally:
        engine.close()
    print("workers joined; shared memory released")


if __name__ == "__main__":
    asyncio.run(main())
