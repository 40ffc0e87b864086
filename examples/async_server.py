"""Async serving: micro-batching concurrent clients over the engine.

Demonstrates layer 3 of the stack (`repro.serve`): a `Server` wraps a
`ShardedEngine`, and concurrent `await server.get(...)` calls from many
clients are coalesced into vectorized micro-batches — each client keeps
its one-key-at-a-time API while the engine sees the batch workloads it is
fast at. The scenario:

1. build a 500k-key engine and serve 64 closed-loop clients, one key
   per dispatch (`max_batch=1`) vs batched, printing the throughput gap;
2. mix writers and readers to show read-your-writes ordering across the
   insert fence;
3. bound the queue (`max_pending`) and show backpressure rejecting
   arrivals past capacity.

Run:  python examples/async_server.py
"""

import asyncio
import time

import numpy as np

from repro import open_engine
from repro.serve import Server, ServerOverloadedError
from repro.workloads import uniform_lookups


async def closed_loop(srv, queries, clients):
    """Each client awaits its keys one at a time; returns (ops/s,
    per-request latencies in seconds)."""
    latencies = np.empty(queries.size)

    async def client(c):
        for i in range(c, queries.size, clients):
            t0 = time.perf_counter()
            await srv.get(float(queries[i]))
            latencies[i] = time.perf_counter() - t0

    start = time.perf_counter()
    await asyncio.gather(*(client(c) for c in range(clients)))
    return queries.size / (time.perf_counter() - start), latencies


def build():
    rng = np.random.default_rng(7)
    keys = np.sort(rng.uniform(0, 1e9, 500_000))
    engine = open_engine(keys, n_shards=4, error=512.0, buffer_capacity=256)
    return engine, keys


async def throughput_demo(engine, keys):
    queries = uniform_lookups(keys, 30_000, seed=1)
    print("64 closed-loop clients, 30k lookups:")
    rates = {}
    for label, max_batch, max_delay in (
        ("one key per dispatch", 1, 0.0),
        ("micro-batched", 1024, 0.001),
    ):
        async with Server(engine, max_batch=max_batch, max_delay=max_delay) as srv:
            await srv.warm()
            rate, latencies = await closed_loop(srv, queries, clients=64)
        rates[label] = rate
        p50, p99 = np.percentile(latencies, [50, 99]) * 1e6
        print(
            f"  {label:20s} {rate:10,.0f} ops/s   "
            f"p50 {p50:7.0f} us   p99 {p99:7.0f} us"
        )
    print(f"  -> batching buys {rates['micro-batched'] / rates['one key per dispatch']:.1f}x\n")


async def read_your_writes_demo(engine):
    print("read-your-writes across the write fence:")
    async with Server(engine) as srv:
        # Writer and reader race on the same key inside one flush cycle;
        # the reader is barriered behind the insert and sees the write.
        write = asyncio.ensure_future(srv.insert(3.14159, 314159))
        read = asyncio.ensure_future(srv.get(3.14159))
        await asyncio.gather(write, read)
        held = srv.stats()["batcher"]["barrier_held"]
        print(f"  reader saw {read.result()!r} (reads held at fence: {held})")
        # Deletes ride the same fence: the racing reader misses cleanly.
        gone, after = await asyncio.gather(
            srv.delete(3.14159), srv.get(3.14159, "MISS")
        )
        print(f"  delete returned {gone!r}; racing reader saw {after!r}\n")


async def backpressure_demo(engine, keys):
    print("backpressure (max_pending=32, overload='reject'):")
    srv = Server(
        engine, max_pending=32, overload="reject",
        eager_flush=False, max_delay=0.05,
    )
    admitted = [
        asyncio.ensure_future(srv.get(k)) for k in keys[:32]
    ]
    await asyncio.sleep(0)  # let the 32 requests occupy the queue
    rejected = 0
    for k in keys[32:40]:
        try:
            await srv.get(k)
        except ServerOverloadedError:
            rejected += 1
    await srv.close()  # drains the admitted 32
    results = await asyncio.gather(*admitted, return_exceptions=True)
    done = sum(1 for r in results if not isinstance(r, Exception))
    print(f"  admitted {done}, rejected {rejected} past capacity\n")


async def main():
    engine, keys = build()
    await throughput_demo(engine, keys)
    await read_your_writes_demo(engine)
    await backpressure_demo(engine, keys)
    print("server stats keys:", ", ".join(Server(engine).stats().keys()))


if __name__ == "__main__":
    asyncio.run(main())
