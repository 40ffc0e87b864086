"""Sharded batch serving: amortize index traversal across query batches.

A single FITing-Tree answers one key at a time — a Python-level B+ tree
descent plus a bounded window search per query. The ShardedEngine is the
serving layer above it: the key space is range-partitioned into shards (one
FITing-Tree each), and whole query batches are answered through flattened
NumPy views of the segments — one searchsorted routing pass, one
searchsorted over the globally sorted data, and a bounded buffer probe.

Run:  python examples/sharded_engine.py
"""

import time

import numpy as np

from repro import FITingTree, open_engine
from repro.workloads import uniform_lookups


def main() -> None:
    # A building's worth of IoT events: 1M sorted timestamps.
    rng = np.random.default_rng(42)
    keys = np.sort(rng.uniform(0, 3.15e7, 1_000_000))

    engine = open_engine(keys, n_shards=4, error=256)
    print(f"engine: {engine}")
    for i, shard in enumerate(engine.shards):
        print(f"  shard {i}: n={len(shard):,}, segments={shard.n_segments:,}")

    # A serving tier sees batches, not single keys: answer 100k point
    # lookups in batches of 1024 and compare with the per-key loop.
    queries = uniform_lookups(keys, 100_000, seed=1)
    start = time.perf_counter()
    hits = 0
    for i in range(0, len(queries), 1024):
        out = engine.get_batch(queries[i : i + 1024])
        # An all-hit batch comes back in the values dtype; a miss turns it
        # into an object array holding the default (None) in that slot.
        if out.dtype == object:
            hits += sum(v is not None for v in out)
        else:
            hits += len(out)
    batch_ns = (time.perf_counter() - start) * 1e9 / len(queries)
    print(f"\nbatched lookups : {1e9 / batch_ns:,.0f} ops/s "
          f"({batch_ns:,.0f} ns/op, hits={hits:,})")

    tree = FITingTree(keys, error=256)
    sample = queries[:10_000]
    start = time.perf_counter()
    for q in sample:
        tree.get(q)
    scalar_ns = (time.perf_counter() - start) * 1e9 / len(sample)
    print(f"scalar loop     : {1e9 / scalar_ns:,.0f} ops/s "
          f"({scalar_ns:,.0f} ns/op)")
    print(f"speedup         : {scalar_ns / batch_ns:.1f}x")

    # Batched range scans: each bound resolves to one contiguous slice per
    # overlapped shard.
    los = rng.uniform(0, 3.1e7, 1_000)
    bounds = np.stack([los, los + 3_000.0], axis=1)
    start = time.perf_counter()
    scans = engine.range_batch(bounds)
    elapsed = time.perf_counter() - start
    scanned = sum(len(k) for k, _ in scans)
    print(f"\nrange_batch     : {len(bounds):,} scans, {scanned:,} tuples "
          f"in {elapsed * 1e3:.1f} ms")

    # Batched writes: grouped per shard, applied in key order; the next
    # read re-exports only the pages they touched.
    inserts = rng.uniform(0, 3.15e7, 50_000)
    start = time.perf_counter()
    engine.insert_batch(inserts)
    elapsed = time.perf_counter() - start
    print(f"insert_batch    : {len(inserts):,} inserts in {elapsed:.2f} s")

    stats = engine.stats()
    print(f"\nengine stats    : n={stats['n']:,}, pages={stats['n_pages']:,}, "
          f"buffered={stats['buffered_elements']:,}")
    print(f"view cache      : {stats['view_builds']} builds, "
          f"{stats['view_hits']} hits "
          f"(hit rate {stats['view_hit_rate']:.2f})")
    engine.validate()
    print("validate        : ok")


if __name__ == "__main__":
    main()
