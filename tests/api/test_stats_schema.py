"""Cross-backend ``stats()`` conformance: one schema, five backends.

Every engine the factory can open must answer ``stats()`` with the same
top-level key set, so dashboards and the obs exporters can consume any
backend without per-backend branches. The cluster backend must also agree
*numerically* with its in-process twin on the structural fields and the
workload block, and the Server nests its engine's stats under one stable
key.
"""

import asyncio

import numpy as np
import pytest

from repro import open_engine, open_server

N = 5_000
KEYS = np.sort(np.random.default_rng(11).uniform(0, 1e6, N))

#: The unified engine-stats schema (additive over the pre-PR keys).
ENGINE_KEYS = {
    "backend",
    "n",
    "n_shards",
    "cuts",
    "model_bytes",
    "n_pages",
    "buffered_elements",
    "page_rebuilds",
    "view_hits",
    "view_builds",
    "view_hit_rate",
    "view_patches",
    "view_full_rebuilds",
    "shards",
    "workers",
    "ipc",
    "wal",
    "workload",
    "slow_ops",
}

ENGINE_BACKENDS = {
    "sharded": dict(executor="sharded", n_shards=2),
    "single": dict(executor="single"),
    "fixed-page": dict(executor="sharded", n_shards=2, index="fixed"),
    "cluster": dict(executor="cluster", n_shards=2),
}


@pytest.mark.parametrize("name", sorted(ENGINE_BACKENDS))
def test_engine_stats_schema_is_uniform(name):
    engine = open_engine(KEYS, **ENGINE_BACKENDS[name])
    try:
        stats = engine.stats()
        assert set(stats) == ENGINE_KEYS, (
            f"{name}: {set(stats) ^ ENGINE_KEYS}"
        )
        assert stats["backend"] in ("sharded", "cluster")
        assert stats["n"] == N
        assert isinstance(stats["ipc"], dict)
        assert {"batches", "pickle_fallbacks", "lane_growths"} <= set(
            stats["ipc"]
        )
        assert isinstance(stats["workers"], list)
        # Telemetry off: the observability blocks exist but are None.
        assert stats["workload"] is None
        assert stats["slow_ops"] is None
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()


def test_cluster_structural_stats_match_in_process_twin():
    twin = open_engine(KEYS, executor="sharded", n_shards=2)
    cluster = open_engine(KEYS, executor="cluster", n_shards=2)
    try:
        # Exercise the write path so page_rebuilds can move on both sides.
        extra = np.random.default_rng(12).uniform(0, 1e6, 2_000)
        twin.insert_batch(extra)
        cluster.insert_batch(extra)
        a, b = twin.stats(), cluster.stats()
        for key in ("n", "n_shards", "cuts", "n_pages",
                    "buffered_elements", "model_bytes", "page_rebuilds"):
            assert a[key] == b[key], (key, a[key], b[key])
        assert len(b["workers"]) == 2
        assert b["ipc"]["batches"] > 0
    finally:
        cluster.close()


#: The ``stats()["workload"]`` block schema (telemetry with profiling on).
WORKLOAD_KEYS = {
    "n_bins",
    "n_shards",
    "sample",
    "batch_sample",
    "total_keys",
    "read_fraction",
    "verbs",
    "heatmap",
    "hot_keys",
    "skew",
}

#: The ``stats()["slow_ops"]`` block schema (telemetry mode "full").
SLOW_OPS_KEYS = {
    "count",
    "capacity",
    "dropped",
    "observed",
    "threshold_us",
    "p99_estimate_us",
}


@pytest.mark.parametrize("name", sorted(ENGINE_BACKENDS))
def test_workload_stats_schema_is_uniform(name):
    engine = open_engine(KEYS, telemetry="full", **ENGINE_BACKENDS[name])
    try:
        engine.get_batch(KEYS[:256])
        stats = engine.stats()
        assert set(stats) == ENGINE_KEYS
        workload = stats["workload"]
        assert set(workload) == WORKLOAD_KEYS, set(workload) ^ WORKLOAD_KEYS
        assert workload["total_keys"] >= 256
        assert set(workload["verbs"]) == {"get", "range", "insert", "delete"}
        assert len(workload["heatmap"]) == workload["n_shards"]
        assert {"per_shard", "shard_gini", "hottest_shard", "top_bins"} <= set(
            workload["skew"]
        )
        assert set(stats["slow_ops"]) == SLOW_OPS_KEYS
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()


def test_cluster_workload_block_equals_twin():
    twin = open_engine(KEYS, executor="sharded", n_shards=2,
                       telemetry="full")
    cluster = open_engine(KEYS, executor="cluster", n_shards=2,
                          telemetry="full")
    try:
        # Both engines profile the keys they route, before any shard sees
        # them, so the same verb sequence gives the same sketch.
        for engine in (twin, cluster):
            rng = np.random.default_rng(13)
            for _ in range(3):
                engine.get_batch(rng.choice(KEYS, 700))
            engine.insert_batch(rng.uniform(0, 1e6, 300))
            engine.delete_batch(KEYS[::7][:250])
            los = rng.uniform(0, 9e5, 40)
            engine.range_batch(np.stack([los, los + 5e4], axis=1))
        a = twin.stats()["workload"]
        b = cluster.stats()["workload"]
        assert set(a) == WORKLOAD_KEYS
        assert a["total_keys"] > 0 and a["hot_keys"]
        assert a == b
    finally:
        cluster.close()


def test_scalar_verbs_count_like_batches_on_both_backends():
    """The sharded engine's scalar fast paths are counted and profiled
    exactly as the cluster's one-key batches are."""
    seen = []
    for executor in ("sharded", "cluster"):
        engine = open_engine(KEYS, executor=executor, n_shards=2,
                             telemetry="workload")
        try:
            for key in KEYS[::100].tolist():
                engine.insert(key + 0.25, 1)
                engine.range_arrays(key - 10.0, key + 10.0)
                engine.get(key + 0.25)
                engine.delete(key + 0.25)
            fam = engine.telemetry.registry.get("repro_engine_keys_total")
            seen.append((
                engine.stats()["workload"]["verbs"],
                {lv: child.value for lv, child in fam.samples()},
            ))
        finally:
            close = getattr(engine, "close", None)
            if close is not None:
                close()
    (verbs, keys), other = seen
    assert all(count > 0 for count, _ in verbs.values()), verbs
    assert set(keys) == {("get_batch",), ("range_batch",), ("insert_batch",),
                         ("delete_batch",)}
    assert (verbs, keys) == other


def test_server_stats_nest_engine_schema():
    async def drive():
        server = open_server(KEYS, executor="sharded", n_shards=2,
                             max_batch=64)
        async with server:
            await asyncio.gather(*(server.get(float(k)) for k in KEYS[:50]))
        return server.stats()

    stats = asyncio.run(drive())
    assert set(stats["engine"]) == ENGINE_KEYS
    assert stats["engine"]["backend"] == "sharded"
    assert stats["telemetry"] is None  # off by default
    assert set(stats["batcher"]["flush_reasons"]) == {
        "size", "timer", "idle", "drain",
    }
    assert stats["completed"] == 50
