"""End-to-end workload analytics acceptance: the ISSUE's bar.

Drives a deliberately skewed workload through the full stack — asyncio
``Server`` over a multi-process ``ClusterEngine`` with
``telemetry="full"`` and a live admin endpoint — then asserts the
analytics surface tells the truth about it:

(a) ``/workload`` identifies the injected hot shard and recovers at
    least 8 of the 10 planted hot keys from the engine's sketch.
(b) ``/slow`` holds span trees whose ``worker.compute`` spans carry
    *foreign* pids — compute really happened in worker processes.
(c) The committed ``BENCH_obs.json`` off-mode guard still passes.
"""

import asyncio
import json
import math
import os
from pathlib import Path

import numpy as np

from repro import open_server

N = 8_192
RNG = np.random.default_rng(77)
KEYS = np.sort(RNG.uniform(0.0, 1e6, N))

#: Ten planted hot keys, all inside the lower half so one shard runs hot.
HOT_KEYS = KEYS[np.linspace(100, N // 2 - 100, 10, dtype=np.int64)]

N_QUERIES = 12_288
HOT_FRACTION = 0.6  # of queries, aimed at the 10 planted keys
LOW_FRACTION = 0.25  # uniform over the hot shard's half


def _query_stream():
    """A shuffled skewed stream: hot keys + hot-shard noise + background."""
    n_hot = int(N_QUERIES * HOT_FRACTION)
    n_low = int(N_QUERIES * LOW_FRACTION)
    n_bg = N_QUERIES - n_hot - n_low
    parts = [
        RNG.choice(HOT_KEYS, n_hot),
        RNG.choice(KEYS[: N // 2], n_low),
        RNG.choice(KEYS, n_bg),
    ]
    stream = np.concatenate(parts)
    RNG.shuffle(stream)
    return stream


async def _fetch_json(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    data = await reader.read()
    writer.close()
    head, _, body = data.partition(b"\r\n\r\n")
    assert head.split(b" ")[1] == b"200", head
    return json.loads(body)


def test_skewed_cluster_workload_is_attributed_end_to_end():
    async def drive():
        server = open_server(
            KEYS,
            executor="cluster",
            n_shards=2,
            telemetry="full",
            admin_port=0,
            max_batch=512,
        )
        async with server:
            port = server.admin.port
            stream = _query_stream()
            for start in range(0, stream.size, 1024):
                chunk = stream[start:start + 1024]
                await asyncio.gather(*(server.get(float(k)) for k in chunk))
            workload = await _fetch_json(port, "/workload")
            slow = await _fetch_json(port, "/slow")
        server.engine.close()
        return workload, slow

    workload, slow = asyncio.run(drive())

    # (a) Hot shard: the heatmap and skew report both name shard 0.
    snap = workload["workload"]
    assert snap["n_shards"] == 2
    per_shard = [sum(row["counts"]) for row in snap["heatmap"]]
    assert per_shard[0] > 2 * per_shard[1], per_shard
    skew = workload["skew"]
    assert skew["hottest_shard"] == 0
    assert skew["per_shard"][0]["share"] > 0.6

    # (a) Hot keys: >= 8 of the 10 planted keys surface in the sketch.
    reported = {h["key"] for h in snap["hot_keys"]}
    recovered = reported & set(HOT_KEYS.tolist())
    assert len(recovered) >= 8, (
        f"only {len(recovered)}/10 planted hot keys recovered: "
        f"{sorted(recovered)}"
    )

    # (b) Slow ops carry span trees with foreign worker.compute pids.
    records = slow["records"]
    assert slow["summary"]["count"] == len(records) > 0
    my_pid = os.getpid()
    foreign = [
        sp
        for rec in records
        for sp in rec["spans"]
        if sp["name"] == "worker.compute"
        and sp.get("attrs", {}).get("pid") not in (None, my_pid)
    ]
    assert foreign, "no worker.compute spans from worker processes in /slow"
    with_tree = [rec for rec in records if rec["spans"]]
    assert any(
        rec["stages_us"]["worker_compute_us"] > 0.0 for rec in with_tree
    )


def test_committed_bench_obs_off_mode_guard_still_passes():
    path = Path(__file__).resolve().parents[2] / "BENCH_obs.json"
    doc = json.loads(path.read_text())
    limit = doc["params"]["off_overhead_limit_pct"]
    off = next(r for r in doc["rows"] if r["mode"] == "off")
    assert math.isfinite(off["overhead_pct"])
    assert off["overhead_pct"] <= limit, (
        f"off-mode overhead {off['overhead_pct']}% exceeds {limit}% guard"
    )
