"""Layer probes and the ladder: every per-layer metric that is not a span share.

Each probe times calls into one layer's public functions on a fresh
instance built over the workload's dataset, with the keys the workload's
stream reads (so Zipf stays Zipf), and reads counts from the layer's
public ``stats()``. The *ladder* replays one key sample one-in-flight
against each rung in isolation — bare index, engine, in-process
``Server``, TCP client, ``Router`` — so each rung's ``added_us`` is its
median minus the rung below: the table that says which layer eats the gap
between an in-process ``get`` and a TCP one.
"""

from __future__ import annotations

import asyncio
import gc
import shutil
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from stackbench import load
from stackbench.durable import dir_bytes
from stackbench.run import key_space, make_stream, op_count
from stackbench.spec import (ERROR, ERROR_GRID, OUT_DIR, RANGE_ROWS,
                             RANGES_PER_BATCH, ROUTER_BATCH, Workload)
from stackbench.stacks import EngineStack, NetStack
from stackbench.streams import (GET, KeySpace, Stream, poisson_due_times,
                                scalar_stream)

_now = time.perf_counter_ns
Metrics = Dict[str, float]


def mean_ns(fn: Callable, args: Sequence[Any], chunks: int = 5) -> float:
    """Median over ``chunks`` of the mean ns per ``fn(arg)`` call."""
    means = []
    for part in np.array_split(np.arange(len(args)), chunks):
        t = _now()
        for i in part:
            fn(args[i])
        means.append((_now() - t) / max(len(part), 1))
    return float(np.median(means))


def each_us(fn: Callable, args: Sequence[Any]) -> np.ndarray:
    """Latency of every single ``fn(arg)`` call, in microseconds."""
    out = np.empty(len(args))
    for i, arg in enumerate(args):
        t = _now()
        fn(arg)
        out[i] = _now() - t
    return out / 1e3


async def each_us_async(fn: Callable, args: Sequence[Any]) -> np.ndarray:
    """One-in-flight latency of every ``await fn(arg)``, in microseconds."""
    out = np.empty(len(args))
    for i, arg in enumerate(args):
        t = _now()
        await fn(arg)
        out[i] = _now() - t
    return out / 1e3


def read_sample(stream: Stream, size: int) -> np.ndarray:
    """The first ``size`` build keys the stream's gets ask for."""
    n = stream.space.n
    if stream.batches is None:
        hit = (stream.op == GET) & (stream.val >= 0) & (stream.val < n)
        keys = stream.key[hit]
    else:
        parts = [b[1][(b[2] >= 0) & (b[2] < n)] for b in stream.batches
                 if b[0] == GET]
        keys = np.concatenate(parts)
    if keys.size < size:
        raise ValueError(f"stream reads {keys.size} build keys, the probes "
                         f"need {size}; raise --seconds")
    return np.ascontiguousarray(keys[:size])


class Probes:
    """Inputs shared by every probe of one traced run."""

    def __init__(self, wl: Workload, seed: int, seconds: float, quick: bool) -> None:
        self.space: KeySpace = key_space(wl, quick)
        self.scale = 10 if quick else 1
        stream = make_stream(wl, self.space, seed, op_count(wl, seconds, quick))
        self.sample = read_sample(stream, 4000 // self.scale)
        self.floats: List[float] = self.sample.tolist()
        rng = np.random.default_rng([seed, 2])
        sp = self.space
        n_writes = 2048 // self.scale
        self.fresh = sp.fresh(rng.permutation(sp.n_fresh)[: 8 * n_writes])
        self.fresh_vals = sp.n + np.arange(self.fresh.size, dtype=np.int64)
        self.doomed = sp.keys[rng.permutation(sp.deletable_idx)[:n_writes]]
        self.absent = sp.absent(rng, 2000 // self.scale)
        r0, r1 = sp.quiet_slices(rng, 400 // self.scale)
        self.ranges = list(zip(sp.keys[r0].tolist(), sp.keys[r1 - 1].tolist()))
        self.rng = rng
        self.seed = seed

    def write_batches(self, size: int, count: int) -> List[Tuple[np.ndarray, np.ndarray]]:
        return [(self.fresh[i * size: (i + 1) * size],
                 self.fresh_vals[i * size: (i + 1) * size]) for i in range(count)]


# ---------------------------------------------------------------------------
# core and btree
# ---------------------------------------------------------------------------

def probe_core(p: Probes) -> Metrics:
    from repro import BPlusTree, CostModel, FITingTree, shrinking_cone

    sp = p.space
    out: Metrics = {}
    t = time.perf_counter()
    index = FITingTree(sp.keys, sp.values, error=ERROR)
    out["core.build_s"] = time.perf_counter() - t
    out["core.segments"] = index.n_segments
    t = _now()
    shrinking_cone(sp.keys, ERROR)
    out["core.segmentation_ns_per_key"] = (_now() - t) / sp.n

    starts = [page.start_key for page in index.pages()]
    tree = BPlusTree()
    tree.bulk_load([(k, i) for i, k in enumerate(starts)])
    out["btree.height"] = tree.height
    out["btree.floor_item_ns"] = mean_ns(tree.floor_item, p.floats)

    out["core.get_ns"] = mean_ns(index.get, p.floats)
    out["core.get_miss_ns"] = mean_ns(index.get, p.absent.tolist())
    t = _now()
    index.get_batch(p.sample)
    out["core.get_batch_ns_per_key"] = (_now() - t) / p.sample.size
    ranges = each_us(lambda b: list(index.range_items(*b)), p.ranges)
    out["core.range_us"] = float(np.median(ranges))
    out["core.range_p99_us"] = float(np.percentile(ranges, 99))
    n_ins = p.doomed.size * 2
    pairs = list(zip(p.fresh[:n_ins].tolist(), p.fresh_vals[:n_ins].tolist()))
    out["core.insert_ns"] = mean_ns(lambda kv: index.insert(*kv), pairs)
    deletes = each_us(index.delete, p.doomed.tolist())
    out["core.delete_ns"] = float(np.median(deletes)) * 1e3
    out["core.delete_p99_us"] = float(np.percentile(deletes, 99))
    stats = index.stats()
    out["core.page_rebuilds"] = stats["page_rebuilds"]
    out["core.buffered_elements"] = stats["buffered_elements"]

    model = CostModel.learned(sp.keys)
    for error in ERROR_GRID:
        t = time.perf_counter()
        grid = FITingTree(sp.keys, sp.values, error=error)
        out[f"core.build_s.e{error}"] = time.perf_counter() - t
        out[f"core.segments.e{error}"] = grid.n_segments
        out[f"core.index_bytes.e{error}"] = grid.model_bytes()
        out[f"core.get_ns.e{error}"] = mean_ns(grid.get, p.floats[:2000])
        out[f"core.costmodel.size_ratio.e{error}"] = (
            model.size_bytes(error) / grid.model_bytes())
    return out


# ---------------------------------------------------------------------------
# engine and cluster
# ---------------------------------------------------------------------------

def _batch_costs(engine: Any, p: Probes, prefix: str) -> Metrics:
    """Per-key cost of each batch verb on identical batches of 256."""
    size, count = 256 // p.scale, 8
    reads = [p.sample[i * size: (i + 1) * size] for i in range(count)]
    writes = p.write_batches(size, count)
    out: Metrics = {}
    out[f"{prefix}.get_batch_ns_per_key"] = mean_ns(
        engine.get_batch, reads) / size
    ins = each_us(lambda kv: (engine.insert_batch(*kv),
                              engine.get_batch(reads[0])), writes)
    pure = each_us(lambda kv: engine.insert_batch(*kv),
                   p.write_batches(size, 2 * count)[count:])
    out[f"{prefix}.insert_batch_ns_per_key"] = float(np.median(pure)) * 1e3 / size
    dels = each_us(engine.delete_batch, [k for k, _ in writes])
    out[f"{prefix}.delete_batch_ns_per_key"] = float(np.median(dels)) * 1e3 / size
    out[f"{prefix}.write_then_read_us"] = float(np.median(ins))
    return out


def probe_engine(p: Probes) -> Metrics:
    from repro import FITingTree, open_engine
    from repro.engine import flat_view
    from repro.engine.partition import route

    sp = p.space
    out: Metrics = {}
    for executor in ("single", "sharded"):
        t = time.perf_counter()
        engine = open_engine(sp.keys, sp.values, executor=executor,
                             n_shards=4, error=ERROR)
        out[f"api.open_engine_s.{executor}"] = time.perf_counter() - t
        if executor == "single":
            engine.close()
    t = _now()
    engine.warm()
    out["engine.warm_ms"] = (_now() - t) / 1e6
    index = FITingTree(sp.keys, sp.values, error=ERROR)
    t = _now()
    flat_view(index)
    out["engine.flat_view_build_ms"] = (_now() - t) / 1e6
    t = _now()
    route(engine.cuts, p.sample)
    out["engine.route_ns_per_key"] = (_now() - t) / p.sample.size
    out["engine.get_ns"] = mean_ns(engine.get, p.floats)
    bounds = np.array(p.ranges[:RANGES_PER_BATCH])
    out["engine.range_batch_us"] = float(np.median(each_us(
        engine.range_batch, [bounds] * 20)))
    out.update(_batch_costs(engine, p, "engine"))
    stats = engine.stats()
    out["engine.view_hit_rate"] = stats["view_hit_rate"]
    out["engine.view_patches"] = stats["view_patches"]
    out["engine.view_full_rebuilds"] = stats["view_full_rebuilds"]
    out["engine.residency_ratio"] = engine.residency_report()["residency_ratio"]
    engine.close()
    return out


def probe_cluster(p: Probes, engine_costs: Metrics) -> Metrics:
    out: Metrics = {}
    t = time.perf_counter()
    stack = EngineStack(p.space, "cluster", 2)
    out["api.open_engine_s.cluster"] = time.perf_counter() - t
    try:
        engine = stack.engine
        one = [p.sample[i: i + 1] for i in range(300 // p.scale)]
        out["cluster.roundtrip_us"] = float(np.median(each_us(
            engine.get_batch, one)))
        out.update(_batch_costs(engine, p, "cluster"))
        for verb in ("get", "insert"):
            out[f"cluster.added_ns_per_key.{verb}"] = (
                out[f"cluster.{verb}_batch_ns_per_key"]
                - engine_costs[f"engine.{verb}_batch_ns_per_key"])
        ipc = engine.stats()["ipc"]
        for name in ("batches", "pickle_fallbacks", "lane_growths"):
            out[f"cluster.ipc.{name}"] = ipc[name]
    finally:
        stack.close()
    out["cluster.teardown_errors"] = ipc["teardown_errors"]
    return out


# ---------------------------------------------------------------------------
# serve, net, router (one event loop)
# ---------------------------------------------------------------------------

async def _c32_us(get: Callable, keys: List[float]) -> float:
    """Median latency with 32 callers in flight."""
    lat: List[int] = []

    async def caller(c: int) -> None:
        for key in keys[c::32]:
            t = _now()
            await get(key)
            lat.append(_now() - t)

    await asyncio.gather(*[caller(c) for c in range(32)])
    return float(np.median(lat)) / 1e3


async def probe_serve(p: Probes) -> Metrics:
    from repro import open_server

    sp = p.space
    out: Metrics = {}
    server = open_server(sp.keys, sp.values, n_shards=2, error=ERROR)
    async with server:
        await server.warm()
        engine_ns = mean_ns(server.engine.get, p.floats)
        out["serve.get_us.c1"] = float(np.median(
            await each_us_async(server.get, p.floats)))
        out["serve.get_us.c32"] = await _c32_us(server.get, p.floats)
        out["serve.added_us"] = out["serve.get_us.c1"] - engine_ns / 1e3
        batcher = server.stats()["batcher"]
    flushes = max(sum(batcher["flush_reasons"].values()), 1)
    out["serve.batch_size_mean"] = (
        sum(batcher["ops"].values()) / max(sum(batcher["batches"].values()), 1))
    out["serve.max_batch_observed"] = batcher["max_batch_observed"]
    for reason in ("size", "timer", "idle"):
        out[f"serve.flush_share.{reason}"] = batcher["flush_reasons"][reason] / flushes
    out["serve.scalar_fallbacks"] = batcher["scalar_fallbacks"]
    return out


def probe_frames(p: Probes) -> Metrics:
    """The wire codec alone: encode and decode of a scalar and a batch frame."""
    from repro.net import frame as wire

    prefix_bytes = 10  # magic, body length, crc32: decode takes the body only
    batch = np.ascontiguousarray(p.space.keys[:1024])
    cases = {
        "scalar": (wire.OP_GET, {"key": p.floats[0], "default": None}, None),
        "batch1024": (wire.OP_GET_BATCH, {"default": -1}, [batch]),
    }
    out: Metrics = {}
    reps = range(2000 // p.scale)
    for name, (kind, meta, arrays) in cases.items():
        buf = wire.encode_frame(kind, 1, meta, arrays)
        body = buf[prefix_bytes:]
        out[f"net.frame.encode_us.{name}"] = mean_ns(
            lambda i: wire.encode_frame(kind, i, meta, arrays), reps) / 1e3
        out[f"net.frame.decode_us.{name}"] = mean_ns(
            lambda i: wire.decode_frame(body), reps) / 1e3
    out["net.frame.bytes_per_key.batch1024"] = len(buf) / 1024
    return out


async def probe_net(p: Probes, serve_c1_us: float) -> Metrics:
    out: Metrics = {}
    stack = await NetStack(p.space, "tcp").open()
    try:
        client = stack.target
        out["net.client.get_us.c1"] = float(np.median(
            await each_us_async(client.get, p.floats)))
        out["net.added_us"] = out["net.client.get_us.c1"] - serve_c1_us
        batch = np.ascontiguousarray(p.space.keys[:1024])
        out["net.client.get_batch_us.b1024"] = float(np.median(
            await each_us_async(client.get_batch, [batch] * (100 // p.scale))))

        # A short open loop of reads at the tcp-point-open rate: the tail
        # and the generator's own lateness, as diagnostics.
        rate = 2400.0
        n_ops = int(rate * 2.0) // p.scale
        stream = scalar_stream(p.space, p.seed, n_ops, {"get": 1.0}, clients=0)
        tl = load.Timeline(n_ops)
        await load.run_open(client, stream, 0, n_ops, tl, _now() + 60 * 10**9,
                            poisson_due_times(p.seed, n_ops, rate))
        lat = tl.latency_ns() / 1e3
        late = (np.asarray(tl.sent) - np.asarray(tl.t0)) / 1e3
        out["net.open.get_p95_us"] = float(np.percentile(lat, 95))
        out["net.open.get_p99_us"] = float(np.percentile(lat, 99))
        out["net.open.late_p99_us"] = float(np.percentile(late, 99))
        out["net.open.late_share"] = float((late > 1000.0).mean())

        net = (await stack.server_stats())[0]["net"]
        for name in ("frames_in", "bytes_in", "bytes_out"):
            out[f"net.server.{name}"] = net[name]
        out["net.client.retries"] = client.stats()["retries"]
    finally:
        await stack.close()
    return out


async def probe_router(p: Probes, client_c1_us: float) -> Metrics:
    from repro.engine.partition import route

    sp = p.space
    out: Metrics = {}
    stack = await NetStack(sp, "router").open()
    try:
        router = stack.target
        out["net.router.get_us.c1"] = float(np.median(
            await each_us_async(router.get, p.floats)))
        out["net.router.added_us"] = out["net.router.get_us.c1"] - client_c1_us
        reps = 200 // p.scale
        r0, r1 = sp.straddling_slices(p.rng, reps, ROUTER_BATCH)
        out["net.router.get_batch_us.b64"] = float(np.median(
            await each_us_async(router.get_batch,
                                [sp.keys[a:b] for a, b in zip(r0, r1)])))
        r0, r1 = sp.straddling_slices(p.rng, reps, RANGE_ROWS)
        out["net.router.range_us"] = float(np.median(await each_us_async(
            lambda b: router.range(*b),
            list(zip(sp.keys[r0].tolist(), sp.keys[r1 - 1].tolist())))))
        owners = route(stack.fleet.cuts, p.sample)
        out["net.router.backend_share.max"] = float(
            np.bincount(owners, minlength=2).max() / owners.size)
        out["net.router.ejections"] = router.stats()["ejections"]
    finally:
        await stack.close()
    return out


# ---------------------------------------------------------------------------
# wal
# ---------------------------------------------------------------------------

def probe_wal(p: Probes) -> Metrics:
    """The log's cost on identical insert batches of 64, four engines:
    no durability, log without fsync, log with fsync, and log plus
    foreground snapshots (the ``durable-write`` policy, tighter interval).
    """
    from repro import open_engine

    sp = p.space
    size, count = 64, 240 // p.scale
    batches = p.write_batches(size, count)
    root = OUT_DIR / f"walprobe-{time.monotonic_ns()}"
    medians: Dict[str, float] = {}
    out: Metrics = {}
    configs = {
        "off": {},
        "nosync": dict(durability="wal", wal_sync=False),
        "sync": dict(durability="wal", wal_sync=True),
        "snap": dict(durability="wal+snapshot", wal_sync=True,
                     snapshot_interval_bytes=1 << 16),
    }
    try:
        for name, config in configs.items():
            if config:
                config["data_dir"] = str(root / name)
            engine = open_engine(sp.keys, sp.values, executor="sharded",
                                 n_shards=4, error=ERROR, **config)
            try:
                gc.collect()
                lat = each_us(lambda kv: engine.insert_batch(*kv), batches)
                medians[name] = float(np.median(lat))
                wal = engine.stats()["wal"]
            finally:
                engine.close()
            if name == "sync":
                out["wal.bytes_per_key"] = wal["wal_bytes"] / (size * count)
                out["wal.fsyncs"] = wal["fsyncs"]
                out["wal.commits"] = wal["commits"]
                t = time.perf_counter()
                again = open_engine(data_dir=config["data_dir"],
                                    executor="sharded", n_shards=4,
                                    error=ERROR, durability="wal", wal_sync=True)
                len(again)
                out["wal.recover_ms_per_krecord"] = (
                    (time.perf_counter() - t) * 1e3 / (wal["records"] / 1e3))
                again.close()
            if name == "snap":
                stalls = lat[lat > 10 * medians[name]]
                out["wal.snapshots"] = wal["snapshots"]
                out["wal.snapshot_ms"] = (float(np.median(stalls)) / 1e3
                                          if stalls.size else 0.0)
                out["wal.stall_max_ms"] = float(lat.max()) / 1e3
                out["wal.disk_bytes_per_user_byte"] = (
                    dir_bytes(config["data_dir"]) / (16.0 * size * count))
                t = time.perf_counter()
                again = open_engine(data_dir=config["data_dir"],
                                    executor="sharded", n_shards=4, error=ERROR,
                                    durability="wal+snapshot", wal_sync=True)
                len(again)
                out["wal.recover_s"] = time.perf_counter() - t
                again.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for name in ("sync", "nosync"):
        out[f"wal.append_commit_us.{name}"] = medians[name] - medians["off"]
    out["wal.engine_share"] = medians["off"] / medians["sync"]
    return out


# ---------------------------------------------------------------------------

_LADDER = (
    ("core.get_ns", 1e-3, "FITingTree.get"),
    ("engine.get_ns", 1e-3, "ShardedEngine.get"),
    ("serve.get_us.c1", 1.0, "Server.get (in process)"),
    ("net.client.get_us.c1", 1.0, "AsyncNetClient.get (TCP)"),
    ("net.router.get_us.c1", 1.0, "Router.get (TCP, 2 backends)"),
)


def ladder_table(values: Metrics) -> str:
    """The ladder as text: each rung's one-in-flight get and what it adds."""
    lines = ["# ladder: one get in flight, same keys, each rung in isolation",
             f"# {'rung':34s} {'metric':24s} {'get_us':>10s} {'added_us':>10s}"]
    below = 0.0
    for name, to_us, label in _LADDER:
        us = values[name] * to_us
        lines.append(f"# {label:34s} {name:24s} {us:10.2f} {us - below:10.2f}")
        below = us
    return "\n".join(lines)


def run_probes(wl: Workload, seed: int, seconds: float, *,
               quick: bool) -> Tuple[Metrics, str]:
    """Every probe on the workload's dataset and keys; metrics and ladder."""
    p = Probes(wl, seed, seconds, quick)
    values: Metrics = {}
    values.update(probe_core(p))
    values.update(probe_engine(p))
    values.update(probe_cluster(p, values))
    values.update(probe_frames(p))
    values.update(probe_wal(p))

    async def networked() -> None:
        values.update(await probe_serve(p))
        values.update(await probe_net(p, values["serve.get_us.c1"]))
        values.update(await probe_router(p, values["net.client.get_us.c1"]))

    asyncio.run(networked())
    return {k: float(v) for k, v in values.items()}, ladder_table(values)
