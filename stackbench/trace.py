"""The traced run: spans from outside the program, and the per-layer metrics.

Nothing in ``src/`` is instrumented. Spans come from two places the
public API already offers: the load generator's own stamps around every
client-visible call, and timing proxies slipped in at constructor seams —
``ShardedEngine(index_factory=...)`` for the index under an engine,
``Server(engine)`` and ``NetServer(server)`` for the tiers of a backend
process. A layer's self time is its span minus the part of that interval
its child layer's spans cover; with many requests sharing one batched
engine call there is no parent link to follow, so cover is computed from
the intervals themselves (:func:`covered_ns`).

A traced run of a workload does three things: replays the first tenth of
the stream untraced and traced (their ratio is ``trace.overhead_pct``),
turns the traced replay's spans into the ``span.*_pct`` shares, and runs
the layer probes and the ladder of :mod:`stackbench.layers` on the
workload's dataset and keys. End-to-end numbers never come from here.
"""

from __future__ import annotations

import inspect
import json
import multiprocessing as mp
import os
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from stackbench.spec import ERROR, OUT_DIR, TRACE_PREFIX_SHARE, WORKLOADS

_now = time.perf_counter_ns
LAYERS = ("core", "engine", "cluster", "serve", "net")


class SpanRecorder:
    """In-memory spans ``(layer, name, start_ns, end_ns)``; written at exit."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, str, int, int]] = []

    def proxy(self, inner: Any, layer: str) -> "TimedProxy":
        return TimedProxy(inner, layer, self)

    def proxying(self, factory: Callable, layer: str) -> Callable:
        """A factory whose products are wrapped in timing proxies."""
        return lambda *args: self.proxy(factory(*args), layer)

    def intervals(self, layer: str) -> np.ndarray:
        """``(n, 2)`` start/end array of one layer's spans."""
        rows = [(s, e) for lay, _, s, e in self.spans if lay == layer]
        return np.array(rows, dtype=np.int64).reshape(-1, 2)


class TimedProxy:
    """Stands in for ``inner``, timing every public method call.

    Attribute reads and writes go straight through (engines keep private
    caches on their shards), awaitables are timed until they resolve, and
    the wrappers are cached so the steady-state cost is one dict lookup
    and two clock reads per call.
    """

    def __init__(self, inner: Any, layer: str, recorder: SpanRecorder) -> None:
        self.__dict__.update(_tp_inner=inner, _tp_layer=layer,
                             _tp_spans=recorder.spans, _tp_cache={})

    def __getattr__(self, name: str) -> Any:
        cached = self._tp_cache.get(name)
        if cached is not None:
            return cached
        value = getattr(self._tp_inner, name)
        if name.startswith("_") or not inspect.ismethod(value):
            return value
        layer, spans = self._tp_layer, self._tp_spans

        async def finish(awaitable: Any, t0: int) -> Any:
            try:
                return await awaitable
            finally:
                spans.append((layer, name, t0, _now()))

        def timed(*args: Any, **kwargs: Any) -> Any:
            t0 = _now()
            try:
                result = value(*args, **kwargs)
            except BaseException:
                spans.append((layer, name, t0, _now()))
                raise
            if inspect.isawaitable(result):
                return finish(result, t0)
            spans.append((layer, name, t0, _now()))
            return result

        self._tp_cache[name] = timed
        return timed

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._tp_inner, name, value)

    def __len__(self) -> int:
        return len(self._tp_inner)

    def __contains__(self, key: Any) -> bool:
        return key in self._tp_inner


def covered_ns(spans: np.ndarray, by: np.ndarray) -> int:
    """Total time of ``spans`` during which some interval of ``by`` was open.

    Both are ``(n, 2)`` start/end arrays; ``by`` may overlap itself (it is
    merged first). Summed over ``spans``, so time that two waiting
    requests both spent under one engine call counts for each of them —
    latency accounting, not processor accounting.
    """
    if not len(spans) or not len(by):
        return 0
    by = by[np.argsort(by[:, 0])]
    ends = np.maximum.accumulate(by[:, 1])
    new = np.concatenate(([True], by[1:, 0] > ends[:-1]))
    starts = by[new, 0]
    stops = ends[np.concatenate((np.flatnonzero(new)[1:] - 1, [len(by) - 1]))]
    edges = np.stack([starts, stops], axis=1).ravel()
    busy = np.concatenate(([0], np.cumsum(stops - starts)))
    upto = np.interp(spans.ravel(), edges, np.repeat(busy, 2)[1:-1])
    return int((upto[1::2] - upto[::2]).sum())


# ---------------------------------------------------------------------------
# Traced backend processes (tcp and router stacks)
# ---------------------------------------------------------------------------

def traced_backend(conn: Any, keys: np.ndarray, values: np.ndarray,
                   n_shards: int) -> None:
    """Child entry point: ``repro.net.boot.run_backend`` with proxies in the
    seams. Sends its spans back when told to stop."""
    import asyncio

    from repro import EngineConfig, NetServer, ShardedEngine
    from repro.serve import Server

    recorder = SpanRecorder()
    config = EngineConfig(n_shards=n_shards, error=ERROR)

    async def main() -> None:
        engine = ShardedEngine(
            keys, values, n_shards=n_shards,
            index_factory=recorder.proxying(config.index_factory(), "core"))
        server = Server(recorder.proxy(engine, "engine"),
                        max_batch=config.max_batch, max_delay=config.max_delay,
                        eager_flush=config.eager_flush,
                        latency_window=config.latency_window)
        net = NetServer(recorder.proxy(server, "serve"))
        await net.start()
        try:
            conn.send(("ready", net.port, os.getpid()))
            await asyncio.get_running_loop().run_in_executor(None, conn.recv)
        finally:
            await net.close()
        conn.send({layer: recorder.intervals(layer) for layer in LAYERS})

    asyncio.run(main())


class TracedFleet:
    """``TcpCluster``'s shape (start/stop/addresses/cuts) over traced backends."""

    def __init__(self, keys: np.ndarray, values: np.ndarray, *, backends: int,
                 n_shards: int) -> None:
        from repro.engine.partition import partition_cuts, shard_bounds

        self.cuts = partition_cuts(keys, backends)
        self._slices = [(keys[lo:hi].copy(), values[lo:hi].copy())
                        for lo, hi in shard_bounds(keys, self.cuts)]
        self._n_shards = n_shards
        self._procs: List[Any] = []
        self._pipes: List[Any] = []
        self.addresses: List[Tuple[str, int]] = []
        self.intervals: Dict[str, np.ndarray] = {}

    def start(self) -> "TracedFleet":
        ctx = mp.get_context("spawn")
        for keys, values in self._slices:
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=traced_backend, daemon=True,
                               args=(child, keys, values, self._n_shards),
                               name="stackbench-traced-backend")
            proc.start()
            child.close()
            self._procs.append(proc)
            self._pipes.append(parent)
            if not parent.poll(30.0):
                self.stop()
                raise TimeoutError("traced backend did not come up in 30 s")
            self.addresses.append(("127.0.0.1", int(parent.recv()[1])))
        return self

    def stop(self) -> None:
        """Stop every backend and collect the spans they recorded."""
        parts: Dict[str, list] = {layer: [] for layer in LAYERS}
        for proc, pipe in zip(self._procs, self._pipes):
            try:
                pipe.send(("stop",))
                if pipe.poll(30.0):
                    for layer, rows in pipe.recv().items():
                        parts[layer].append(rows)
            except (OSError, EOFError):
                pass
            proc.join(timeout=15.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
            pipe.close()
        self._procs, self._pipes = [], []
        self.intervals = {layer: np.concatenate(rows) if rows
                          else np.empty((0, 2), np.int64)
                          for layer, rows in parts.items()}


# ---------------------------------------------------------------------------
# Shares of the client-visible time, per layer
# ---------------------------------------------------------------------------

def layer_shares(stack: str, client: np.ndarray,
                 inner: Dict[str, np.ndarray]) -> Dict[str, float]:
    """``span.<layer>_pct``: each layer's self time over the client's time.

    ``client`` holds the spans of the calls the load generator made;
    ``inner`` the spans the proxies recorded, by layer. Layers with no
    seam to split them are reported whole: ``cluster`` covers everything
    below the ``ClusterEngine`` call, and the ``durable`` stack's log is
    inside its ``engine`` share (``wal.engine_share`` splits that).
    """
    total = int((client[:, 1] - client[:, 0]).sum())
    self_ns = dict.fromkeys(LAYERS, 0)
    if stack == "index":
        self_ns["core"] = total
    elif stack == "cluster":
        self_ns["cluster"] = total
    elif stack == "durable":
        self_ns["engine"] = total
    elif stack == "sharded":
        core = covered_ns(client, inner["core"])
        self_ns.update(core=core, engine=total - core)
    else:
        serve = inner["serve"]
        in_serve = int((serve[:, 1] - serve[:, 0]).sum())
        in_engine = covered_ns(serve, inner["engine"])
        in_core = covered_ns(serve, inner["core"])
        self_ns.update(net=total - in_serve, serve=in_serve - in_engine,
                       engine=in_engine - in_core, core=in_core)
    return {f"span.{layer}_pct": 100.0 * ns / total
            for layer, ns in self_ns.items()}


def write_spans(path: Any, stream_op: np.ndarray, client: np.ndarray,
                inner: Dict[str, np.ndarray], synchronous: bool) -> None:
    """One JSON object per span: name, layer, start, end, parent, request
    (the op's position among the replay's measured ops)."""
    from stackbench.streams import OP_CODES

    verb = {code: name for name, code in OP_CODES.items()}
    starts = client[:, 0]
    with open(path, "w") as fh:
        for i, (s, e) in enumerate(client.tolist()):
            fh.write(json.dumps({"name": verb[int(stream_op[i])],
                                 "layer": "client", "start_ns": s, "end_ns": e,
                                 "parent": None, "request": i}) + "\n")
        # Under one synchronous caller a span belongs to the client call it
        # started in; under batching many requests share it (request null).
        parents = ({"core": "client"} if synchronous else
                   {"serve": "client", "engine": "serve", "core": "engine"})
        for layer, rows in inner.items():
            owner = (np.searchsorted(starts, rows[:, 0], side="right") - 1
                     if synchronous else [None] * len(rows))
            for (s, e), req in zip(rows.tolist(), list(owner)):
                fh.write(json.dumps({
                    "name": layer, "layer": layer, "start_ns": s, "end_ns": e,
                    "parent": parents.get(layer),
                    "request": None if req is None else int(req),
                }) + "\n")


def run_traced(name: str, seed: int, seconds: float, *,
               quick: bool = False) -> Dict[str, Any]:
    """The traced run of one workload; ``values`` holds every per-layer metric."""
    from stackbench import layers
    from stackbench.run import run_workload

    wl = WORKLOADS[name]
    t_start = time.perf_counter()
    base = run_workload(name, seed, seconds, quick=quick,
                        prefix_share=TRACE_PREFIX_SHARE, setup_repeats=1)
    recorder = SpanRecorder()
    traced = run_workload(name, seed, seconds, quick=quick,
                          prefix_share=TRACE_PREFIX_SHARE, setup_repeats=1,
                          recorder=recorder)
    client = traced.pop("client_spans")
    inner = traced.pop("inner_spans")
    values = layer_shares(wl.stack, client, inner)
    values["trace.overhead_pct"] = 100.0 * (
        traced["values"]["get_p50_us"] / base["values"]["get_p50_us"] - 1.0)
    OUT_DIR.mkdir(exist_ok=True)
    write_spans(OUT_DIR / f"trace-{name}.jsonl", traced.pop("stream_op"),
                client, inner, synchronous=wl.stack == "sharded")

    probes, ladder = layers.run_probes(wl, seed, seconds, quick=quick)
    values.update(probes)
    values["run.loadavg1"] = os.getloadavg()[0]
    values["run.wall_s"] = time.perf_counter() - t_start
    failed = base["failed"] + traced["failed"]
    return {
        **traced,
        "attempted": base["attempted"] + traced["attempted"],
        "failed": failed,
        "correct": base["correct"] and traced["correct"],
        "first_failures": base["first_failures"] + traced["first_failures"],
        "values": values, "detail": {}, "extra": {}, "ladder": ladder,
        "wall_s": time.perf_counter() - t_start,
    }
