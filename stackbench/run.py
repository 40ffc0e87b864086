"""Run one workload: set up, drive the stream in rounds, check, summarise."""

from __future__ import annotations

import asyncio
import gc
import math
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from stackbench import load, oracle
from stackbench.durable import DurableChild
from stackbench.measure import (UNIT_REPEATS, environment, peak_rss_mb,
                                percentile_of_rounds, quartiles, round_bounds,
                                sha256_of, speed_scales, speed_unit_ns,
                                speed_unit_samples)
from stackbench.spec import (DATASET_SEED, N_KEYS, OPS_BLOCK, QUICK_N_KEYS,
                             SETUP_REPEATS, WORKLOADS, Workload)
from stackbench.stacks import NetStack, open_sync
from stackbench.streams import (OP_CODES, VERBS, KeySpace, Stream,
                                batch_stream, poisson_due_times,
                                scalar_stream)

_now = time.perf_counter_ns
#: A run that has not finished its ops after this many times ``--seconds``
#: (plus a constant) stops sending; what was not sent counts as failed.
_CAP_FACTOR, _CAP_CONST_S = 6.0, 20.0


def key_space(workload: Workload, quick: bool) -> KeySpace:
    from repro import datasets

    n = QUICK_N_KEYS if quick else N_KEYS
    return KeySpace(datasets.get(workload.dataset, n, seed=DATASET_SEED))


def cut_unit(workload: Workload) -> int:
    """Ops in the smallest piece a run is cut into: whole verb blocks and
    one op for every caller."""
    return math.lcm(OPS_BLOCK, max(workload.clients, 1))


def op_count(workload: Workload, seconds: float, quick: bool) -> int:
    n_ops = workload.ops_per_second * seconds
    floor = 400 if workload.shape == "batch" else 1000  # samples for a p95
    unit = cut_unit(workload)
    return -(-max(floor, int(n_ops / 50 if quick else n_ops)) // unit) * unit


def make_stream(workload: Workload, space: KeySpace, seed: int,
                n_ops: int) -> Stream:
    if workload.shape == "batch":
        return batch_stream(space, seed, n_ops, workload.mix,
                            batch=workload.batch)
    return scalar_stream(space, seed, n_ops, workload.mix,
                         clients=workload.clients, dist=workload.keys,
                         straddle=workload.stack == "router")


def _set_up_again(setups: List[float], repeats: int) -> bool:
    """Whether to tear the stack down and time another set-up.

    At least ``repeats`` times; a stack that opens in tens of milliseconds
    is opened until a second has gone by (at most fifteen times), because
    the median of three 40 ms samples moves by a quarter between runs.
    """
    if len(setups) < repeats:
        return True
    return repeats > 1 and sum(setups) < 1.0 and len(setups) < 15


class Outcome:
    """What driving a stream left behind, before it is turned into metrics."""

    def __init__(self, stream: Stream,
                 unit_repeats: int = UNIT_REPEATS) -> None:
        self.stream = stream
        self.timeline = load.Timeline(len(stream))
        self.bad = np.ones(len(stream), dtype=bool)
        self.first_failures: List[str] = []
        self.setups: List[float] = []
        self.walls_ns: List[int] = []
        #: One speed unit before the first set-up, one after the last, then
        #: one after every round (see ``measure.speed_unit_ns``).
        self.units_ns: List[int] = []
        #: Every sample behind ``units_ns`` (kept in the run file).
        self.unit_samples_ns: List[List[int]] = []
        self.unit_repeats = unit_repeats
        self.final: Tuple[int, Any, int] = (0, (np.empty(0), np.empty(0)), 0)
        self.stats: Any = None
        self.extra: Dict[str, Any] = {}
        #: Traced runs only: the spans the proxies recorded, by layer.
        self.inner_spans: Dict[str, np.ndarray] = {}

    def time_unit(self) -> None:
        self.unit_samples_ns.append(speed_unit_samples(self.unit_repeats))
        self.units_ns.append(speed_unit_ns(self.unit_samples_ns[-1]))

    def check(self, lo: int, hi: int) -> None:
        """Judge the replies of ops ``[lo, hi)`` and let go of them.

        Called between rounds, outside every timed region; holding a whole
        run's replies would grow the heap the program's collector walks.
        """
        replies = self.timeline.replies
        self.bad[lo:hi] = oracle.check_replies(self.stream, lo, replies[lo:hi])
        for i in np.flatnonzero(self.bad[lo:hi])[: 3 - len(self.first_failures)]:
            self.first_failures.append(f"op {lo + i}: {replies[lo + i]!r}")
        replies[lo:hi] = [None] * (hi - lo)


def _drive_sync(wl: Workload, space: KeySpace, stream: Stream,
                edges: List[int], deadline_ns: int, out: Outcome,
                repeats: int, recorder: Any) -> None:
    stack = None
    out.time_unit()
    while _set_up_again(out.setups, repeats):
        if stack is not None:
            stack.close()
        t = time.perf_counter()
        stack = open_sync(wl.stack, space, recorder)
        out.setups.append(time.perf_counter() - t)
    driver = load.run_sync_batch if wl.shape == "batch" else load.run_sync_scalar
    try:
        for lo, hi in zip(edges[:-1], edges[1:]):
            gc.collect()
            out.time_unit()
            t = _now()
            driver(stack.target, stream, lo, hi, out.timeline, deadline_ns)
            out.walls_ns.append(_now() - t)
            out.check(lo, hi)
        out.time_unit()
        out.final = stack.final()
        out.stats = stack.stats()
    finally:
        stack.close()


async def _drive_net(wl: Workload, space: KeySpace, stream: Stream,
                     edges: List[int], deadline_ns: int, out: Outcome,
                     seed: int, repeats: int, traced: bool) -> None:
    stack = None
    out.time_unit()
    while _set_up_again(out.setups, repeats):
        if stack is not None:
            await stack.close()
        t = time.perf_counter()
        stack = await NetStack(space, wl.stack, traced).open()
        out.setups.append(time.perf_counter() - t)
    due = (poisson_due_times(seed, len(stream), wl.ops_per_second)
           if wl.clients == 0 else None)
    try:
        for lo, hi in zip(edges[:-1], edges[1:]):
            gc.collect()
            out.time_unit()
            t = _now()
            if due is None:
                await load.run_closed(stack.target, stream, lo, hi,
                                      out.timeline, deadline_ns, wl.clients)
            else:
                await load.run_open(stack.target, stream, lo, hi,
                                    out.timeline, deadline_ns, due)
            out.walls_ns.append(_now() - t)
            out.check(lo, hi)
        out.time_unit()
        out.final = await stack.final()
        out.stats = await stack.server_stats()
        if stack.routed:
            out.extra["router"] = stack.target.stats()
    finally:
        await stack.close()
        if traced:
            out.inner_spans = stack.fleet.intervals


def _drive_durable(space: KeySpace, stream: Stream, edges: List[int],
                   deadline_ns: int, out: Outcome, repeats: int) -> None:
    child = None
    try:
        out.time_unit()
        while _set_up_again(out.setups, repeats):
            if child is not None:
                child.discard()
            child = DurableChild(space)
            out.setups.append(child.setup_s)
        out.walls_ns, units, out.stats = child.run(
            stream, edges, out.timeline, deadline_ns, out.unit_repeats)
        out.units_ns += units
        out.check(0, len(stream))
        held = child.kill()
        recover_s, n, scan, model_bytes = child.recover()
        out.final = (n, scan, model_bytes)
        acked = sum(len(b[1]) for b, failed in zip(stream.batches, out.bad)
                    if b[0] == OP_CODES["insert"] and not failed)
        out.extra.update(recover_s=recover_s, disk_bytes=held,
                         disk_bytes_per_user_byte=held / (16.0 * max(acked, 1)))
    finally:
        if child is not None:
            child.discard()


def drive(wl: Workload, space: KeySpace, stream: Stream, seconds: float,
          seed: int, repeats: int = SETUP_REPEATS, recorder: Any = None,
          unit_repeats: int = UNIT_REPEATS) -> Tuple[Outcome, List[int]]:
    """Set the stack up, run the warm-up and the rounds, read the end state.

    With a ``recorder`` (a :class:`stackbench.trace.SpanRecorder`) the
    stack is built with timing proxies in its seams.
    """
    edges = round_bounds(len(stream), cut_unit(wl))
    deadline_ns = _now() + int((_CAP_FACTOR * seconds + _CAP_CONST_S) * 1e9)
    out = Outcome(stream, unit_repeats)
    if wl.stack == "durable":
        _drive_durable(space, stream, edges, deadline_ns, out, repeats)
    elif wl.stack in ("tcp", "router"):
        asyncio.run(_drive_net(wl, space, stream, edges, deadline_ns, out,
                               seed, repeats, recorder is not None))
    else:
        _drive_sync(wl, space, stream, edges, deadline_ns, out, repeats,
                    recorder)
        if recorder is not None:
            out.inner_spans = {"core": recorder.intervals("core")}
    return out, edges


def _timings(wl: Workload, out: Outcome, edges: List[int], lat_us: np.ndarray,
             walls_s: List[float], setups: List[float]
             ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The timing metrics from per-op latencies, round walls and set-ups."""
    stream, bad = out.stream, out.bad
    keys_per_op = stream.keys_per_op()
    rounds = list(zip(edges[1:-1], edges[2:]))
    values: Dict[str, float] = {}
    detail: Dict[str, Any] = {}
    for verb in (*VERBS, "get_batch"):
        code = OP_CODES[verb]
        per_round = [lat_us[lo:hi][(stream.op[lo:hi] == code) & ~bad[lo:hi]]
                     for lo, hi in rounds]
        for pct in (50, 95, 99):
            stat = percentile_of_rounds(per_round, pct)
            if stat is not None:
                detail[f"{verb}_p{pct}_us"] = stat
                values[f"{verb}_p{pct}_us"] = stat["median"]
    detail["throughput_keys_s"] = quartiles([
        keys_per_op[lo:hi][~bad[lo:hi]].sum() / wall
        for (lo, hi), wall in zip(rounds, walls_s[1:])
    ])
    values["throughput_keys_s"] = detail["throughput_keys_s"]["median"]
    detail["setup_s"] = quartiles(setups)
    values["setup_s"] = detail["setup_s"]["median"]
    measured = slice(edges[1], len(stream))
    ok = ~bad[measured] & (lat_us[measured] <= wl.slo_ms * 1e3)
    values["slo_ok_share"] = float(ok.mean())
    return values, detail


def summarise(wl: Workload, out: Outcome,
              edges: List[int]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """End-to-end metric values, and the diagnostics printed beside them.

    Timing metrics are the median over the rounds of each round's value,
    after every round's timings have been brought to the reference machine
    speed (``measure.speed_scales``; README, "The box changes speed"); the
    unscaled values are kept under ``detail["raw"]``. Ops that failed are
    left out of the latency samples: they are counted in ``failed`` and
    miss the latency limit.
    """
    tl, stream = out.timeline, out.stream
    n = len(stream)
    raw_us = tl.latency_ns() / 1e3
    walls_s = [w / 1e9 for w in out.walls_ns]
    scales = speed_scales(out.units_ns)
    lat_us = raw_us.copy()
    for (lo, hi), scale in zip(zip(edges[:-1], edges[1:]), scales[1:]):
        lat_us[lo:hi] *= scale
    # An open loop's wall time is its arrival schedule, not the box's speed.
    wall_scales = scales[1:] if wl.clients else [1.0] * len(walls_s)
    values, detail = _timings(
        wl, out, edges, lat_us, [w * f for w, f in zip(walls_s, wall_scales)],
        [t * scales[0] for t in out.setups])
    detail["raw"], raw_detail = _timings(wl, out, edges, raw_us, walls_s,
                                         out.setups)
    detail["raw_rounds"] = {name: stat["values"]
                            for name, stat in raw_detail.items()}
    detail["speed"] = {"unit_ms": [u / 1e6 for u in out.units_ns],
                       "scales": scales, "samples_ns": out.unit_samples_ns}
    n_final, _, model_bytes = out.final
    values["index_bytes_per_key"] = (model_bytes / n_final if n_final
                                     else math.nan)

    if tl.sent is not None:
        measured = slice(edges[1], n)
        late_us = (np.asarray(tl.sent)[measured] - np.asarray(tl.t0)[measured]) / 1e3
        detail["open_loop"] = {
            "late_p50_us": float(np.percentile(late_us, 50)),
            "late_p99_us": float(np.percentile(late_us, 99)),
            "late_share": float((late_us > 1000.0).mean()),
        }
    detail["round_wall_s"] = walls_s
    return values, detail


def run_workload(name: str, seed: int, seconds: float, *,
                 quick: bool = False, prefix_share: Optional[float] = None,
                 setup_repeats: int = SETUP_REPEATS,
                 recorder: Any = None) -> Dict[str, Any]:
    """One run of workload ``name``; returns the full result.

    ``prefix_share`` cuts the stream to its first share (what a traced run
    replays); the stream of a seed is the same either way. ``recorder``
    makes it the traced replay.
    """
    wl = WORKLOADS[name]
    t_start = time.perf_counter()
    space = key_space(wl, quick)
    stream = make_stream(wl, space, seed, op_count(wl, seconds, quick))
    digest = stream.digest()
    if prefix_share is not None:
        stream = prefix(stream, max(100, int(len(stream) * prefix_share)))
    out, edges = drive(wl, space, stream, seconds, seed, setup_repeats,
                       recorder, unit_repeats=1 if quick else UNIT_REPEATS)

    n_final, scan, _ = out.final
    final_ok, final_why = oracle.check_final(stream, n_final, scan)
    values, detail = summarise(wl, out, edges)
    values["peak_rss_mb"] = peak_rss_mb()
    failed = int(out.bad.sum())
    traced = {} if prefix_share is None else {
        "client_spans": np.stack([np.asarray(out.timeline.t0, dtype=np.int64),
                                  np.asarray(out.timeline.t1, dtype=np.int64)],
                                 axis=1)[edges[1]:],
        "inner_spans": out.inner_spans, "stream_op": stream.op[edges[1]:],
    }
    return {
        **traced,
        "workload": name, "seed": seed, "seconds": seconds, "quick": quick,
        "attempted": len(stream), "failed": failed,
        "correct": failed == 0 and final_ok,
        "final_check": final_why, "first_failures": out.first_failures,
        "values": values, "detail": detail, "extra": out.extra,
        "stats": out.stats,
        "stream_sha256": digest, "dataset_sha256": sha256_of(space.keys),
        "n_keys": space.n, "wall_s": time.perf_counter() - t_start,
        "env": environment(),
    }


def prefix(stream: Stream, n_ops: int) -> Stream:
    """The first ``n_ops`` ops of a stream, as a stream."""
    if stream.batches is not None:
        return Stream(stream.space, stream.op[:n_ops],
                      batches=stream.batches[:n_ops])
    return Stream(stream.space, stream.op[:n_ops], stream.key[:n_ops],
                  stream.hi[:n_ops], stream.val[:n_ops], stream.r0[:n_ops],
                  stream.r1[:n_ops])


def missing_metrics(values: Dict[str, float], declared: List[dict]) -> List[str]:
    """Declared end-to-end metrics a run could not measure."""
    return [m["name"] for m in declared
            if m["name"] not in values or not math.isfinite(values[m["name"]])]
