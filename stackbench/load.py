"""Load generators: closed loops that time all four verbs, and a pacing
open loop.

Every driver runs ops ``[lo, hi)`` of a stream against a *target* (an
object with ``get / insert / delete / range`` and, for routers,
``get_batch`` — or the batch verbs for a batch stream), stamps each op's
start and end with ``time.perf_counter_ns`` and keeps the raw reply for
the oracle. Replies are checked after the timed region, never inside it.

The open loop differs from ``repro.workloads.run_open_loop`` in the one
way that matters for tails: a single scheduler coroutine releases each
request at its due time, instead of creating every request task up front
and letting ten thousand sleeping tasks fight over the loop. Latency is
counted from the due time, and how late the generator itself ran is kept
per request.
"""

from __future__ import annotations

import asyncio
import time
from array import array
from typing import Any, List, Optional

import numpy as np

from stackbench.oracle import Failure
from stackbench.streams import DELETE, GET, GET_BATCH, INSERT, RANGE, Stream

_now = time.perf_counter_ns


class Timeline:
    """Per-op start/end stamps (ns) and raw replies of one run."""

    def __init__(self, n_ops: int) -> None:
        unsent = Failure("not sent before the wall-clock cap")
        # Typed arrays, not lists: a million-entry list of ints is one more
        # container for every full garbage collection to walk, and the
        # collector's cost would land in the program's latencies.
        self.t0 = array("q", bytes(8 * n_ops))
        self.t1 = array("q", bytes(8 * n_ops))
        #: Open loop only: when the request actually left (t0 is its due time).
        self.sent: Optional[array] = None
        #: Raw replies; the runner checks and drops them after each round.
        self.replies: List[Any] = [unsent] * n_ops

    def latency_ns(self) -> np.ndarray:
        return np.asarray(self.t1, dtype=np.int64) - np.asarray(
            self.t0, dtype=np.int64)


def run_sync_scalar(target: Any, stream: Stream, lo: int, hi: int,
                    tl: Timeline, deadline_ns: int) -> None:
    """One caller, one op at a time, against a synchronous index."""
    rows = zip(range(lo, hi), stream.op[lo:hi].tolist(),
               stream.key[lo:hi].tolist(), stream.hi[lo:hi].tolist(),
               stream.val[lo:hi].tolist())
    get, insert, delete, scan = (target.get, target.insert, target.delete,
                                 target.range_items)
    t0s, t1s, out = tl.t0, tl.t1, tl.replies
    for i, op, key, key_hi, val in rows:
        if not i & 1023 and _now() > deadline_ns:
            return
        t0 = _now()
        try:
            if op == GET:
                r = get(key)
            elif op == INSERT:
                r = insert(key, val)
            elif op == DELETE:
                r = delete(key)
            else:
                r = list(scan(key, key_hi))
        except Exception as exc:  # any failure of the program is a failed op
            r = Failure(exc)
        t1s[i] = _now()
        t0s[i] = t0
        if op == RANGE and type(r) is list:
            # Outside the timed call: a hundred live tuples per scan would
            # otherwise sit on the heap until the round is checked.
            r = (np.array([k for k, _ in r]), np.array([v for _, v in r]))
        out[i] = r


def call_batch(target: Any, entry: tuple) -> Any:
    """Issue one batch-stream entry against a synchronous engine."""
    kind, a, b, _ = entry
    if kind == GET:
        return target.get_batch(a, -1)
    if kind == INSERT:
        return target.insert_batch(a, b)
    if kind == DELETE:
        return target.delete_batch(a)
    return target.range_batch(a)


def run_sync_batch(target: Any, stream: Stream, lo: int, hi: int,
                   tl: Timeline, deadline_ns: int) -> None:
    """One caller issuing one batch verb at a time."""
    batches = stream.batches
    for i in range(lo, hi):
        if _now() > deadline_ns:
            return
        t0 = _now()
        try:
            r = call_batch(target, batches[i])
        except Exception as exc:
            r = Failure(exc)
        tl.t1[i] = _now()
        tl.t0[i] = t0
        tl.replies[i] = r


def _call_async(target: Any, stream: Stream, i: int) -> Any:
    """The awaitable for op ``i`` of a scalar stream."""
    op = stream.op[i]
    if op == GET:
        return target.get(float(stream.key[i]))
    if op == INSERT:
        return target.insert(float(stream.key[i]), int(stream.val[i]))
    if op == DELETE:
        return target.delete(float(stream.key[i]))
    if op == RANGE:
        return target.range(float(stream.key[i]), float(stream.hi[i]))
    assert op == GET_BATCH
    return target.get_batch(stream.space.keys[stream.r0[i]: stream.r1[i]], -1)


async def run_closed(target: Any, stream: Stream, lo: int, hi: int,
                     tl: Timeline, deadline_ns: int, clients: int) -> None:
    """``clients`` callers in flight on one connection.

    Caller ``c`` issues the ops whose index is ``c`` modulo ``clients``, in
    order, each after its previous one returned — the same assignment the
    stream used to decide which inserted keys a caller may read back.
    """

    async def caller(c: int) -> None:
        for i in range(lo + (c - lo) % clients, hi, clients):
            if _now() > deadline_ns:
                return
            t0 = _now()
            try:
                r = await _call_async(target, stream, i)
            except Exception as exc:
                r = Failure(exc)
            tl.t1[i] = _now()
            tl.t0[i] = t0
            tl.replies[i] = r

    await asyncio.gather(*[caller(c) for c in range(clients)])


async def run_open(target: Any, stream: Stream, lo: int, hi: int,
                   tl: Timeline, deadline_ns: int, due_s: np.ndarray) -> None:
    """Release op ``i`` at ``due_s[i] - due_s[lo]`` seconds after the start.

    The scheduler sleeps until about a millisecond before the next due
    time (the selector's timeout resolution) and then yields in a loop, so
    a request leaves within tens of microseconds of its due time as long
    as the loop itself is not busy; when it is, the request leaves late
    and the lateness lands in its latency, as it would for a real caller.
    """
    if tl.sent is None:
        tl.sent = array("q", bytes(8 * len(tl.t0)))
    loop = asyncio.get_running_loop()
    start = _now()
    due_ns = ((due_s[lo:hi] - due_s[lo]) * 1e9).astype(np.int64) + start
    tasks = set()

    async def one(i: int, due: int) -> None:
        tl.sent[i] = _now()
        try:
            r = await _call_async(target, stream, i)
        except Exception as exc:
            r = Failure(exc)
        tl.t1[i] = _now()
        tl.t0[i] = due
        tl.replies[i] = r

    for i, due in zip(range(lo, hi), due_ns.tolist()):
        while True:
            wait = due - _now()
            if wait <= 0:
                break
            await asyncio.sleep((wait - 1_000_000) / 1e9 if wait > 2_000_000 else 0)
        if due > deadline_ns:
            break
        task = loop.create_task(one(i, due))
        tasks.add(task)
        task.add_done_callback(tasks.discard)
    if tasks:
        await asyncio.gather(*list(tasks))
