"""Micro-batching request accumulator over the engine's batch verbs.

The engine (:class:`repro.engine.ShardedEngine`) is fast when it answers
*batches* — one vectorized pass instead of one Python descent per key — but
serving traffic arrives as independent per-caller ``await`` s. The
:class:`RequestBatcher` closes that gap: concurrent ``submit_get`` /
``submit_range`` / ``submit_insert`` / ``submit_delete`` calls park their
futures in pending lists, a flush coalesces the lists into arrays,
dispatches them through ``lookup_batch`` / ``range_batch`` /
``insert_batch`` / ``delete_batch``, and fans the results back out to each
caller's future. ``submit_get_many`` parks a whole key array as one get op
(the TCP tier's coalesced gets); its keys join the cycle's other gets in
the same ``lookup_batch`` call and it resolves to its ``(values, found)``
slice.

Flush triggers (first one wins):

* **size** — pending requests reach ``max_batch``;
* **delay** — ``max_delay`` seconds elapsed since the first pending request
  (a lone request is never stranded);
* **idle** (on by default, ``eager_flush``) — the event loop ran out of
  ready work, i.e. every live producer has submitted and suspended. This is
  what makes closed-loop traffic batch perfectly at any concurrency without
  paying ``max_delay`` of added latency: with N blocked clients the batch
  is exactly N.

Ordering guarantees (read-your-writes):

* Flush cycles are serialized by an ``asyncio.Lock``; within a cycle the
  dispatch order is reads, then writes (inserts and deletes, dispatched
  as maximal same-kind runs in submission order), then *barriered* reads.
* A read submitted while writes are pending is *barriered* — held back
  until after the write dispatch — iff its key (or range) overlaps the
  pending writes' key fence ``[min, max]``. Non-overlapping reads keep
  batching ahead of the write. After each write flush, the engine's
  monotonic :attr:`~repro.engine.ShardedEngine.version` stamp is recorded
  so the barrier is observable (``stats()["barrier_version"]``).
* A read submitted *after* a flush started waits on the lock, so it always
  sees any write dispatched in that cycle.

Failure isolation: a poisoned batch (e.g. one key that cannot coerce to
float) falls back to per-request scalar verbs, so only the offending
request gets the exception and its batch-mates still succeed. For insert
batches the fallback is attempted only when the engine's version stamp
proves nothing was applied; otherwise the whole batch fails loudly rather
than risk double-applying a prefix.

Blocking: dispatch runs inline on the event loop, so a flush never yields
mid-cycle and the engine (which is not thread-safe) only ever sees one
caller.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError, KeyNotFoundError

if TYPE_CHECKING:  # pragma: no cover - type-checker-only import
    from repro.api.protocol import BatchEngine  # noqa: F401

__all__ = ["RequestBatcher"]

#: Sentinel distinguishing "missing" from any user value or default.
_MISS = object()
#: The default slot of a get op holding a key array (submit_get_many).
_MANY = object()


def _zero() -> float:
    """Observer-less stand-in for ``time.perf_counter`` (see __init__)."""
    return 0.0


def _width(op: Tuple) -> int:
    """Keys a get op asks for: its key array's size, else one."""
    return op[0].size if op[1] is _MANY else 1


def _each(fn: Callable[..., Any], argss: List[Tuple]) -> List[Tuple[bool, Any]]:
    """Apply ``fn`` to each args tuple, isolating per-item exceptions.

    Returns one ``(ok, result_or_exception)`` pair per item. Used as the
    scalar fallback when a vectorized dispatch fails: failures stay
    contained to their own request.
    """
    out: List[Tuple[bool, Any]] = []
    for args in argss:
        try:
            out.append((True, fn(*args)))
        except Exception as exc:  # isolation by design
            out.append((False, exc))
    return out


class RequestBatcher:
    """Accumulate concurrent requests into micro-batches over an engine.

    Parameters
    ----------
    engine:
        Anything exposing the engine verbs — scalar ``get`` / ``insert`` /
        ``range_arrays`` plus batch ``lookup_batch`` / ``range_batch`` /
        ``insert_batch`` (see :class:`~repro.api.protocol.BatchEngine`),
        e.g. a :class:`~repro.engine.ShardedEngine` or
        :class:`~repro.cluster.ClusterEngine`. ``submit_delete`` further
        requires the ``delete`` / ``delete_batch`` verbs of the full
        :class:`~repro.api.protocol.EngineProtocol`.
    max_batch:
        Dispatch granularity: a flush cuts pending requests into chunks of
        at most this many; reaching it also triggers an immediate flush.
        At ``1`` every chunk is one request, answered by the scalar
        engine verb; the flush cycle and its ordering rules are the same.
    max_delay:
        Upper bound, in seconds, on how long a pending request may wait for
        batch-mates before the timer flushes it.
    eager_flush:
        Also flush when the event loop goes idle (see module doc). Disable
        to get strict size-or-delay semantics, e.g. to test the timer.
    observer:
        Optional ``f(kind, latencies)`` called at each dispatch's fan-out
        with the list of end-to-end latencies (seconds) of the requests
        just completed; the :class:`~repro.serve.Server` wires its latency
        series in through this.
    telemetry:
        Optional :class:`repro.obs.Telemetry` bundle. ``None`` (default)
        adds nothing to the hot path. When set, the dispatch counters and
        flush-reason tallies are exported through registry callbacks, and
        in ``"full"`` mode each flush cycle records a ``serve.flush`` span
        (with its reason and queue wait) parenting per-chunk
        ``serve.dispatch`` spans — the root of the batch-lifecycle trace.

    All ``submit_*`` methods must be called from a running event loop and
    return an :class:`asyncio.Future` resolving to the operation's result.
    """

    def __init__(
        self,
        engine: "BatchEngine",
        *,
        max_batch: int = 1024,
        max_delay: float = 0.002,
        eager_flush: bool = True,
        observer: Optional[Callable[[str, List[float]], None]] = None,
        telemetry: Any = None,
    ) -> None:
        if max_batch < 1:
            raise InvalidParameterError(
                f"max_batch must be >= 1, got {max_batch}"
            )
        if max_delay < 0:
            raise InvalidParameterError(
                f"max_delay must be >= 0, got {max_delay}"
            )
        self.engine = engine
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay)
        self.eager_flush = bool(eager_flush)
        self._observer = observer
        self._telemetry = telemetry
        #: Slow-op log (mode "full" only): fed per fan-out, finalized at
        #: the end of each flush cycle once the flush span has closed.
        self._taillog = (
            getattr(telemetry, "taillog", None)
            if telemetry is not None
            else None
        )
        # Per-request enqueue timestamps exist only to feed the observer
        # (or a flush span's queue-wait attribute); with neither installed
        # the clock reads are skipped entirely (a measurable saving at
        # millions of requests).
        self._clock = (
            time.perf_counter
            if observer is not None or telemetry is not None
            else _zero
        )

        # Pending ops: (key, default, future, t0) / (lo, hi, future, t0) /
        # (key, value, future, t0). Writes keep submission order in one
        # list of ("insert" | "delete", op) pairs so an insert and a
        # delete of the same key dispatch in the order they arrived.
        self._gets: List[Tuple] = []
        self._ranges: List[Tuple] = []
        self._writes: List[Tuple[str, Tuple]] = []
        #: Reads overlapping the pending writes' key fence; dispatched
        #: after the writes in the same flush cycle (read-your-writes).
        self._held_gets: List[Tuple] = []
        self._held_ranges: List[Tuple] = []
        self._fence_lo = math.inf
        self._fence_hi = -math.inf

        self._timer: Optional[asyncio.TimerHandle] = None
        self._flush_scheduled = False
        self._gen = 0  # submission generation, for idle-flush detection
        self._idle_armed = False
        self._n_pending = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # Created lazily on first flush: on Python 3.9 an asyncio.Lock
        # built outside a running loop binds the wrong loop.
        self._lock: Optional[asyncio.Lock] = None
        #: Reason the next flush cycle will attribute itself to; stamped
        #: by whichever trigger scheduled the flush (first one wins).
        self._flush_reason: Optional[str] = None
        self._stats: Dict[str, Any] = {
            "flushes": 0,
            "batches": {"get": 0, "range": 0, "insert": 0, "delete": 0},
            "ops": {"get": 0, "range": 0, "insert": 0, "delete": 0},
            "flush_reasons": {"size": 0, "timer": 0, "idle": 0, "drain": 0},
            "max_batch_observed": 0,
            "scalar_fallbacks": 0,
            "barrier_held": 0,
            "barrier_version": None,
        }
        if telemetry is not None:
            telemetry.registry.register_callback(
                "repro_serve_batcher",
                self._collect_counters,
                help="RequestBatcher dispatch counters.",
                labels=("counter",),
            )
            telemetry.registry.register_callback(
                "repro_serve_flush_total",
                lambda: dict(self._stats["flush_reasons"]),
                help="Flush cycles by trigger reason.",
                labels=("reason",),
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of requests accepted but not yet dispatched (a
        ``submit_get_many`` op counts its keys)."""
        return self._n_pending

    def stats(self) -> Dict[str, Any]:
        """Dispatch counters: flushes, batches and ops per kind, flush
        cycles by trigger reason, the largest batch observed, scalar
        fallbacks taken, reads held at the write barrier, and the engine
        version stamped by the last insert flush.

        Returns
        -------
        dict
            A snapshot (safe to mutate) of the counters listed above plus
            ``pending``, the current queue depth.
        """
        out = dict(self._stats)
        out["batches"] = dict(self._stats["batches"])
        out["ops"] = dict(self._stats["ops"])
        out["flush_reasons"] = dict(self._stats["flush_reasons"])
        out["pending"] = self.pending
        return out

    def _collect_counters(self) -> Dict[str, float]:
        """Flatten the scalar dispatch counters for the metrics callback."""
        s = self._stats
        out: Dict[str, float] = {
            "flushes": s["flushes"],
            "max_batch_observed": s["max_batch_observed"],
            "scalar_fallbacks": s["scalar_fallbacks"],
            "barrier_held": s["barrier_held"],
            "pending": self._n_pending,
        }
        for kind, v in s["ops"].items():
            out[f"ops_{kind}"] = v
        for kind, v in s["batches"].items():
            out[f"batches_{kind}"] = v
        return out

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def _get_loop(self) -> asyncio.AbstractEventLoop:
        loop = self._loop
        if loop is None:
            # Cached on first submission; a batcher serves one event loop
            # for its lifetime (timers and futures are loop-bound anyway).
            loop = self._loop = asyncio.get_running_loop()
        return loop

    def submit_get(self, key: Any, default: Any = None) -> asyncio.Future:
        """Enqueue a point lookup; resolves to its value (or ``default``).

        The hottest entry point: the ``_after_submit`` trigger logic is
        inlined here (and only here) to keep per-request overhead down.
        """
        loop = self._loop
        if loop is None:
            loop = self._get_loop()
        fut = loop.create_future()
        op = (key, default, fut, self._clock())
        if self._writes and self._read_overlaps_fence(key, key):
            self._held_gets.append(op)
            self._stats["barrier_held"] += 1
        else:
            self._gets.append(op)
        self._gen += 1
        n = self._n_pending = self._n_pending + 1
        if n >= self.max_batch:
            self._schedule_flush("size")
        else:
            if self._timer is None and not self._flush_scheduled:
                self._timer = loop.call_later(
                    self.max_delay, self._timer_fired
                )
            if self.eager_flush and not self._idle_armed:
                self._idle_armed = True
                loop.call_soon(self._idle_fired, self._gen)
        return fut

    def submit_get_many(self, keys) -> asyncio.Future:
        """Enqueue many point lookups as one op; resolves to the
        ``(values, found)`` arrays for ``keys`` (float64-coercible), with
        ``found`` false where a key is absent.

        The op counts as its key count toward ``max_batch`` and in every
        stat and observed latency, is held at the write barrier when
        ``[keys.min(), keys.max()]`` overlaps the pending writes' fence,
        and is answered in the same flush and ``lookup_batch`` call as
        the cycle's other gets.
        """
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        loop = self._get_loop()
        fut = loop.create_future()
        op = (keys, _MANY, fut, self._clock())
        if (
            self._writes
            and keys.size
            and self._read_overlaps_fence(keys.min(), keys.max())
        ):
            self._held_gets.append(op)
            self._stats["barrier_held"] += 1
        else:
            self._gets.append(op)
        self._after_submit(loop, max(keys.size, 1))
        return fut

    def submit_range(self, lo: Any, hi: Any) -> asyncio.Future:
        """Enqueue a range scan; resolves to a ``(keys, values)`` pair."""
        loop = self._get_loop()
        fut = loop.create_future()
        op = (lo, hi, fut, self._clock())
        if self._writes and self._read_overlaps_fence(lo, hi):
            self._held_ranges.append(op)
            self._stats["barrier_held"] += 1
        else:
            self._ranges.append(op)
        self._after_submit(loop)
        return fut

    def submit_insert(self, key: Any, value: Any = None) -> asyncio.Future:
        """Enqueue an insert; resolves to ``None`` once applied."""
        loop = self._get_loop()
        fut = loop.create_future()
        self._writes.append(("insert", (key, value, fut, self._clock())))
        self._widen_fence(key)
        self._after_submit(loop)
        return fut

    def submit_delete(self, key: Any) -> asyncio.Future:
        """Enqueue a delete; resolves to the deleted value once applied.

        An absent key rejects that caller's future with
        :class:`~repro.core.errors.KeyNotFoundError` without affecting
        batch-mates. Deletes share the inserts' key fence, so a read
        submitted after a delete of an overlapping key is dispatched
        after it (read-your-writes for removals too).
        """
        loop = self._get_loop()
        fut = loop.create_future()
        self._writes.append(("delete", (key, None, fut, self._clock())))
        self._widen_fence(key)
        self._after_submit(loop)
        return fut

    def _widen_fence(self, key: Any) -> None:
        """Grow the pending-writes key fence to cover ``key``."""
        try:
            fk = float(key)
        except (TypeError, ValueError):
            # Unroutable key: widen the fence to everything so no read
            # can jump ahead of a write we cannot reason about.
            self._fence_lo, self._fence_hi = -math.inf, math.inf
        else:
            self._fence_lo = min(self._fence_lo, fk)
            self._fence_hi = max(self._fence_hi, fk)

    def _read_overlaps_fence(self, lo: Any, hi: Any) -> bool:
        """Whether a read of ``[lo, hi]`` must wait for pending inserts."""
        try:
            flo = -math.inf if lo is None else float(lo)
            fhi = math.inf if hi is None else float(hi)
        except (TypeError, ValueError):
            return True  # unroutable read: stay ordered, it will fail anyway
        return not (fhi < self._fence_lo or flo > self._fence_hi)

    # ------------------------------------------------------------------
    # Flush triggers
    # ------------------------------------------------------------------

    def _after_submit(self, loop: asyncio.AbstractEventLoop, n: int = 1) -> None:
        self._gen += 1
        self._n_pending += n
        if self._n_pending >= self.max_batch:
            self._schedule_flush("size")
            return
        if self._timer is None and not self._flush_scheduled:
            self._timer = loop.call_later(self.max_delay, self._timer_fired)
        if self.eager_flush and not self._idle_armed:
            self._idle_armed = True
            loop.call_soon(self._idle_fired, self._gen)

    def _timer_fired(self) -> None:
        self._timer = None
        if self._n_pending:
            self._schedule_flush("timer")

    def _idle_fired(self, gen: int) -> None:
        # Runs after every currently-runnable task had a chance to submit;
        # if nothing new arrived since, producers are all suspended and
        # waiting on us — flush now rather than in max_delay. At most one
        # idle probe is in flight: it re-arms itself while submissions
        # keep landing, so N concurrent producers cost ~2 probes per
        # cycle, not N.
        if gen != self._gen and self._n_pending:
            self._loop.call_soon(self._idle_fired, self._gen)
            return
        self._idle_armed = False
        if gen == self._gen and self._n_pending and not self._flush_scheduled:
            self._schedule_flush("idle")

    def _schedule_flush(self, reason: str = "size") -> None:
        if self._flush_scheduled:
            return
        self._flush_scheduled = True
        self._flush_reason = reason
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._get_loop().create_task(self._flush())

    async def drain(self) -> None:
        """Flush until nothing is pending (used by ``Server.close``)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        while self.pending:
            if not self._flush_scheduled:
                self._flush_reason = "drain"
            await self._flush()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def _flush(self) -> None:
        if self._lock is None:
            self._lock = asyncio.Lock()
        async with self._lock:
            self._flush_scheduled = False
            await self._dispatch_cycle()
        # Requests that arrived mid-cycle scheduled their own flush (the
        # flag was cleared above); this is only a belt-and-braces rearm
        # (attributed to the timer it replaces).
        if self.pending and not self._flush_scheduled and self._timer is None:
            self._schedule_flush("timer")

    async def _dispatch_cycle(self) -> None:
        reason = self._flush_reason or "drain"
        self._flush_reason = None
        gets, self._gets = self._gets, []
        ranges, self._ranges = self._ranges, []
        writes, self._writes = self._writes, []
        held_gets, self._held_gets = self._held_gets, []
        held_ranges, self._held_ranges = self._held_ranges, []
        self._n_pending = 0
        self._fence_lo, self._fence_hi = math.inf, -math.inf
        if not (gets or ranges or writes or held_gets or held_ranges):
            return
        self._stats["flushes"] += 1
        self._stats["flush_reasons"][reason] = (
            self._stats["flush_reasons"].get(reason, 0) + 1
        )
        tel = self._telemetry
        tracer = tel.tracer if tel is not None else None
        if tracer is None:
            await self._dispatch_all(gets, ranges, writes, held_gets, held_ranges)
            return
        # The serve.flush span is the root of one batch-lifecycle trace;
        # the ambient contextvar parents every serve.dispatch (and, via
        # the inline engine path, cluster.get_batch / worker.compute)
        # span recorded underneath this cycle.
        n = (
            len(gets) + len(ranges) + len(writes)
            + len(held_gets) + len(held_ranges)
        )
        with tracer.span(
            "serve.flush",
            reason=reason,
            n=n,
            barriered=len(held_gets) + len(held_ranges),
        ) as sp:
            t0s = [op[3] for op in gets + ranges + held_gets + held_ranges]
            t0s += [op[3] for _, op in writes]
            sp.attrs["queue_wait_us"] = (self._clock() - min(t0s)) * 1e6
            await self._dispatch_all(gets, ranges, writes, held_gets, held_ranges)
        if self._taillog is not None:
            # Outside the span block: the flush span has closed, so the
            # tracer ring now holds the complete trace for each mark.
            self._taillog.finalize(tracer)

    async def _dispatch_all(
        self,
        gets: List[Tuple],
        ranges: List[Tuple],
        writes: List[Tuple[str, Tuple]],
        held_gets: List[Tuple],
        held_ranges: List[Tuple],
    ) -> None:
        """One cycle's dispatch sequence: reads, write runs, barriered reads."""
        await self._dispatch_gets(gets)
        await self._dispatch_ranges(ranges)
        # Writes dispatch as maximal same-kind runs in submission order,
        # so an insert and a delete of the same key apply as submitted.
        i = 0
        while i < len(writes):
            kind = writes[i][0]
            j = i
            while j < len(writes) and writes[j][0] == kind:
                j += 1
            run = [op for _, op in writes[i:j]]
            if kind == "insert":
                await self._dispatch_inserts(run)
            else:
                await self._dispatch_deletes(run)
            i = j
        # Read-your-writes: reads that overlapped the writes go last.
        await self._dispatch_gets(held_gets)
        await self._dispatch_ranges(held_ranges)

    def _resolve(self, op: Tuple, kind: str, value: Any) -> None:
        fut = op[2]
        if not fut.done():
            fut.set_result(value)
        self._account((op,), kind)

    def _reject(self, op: Tuple, kind: str, exc: BaseException) -> None:
        fut = op[2]
        if not fut.done():
            fut.set_exception(exc)
        self._account((op,), kind)

    def _note_batch(self, kind: str, size: int) -> None:
        self._stats["batches"][kind] += 1
        if size > self._stats["max_batch_observed"]:
            self._stats["max_batch_observed"] = size

    def _chunks(self, ops: List[Tuple]) -> List[List[Tuple]]:
        if len(ops) <= self.max_batch:
            return [ops] if ops else []
        return [
            ops[i : i + self.max_batch]
            for i in range(0, len(ops), self.max_batch)
        ]

    def _fan_out(self, chunk: List[Tuple], kind: str, values) -> None:
        """Resolve a whole chunk's futures (``values`` is indexable per
        op, array or list), then account for them in bulk."""
        for op, value in zip(chunk, values):
            fut = op[2]
            if not fut.done():
                fut.set_result(value)
        self._account(chunk, kind)

    def _account(self, ops, kind: str) -> None:
        """Count completed ops and report their latencies to the observer
        and the slow-op log, once per key for a key-array get.

        The single ``clock()`` here is accurate because batch-mates
        complete at the same instant by construction.
        """
        widths = None
        if kind == "get" and any(op[1] is _MANY for op in ops):
            widths = [_width(op) for op in ops]
        self._stats["ops"][kind] += len(ops) if widths is None else sum(widths)
        observer, taillog = self._observer, self._taillog
        if observer is None and taillog is None:
            return
        now = self._clock()
        latencies = [now - op[3] for op in ops]
        if widths is not None:
            latencies = np.repeat(latencies, widths).tolist()
        if observer is not None:
            observer(kind, latencies)
        if taillog is not None:
            # op[0] is the key (or a range's lo bound) — enough for the
            # slow record to carry the op's key range.
            keys = [op[0] for op in ops]
            if widths is not None:
                keys = np.concatenate([np.atleast_1d(key) for key in keys])
            ctx = self._telemetry.ctx()
            taillog.observe(
                kind,
                np.asarray(latencies, dtype=np.float64) * 1e6,
                trace_id=None if ctx is None else ctx[0],
                keys=keys,
            )

    async def _dispatch_gets(self, ops: List[Tuple]) -> None:
        tel = self._telemetry
        tracer = tel.tracer if tel is not None else None
        for chunk in self._chunks(ops):
            self._note_batch("get", sum(map(_width, chunk)))
            if tracer is None:
                await self._dispatch_get_chunk(chunk)
            else:
                with tracer.span("serve.dispatch", kind="get", n=len(chunk)):
                    await self._dispatch_get_chunk(chunk)

    async def _dispatch_get_chunk(self, chunk: List[Tuple]) -> None:
        """Answer one get chunk: scalar, batch, or fallback path."""
        engine = self.engine
        vector = any(op[1] is _MANY for op in chunk)
        if len(chunk) == 1 and not vector:
            (key, default, _fut, _t0), = chunk
            try:
                value = engine.get(key, default)
            except Exception as exc:
                self._reject(chunk[0], "get", exc)
            else:
                self._resolve(chunk[0], "get", value)
            return
        try:
            if vector:
                q = np.concatenate(
                    [op[0] if op[1] is _MANY else [op[0]] for op in chunk]
                )
            else:
                q = np.asarray([op[0] for op in chunk], dtype=np.float64)
            values, found = engine.lookup_batch(q)
        except Exception:
            self._stats["scalar_fallbacks"] += 1
            outcomes = _each(self._get_one, [(op[0], op[1]) for op in chunk])
            for op, (ok, res) in zip(chunk, outcomes):
                (self._resolve if ok else self._reject)(op, "get", res)
            return
        # Each op's answer: a key array's (values, found) slice, or one
        # key's value — or that caller's own default.
        hits = found.tolist()
        answers = []
        at = 0
        for key, default, _fut, _t0 in chunk:
            if default is _MANY:
                end = at + key.size
                answers.append((values[at:end], found[at:end]))
                at = end
            else:
                answers.append(values[at] if hits[at] else default)
                at += 1
        self._fan_out(chunk, "get", answers)

    def _get_one(self, key: Any, default: Any) -> Any:
        """One get op answered alone (its chunk's batch call failed)."""
        if default is _MANY:
            return self.engine.lookup_batch(key)
        return self.engine.get(key, default)

    async def _dispatch_ranges(self, ops: List[Tuple]) -> None:
        engine = self.engine
        for chunk in self._chunks(ops):
            self._note_batch("range", len(chunk))
            try:
                if len(chunk) == 1:
                    (lo, hi, _fut, _t0), = chunk
                    results = [engine.range_arrays(lo, hi)]
                else:
                    bounds = np.asarray(
                        [[op[0], op[1]] for op in chunk], dtype=np.float64
                    )
                    results = engine.range_batch(bounds)
            except Exception:
                self._stats["scalar_fallbacks"] += 1
                outcomes = _each(
                    engine.range_arrays, [(op[0], op[1]) for op in chunk]
                )
                for op, (ok, res) in zip(chunk, outcomes):
                    (self._resolve if ok else self._reject)(op, "range", res)
                continue
            self._fan_out(chunk, "range", results)

    async def _dispatch_inserts(self, ops: List[Tuple]) -> None:
        engine = self.engine
        for chunk in self._chunks(ops):
            self._note_batch("insert", len(chunk))
            keys = [op[0] for op in chunk]
            values = [op[1] for op in chunk]
            n_none = sum(1 for v in values if v is None)
            pre = engine.version
            exc: Optional[BaseException] = None
            try:
                if len(chunk) == 1:
                    engine.insert(keys[0], values[0])
                elif 0 < n_none < len(values):
                    # Mixed auto-rowid and explicit payloads cannot go
                    # through one insert_batch call without changing what
                    # the engine would store; apply per item instead.
                    raise _MixedBatch()
                elif n_none == len(values):
                    engine.insert_batch(np.asarray(keys, dtype=np.float64))
                else:
                    engine.insert_batch(
                        np.asarray(keys, dtype=np.float64), values
                    )
            except Exception as caught:
                exc = caught
            if exc is None:
                self._fan_out(chunk, "insert", [None] * len(chunk))
            elif engine.version == pre:
                # The engine provably applied nothing (version unchanged):
                # safe to retry per item so one bad request cannot poison
                # its batch-mates.
                self._stats["scalar_fallbacks"] += 1
                outcomes = _each(engine.insert, list(zip(keys, values)))
                for op, (ok, res) in zip(chunk, outcomes):
                    if ok:
                        self._resolve(op, "insert", None)
                    else:
                        self._reject(op, "insert", res)
            else:
                # Partial application is possible; failing the whole chunk
                # is the only answer that cannot double-insert.
                for op in chunk:
                    self._reject(op, "insert", exc)
            self._stats["barrier_version"] = engine.version

    async def _dispatch_deletes(self, ops: List[Tuple]) -> None:
        """Dispatch a delete run through ``engine.delete_batch``.

        Misses reject only their own future (with the engine's
        ``KeyNotFoundError``), so one absent key cannot poison its
        batch-mates; a whole-batch failure falls back per key only when
        the engine's version stamp proves nothing was applied, exactly
        like the insert path.
        """
        engine = self.engine
        for chunk in self._chunks(ops):
            self._note_batch("delete", len(chunk))
            keys = [op[0] for op in chunk]
            if len(chunk) == 1:
                # Already per-request isolated: dispatch the scalar verb
                # and reject this one future on any failure.
                try:
                    value = engine.delete(keys[0])
                except Exception as exc:
                    self._reject(chunk[0], "delete", exc)
                else:
                    self._resolve(chunk[0], "delete", value)
                self._stats["barrier_version"] = engine.version
                continue
            pre = engine.version
            exc: Optional[BaseException] = None
            results = None
            try:
                results = engine.delete_batch(
                    np.asarray(keys, dtype=np.float64),
                    missing="ignore",
                    default=_MISS,
                )
            except Exception as caught:
                exc = caught
            if exc is None:
                for op, value in zip(chunk, results):
                    if value is _MISS:
                        self._reject(op, "delete", KeyNotFoundError(op[0]))
                    else:
                        self._resolve(op, "delete", value)
            elif engine.version == pre:
                # Nothing applied: safe to retry per key in isolation.
                self._stats["scalar_fallbacks"] += 1
                outcomes = _each(engine.delete, [(k,) for k in keys])
                for op, (ok, res) in zip(chunk, outcomes):
                    (self._resolve if ok else self._reject)(op, "delete", res)
            else:
                # Partial application is possible; failing the whole chunk
                # is the only answer that cannot double-delete.
                for op in chunk:
                    self._reject(op, "delete", exc)
            self._stats["barrier_version"] = engine.version


class _MixedBatch(Exception):
    """Internal: route a mixed None/explicit-value insert chunk to the
    per-item path (never escapes :meth:`RequestBatcher._dispatch_inserts`)."""
