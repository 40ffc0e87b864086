"""Micro-batching request accumulator over the engine's batch verbs.

The engine (:class:`repro.engine.ShardedEngine`) is fast when it answers
*batches* — one vectorized pass instead of one Python descent per key — but
serving traffic arrives as independent per-caller ``await`` s. The
:class:`RequestBatcher` closes that gap: concurrent ``submit_get_many`` /
``submit_range`` / ``submit_insert`` / ``submit_delete`` calls park their
futures in pending lists, a flush coalesces the lists into arrays,
dispatches them through ``lookup_batch`` / ``range_batch`` /
``insert_batch`` / ``delete_batch``, and fans the results back out to each
caller's future. There is one get op: a key array (one key for a scalar
``Server.get``, a client's coalesced gets over TCP), whose keys join the
cycle's other gets in the same ``lookup_batch`` call and which resolves to
its ``(values, found)`` slice; the caller applies its own default.

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

Dispatch: every kind goes through one chunk loop, and a chunk makes
exactly one engine call, its kind's batch verb, whatever its size.
Failure isolation: when that call raises, a chunk of several ops whose
call provably applied nothing (a read, or a write that left the engine's
version stamp unchanged) retries each op alone, as a one-op chunk through
the same call, so only the offending request gets the exception and its
batch-mates still succeed. Any other failure — a one-op chunk, or a write
that may have applied a prefix — rejects every op in the chunk with that
exception rather than risk double-applying anything.

Blocking: dispatch runs inline on the event loop, so a flush never yields
mid-cycle and the engine (which is not thread-safe) only ever sees one
caller.
"""

from __future__ import annotations

import asyncio
import itertools
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
_WRITES = ("insert", "delete")


def _zero() -> float:
    """Observer-less stand-in for ``time.perf_counter`` (see __init__)."""
    return 0.0


class _Failed:
    """An op's answer that is an exception: its future is rejected."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


class RequestBatcher:
    """Accumulate concurrent requests into micro-batches over an engine.

    Parameters
    ----------
    engine:
        Anything exposing the batch verbs the dispatch calls —
        ``lookup_batch`` / ``range_batch`` / ``insert_batch`` and the
        ``version`` stamp (see :class:`~repro.api.protocol.BatchEngine`),
        e.g. a :class:`~repro.engine.ShardedEngine` or
        :class:`~repro.cluster.ClusterEngine`. ``submit_delete`` further
        requires ``delete_batch``, from the full
        :class:`~repro.api.protocol.EngineProtocol`.
    max_batch:
        Dispatch granularity: a flush cuts pending requests into chunks of
        at most this many; reaching it also triggers an immediate flush.
        At ``1`` every chunk is one request; the flush cycle and its
        ordering rules are the same.
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
        #: One engine call per chunk, by kind (see :meth:`_answer`).
        self._calls: Dict[str, Callable[[List[Tuple]], List[Any]]] = {
            "get": self._get,
            "range": self._range,
            "insert": self._insert,
            "delete": self._delete,
        }

        # Pending ops: (keys, n_keys, future, t0) / (lo, hi, future, t0) /
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
        """Number of requests accepted but not yet dispatched (a get op
        counts its keys)."""
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

    def submit_get_many(self, keys) -> asyncio.Future:
        """Enqueue point lookups of ``keys`` (float64-coercible) as one op;
        resolves to their ``(values, found)`` arrays, with ``found`` false
        where a key is absent (its value slot is then unspecified).

        A key that cannot coerce raises here, before anything is queued.
        The op counts as its key count toward ``max_batch`` and in every
        stat and observed latency, is held at the write barrier when
        ``[keys.min(), keys.max()]`` overlaps the pending writes' fence,
        and is answered in the same flush and ``lookup_batch`` call as
        the cycle's other gets.
        """
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        loop = self._get_loop()
        fut = loop.create_future()
        op = (keys, keys.size, fut, self._clock())
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
            self._dispatch_cycle()
        # Requests that arrived mid-cycle scheduled their own flush (the
        # flag was cleared above); this is only a belt-and-braces rearm
        # (attributed to the timer it replaces).
        if self.pending and not self._flush_scheduled and self._timer is None:
            self._schedule_flush("timer")

    def _dispatch_cycle(self) -> None:
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
            self._dispatch_all(gets, ranges, writes, held_gets, held_ranges)
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
            self._dispatch_all(gets, ranges, writes, held_gets, held_ranges)
        if self._taillog is not None:
            # Outside the span block: the flush span has closed, so the
            # tracer ring now holds the complete trace for each mark.
            self._taillog.finalize(tracer)

    def _dispatch_all(
        self,
        gets: List[Tuple],
        ranges: List[Tuple],
        writes: List[Tuple[str, Tuple]],
        held_gets: List[Tuple],
        held_ranges: List[Tuple],
    ) -> None:
        """One cycle's dispatch sequence: reads, write runs, barriered reads."""
        self._dispatch("get", gets)
        self._dispatch("range", ranges)
        # Writes dispatch as maximal same-kind runs in submission order,
        # so an insert and a delete of the same key apply as submitted.
        for kind, run in itertools.groupby(writes, key=lambda w: w[0]):
            self._dispatch(kind, [op for _, op in run])
        # Read-your-writes: reads that overlapped the writes go last.
        self._dispatch("get", held_gets)
        self._dispatch("range", held_ranges)

    def _dispatch(self, kind: str, ops: List[Tuple]) -> None:
        """Answer one kind's ops chunk by chunk, each chunk under its own
        ``serve.dispatch`` span when tracing."""
        tel = self._telemetry
        tracer = tel.tracer if tel is not None else None
        for i in range(0, len(ops), self.max_batch):
            chunk = ops[i : i + self.max_batch]
            self._note_batch(
                kind, sum(op[1] for op in chunk) if kind == "get" else len(chunk)
            )
            if tracer is None:
                self._answer(kind, chunk)
            else:
                with tracer.span("serve.dispatch", kind=kind, n=len(chunk)):
                    self._answer(kind, chunk)

    def _answer(self, kind: str, chunk: List[Tuple]) -> None:
        """Make the chunk's one engine call and settle every op in it,
        under the module doc's failure rules."""
        call, engine = self._calls[kind], self.engine
        write = kind in _WRITES
        pre = engine.version if write and len(chunk) > 1 else None
        try:
            answers = call(chunk)
        except Exception as exc:
            if len(chunk) > 1 and (not write or engine.version == pre):
                # Provably nothing applied: retry each op alone so one
                # bad request cannot poison its batch-mates.
                self._stats["scalar_fallbacks"] += 1
                answers = [self._alone(call, op) for op in chunk]
            else:
                # The op's own failure, or a write that may have applied
                # a prefix: failing the whole chunk is the only answer
                # that cannot apply anything twice.
                answers = [_Failed(exc)] * len(chunk)
        for op, answer in zip(chunk, answers):
            fut = op[2]
            if fut.done():
                continue
            if type(answer) is _Failed:
                fut.set_exception(answer.exc)
            else:
                fut.set_result(answer)
        self._account(chunk, kind)
        if write:
            self._stats["barrier_version"] = engine.version

    @staticmethod
    def _alone(call: Callable[[List[Tuple]], List[Any]], op: Tuple) -> Any:
        """One op answered as a chunk of its own (a per-op retry)."""
        try:
            return call([op])[0]
        except Exception as exc:  # isolation by design
            return _Failed(exc)

    def _get(self, chunk: List[Tuple]) -> List[Any]:
        """Each get op's ``(values, found)`` slice of one ``lookup_batch``."""
        values, found = self.engine.lookup_batch(
            np.concatenate([op[0] for op in chunk])
        )
        ends = list(itertools.accumulate(op[1] for op in chunk))
        return [
            (values[a:b], found[a:b]) for a, b in zip([0] + ends, ends)
        ]

    def _range(self, chunk: List[Tuple]) -> List[Any]:
        """Each range op's ``(keys, values)``; a ``None`` bound is open."""
        rows = [
            (-math.inf if lo is None else lo, math.inf if hi is None else hi)
            for lo, hi, _fut, _t0 in chunk
        ]
        return self.engine.range_batch(np.asarray(rows, dtype=np.float64))

    def _insert(self, chunk: List[Tuple]) -> List[Any]:
        """Apply every insert op; each answers ``None``."""
        values = [op[1] for op in chunk]
        n_none = sum(1 for v in values if v is None)
        if 0 < n_none < len(values):
            # Mixed auto-rowid and explicit payloads cannot go through one
            # insert_batch call without changing what the engine would
            # store; raising before any write sends them per op.
            raise _MixedBatch()
        keys = np.asarray([op[0] for op in chunk], dtype=np.float64)
        self.engine.insert_batch(keys, None if n_none else values)
        return [None] * len(chunk)

    def _delete(self, chunk: List[Tuple]) -> List[Any]:
        """Each delete op's removed value; an absent key fails only its
        own op, with a ``KeyNotFoundError``."""
        results = self.engine.delete_batch(
            np.asarray([op[0] for op in chunk], dtype=np.float64),
            missing="ignore",
            default=_MISS,
        )
        return [
            _Failed(KeyNotFoundError(op[0])) if value is _MISS else value
            for op, value in zip(chunk, results)
        ]

    def _note_batch(self, kind: str, size: int) -> None:
        self._stats["batches"][kind] += 1
        if size > self._stats["max_batch_observed"]:
            self._stats["max_batch_observed"] = size

    def _account(self, ops, kind: str) -> None:
        """Count completed ops and report their latencies to the observer
        and the slow-op log, once per key for a get.

        The single ``clock()`` here is accurate because batch-mates
        complete at the same instant by construction.
        """
        widths = [op[1] for op in ops] if kind == "get" else None
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
            # op[0] is the key (or a get's key array, or a range's lo
            # bound) — enough for the slow record to carry its key range.
            keys = [op[0] for op in ops]
            if widths is not None:
                keys = np.concatenate(keys)
            ctx = self._telemetry.ctx()
            taillog.observe(
                kind,
                np.asarray(latencies, dtype=np.float64) * 1e6,
                trace_id=None if ctx is None else ctx[0],
                keys=keys,
            )


class _MixedBatch(Exception):
    """Internal: route a mixed None/explicit-value insert chunk to the
    per-op retry (never escapes :meth:`RequestBatcher._answer`)."""
