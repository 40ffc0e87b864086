"""The asyncio serving facade: admission control + batching + stats.

:class:`Server` is what application code talks to. Each ``await
server.get(key)`` looks like a scalar request, but behind the facade a
:class:`~repro.serve.batcher.RequestBatcher` coalesces all concurrent
requests into micro-batches for the engine's vectorized verbs — the
difference between ~10us-per-op scalar Python descents and ~1us-per-op
NumPy batch passes (stackbench's ``serve.get_us.c1`` / ``.c32`` measure
it). There is one get path: :meth:`Server.get`, :meth:`Server.get_batch`
and the TCP tier's key batches are each one key-array op of the batcher,
answered ``(values, found)``, and the caller's ``default`` is applied on
this side of it.

On top of the batcher the server adds:

* **backpressure** — ``max_pending`` bounds the number of in-flight
  requests; extra arrivals either wait (default) or are rejected with
  :class:`~repro.serve.errors.ServerOverloadedError`;
* **per-op latency/throughput stats** — end-to-end latency percentiles per
  operation kind, see :meth:`Server.stats`;
* **lifecycle** — ``async with Server(engine) as s:`` or an explicit
  :meth:`close`, which drains pending requests (in-flight work completes,
  new submissions raise :class:`~repro.serve.errors.ServerClosedError`).

Every engine call runs inline on the event loop: there is one dispatch
path, and the engine only ever sees one caller.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.api.protocol import BatchEngine
from repro.core.errors import InvalidParameterError
from repro.engine.scatter import fill_default
from repro.obs import Telemetry
from repro.obs.export import snapshot as _obs_snapshot
from repro.serve.batcher import RequestBatcher
from repro.serve.errors import ServerClosedError, ServerOverloadedError
from repro.serve.sla import SlaController
from repro.serve.stats import LatencySeries

__all__ = ["Server"]


class Server:
    """Async front-end over a batch engine (see module doc).

    Parameters
    ----------
    engine:
        The index being served — anything satisfying the
        :class:`~repro.api.protocol.BatchEngine` protocol: a
        :class:`~repro.engine.ShardedEngine`, a multi-process
        :class:`~repro.cluster.ClusterEngine`, or any object with the
        same verbs.
    max_batch, max_delay, eager_flush:
        Batching knobs, passed to
        :class:`~repro.serve.batcher.RequestBatcher`; ``max_batch=1``
        dispatches every request alone, as a one-element batch of its
        kind's verb.
    max_pending:
        Backpressure bound on concurrently admitted requests (``None`` =
        unbounded).
    overload:
        What a full queue does to a new request: ``"wait"`` (default)
        suspends the caller until capacity frees, ``"reject"`` raises
        :class:`ServerOverloadedError` immediately.
    latency_window:
        Samples retained per operation kind for the percentile stats
        (at least 1).
    telemetry:
        ``None``/``"off"`` (default), ``"metrics"``, ``"full"``, or a
        :class:`repro.obs.Telemetry` instance. When left ``None`` the
        server adopts the engine's own ``telemetry`` bundle (if any), so
        ``open_server(..., telemetry="full")`` yields one shared registry
        across both layers. Enables per-op latency histograms
        (``repro_serve_latency_us``), summary/batcher registry callbacks,
        and — in ``"full"`` mode — the batcher's flush/dispatch spans
        plus the slow-op log.
    admin_port:
        When set (requires telemetry), ``async with`` starts a live
        :class:`repro.obs.http.AdminServer` on this port (``0`` = pick a
        free one, readable from ``server.admin.port``) exposing
        ``/metrics``, ``/stats``, ``/slow`` and ``/workload``; it is
        shut down by :meth:`close`.
    admin_host:
        Bind address for the admin endpoint (default loopback).
    sla_target_p99_us:
        When set, an :class:`~repro.serve.sla.SlaController` adapts the
        batcher's ``max_delay`` online so the windowed end-to-end p99
        tracks this target (microseconds). The control task starts with
        ``async with`` (or :meth:`start_sla`) and stops on :meth:`close`;
        the adapted state is reported under ``stats()["sla"]``.
    sla_interval:
        Seconds between SLA control decisions (default 50ms).
    """

    def __init__(
        self,
        engine: BatchEngine,
        *,
        max_batch: int = 1024,
        max_delay: float = 0.002,
        eager_flush: bool = True,
        max_pending: Optional[int] = None,
        overload: str = "wait",
        latency_window: int = 100_000,
        telemetry: Any = None,
        admin_port: Optional[int] = None,
        admin_host: str = "127.0.0.1",
        sla_target_p99_us: Optional[float] = None,
        sla_interval: float = 0.05,
    ) -> None:
        if overload not in ("wait", "reject"):
            raise InvalidParameterError(
                f"overload must be 'wait' or 'reject', got {overload!r}"
            )
        if max_pending is not None and max_pending < 1:
            raise InvalidParameterError(
                f"max_pending must be >= 1 or None, got {max_pending}"
            )
        if latency_window < 1:
            raise InvalidParameterError(
                f"latency_window must be >= 1, got {latency_window}"
            )
        self.engine = engine
        if telemetry is None:
            # Adopt the engine's bundle so open_server() shares one
            # registry across the serve and engine layers.
            telemetry = getattr(engine, "telemetry", None)
        self.telemetry = Telemetry.from_mode(telemetry)
        self._latency: Dict[str, LatencySeries] = {
            kind: LatencySeries(latency_window)
            for kind in ("get", "range", "insert", "delete")
        }
        self._obs_hist: Optional[Dict[str, Any]] = None
        if self.telemetry is not None:
            hist = self.telemetry.registry.histogram(
                "repro_serve_latency_us",
                help="End-to-end request latency per op kind (microseconds).",
                labels=("op",),
            )
            self._obs_hist = {kind: hist.labels(kind) for kind in self._latency}
            self.telemetry.registry.register_callback(
                "repro_serve_latency_summary_us",
                self._collect_latency,
                help="Windowed latency percentiles per op kind.",
                labels=("op", "stat"),
            )
        self._batcher = RequestBatcher(
            engine,
            max_batch=max_batch,
            max_delay=max_delay,
            eager_flush=eager_flush,
            observer=self._observe,
            telemetry=self.telemetry,
        )
        self._sla: Optional[SlaController] = None
        if sla_target_p99_us is not None:
            self._sla = SlaController(
                self._batcher, sla_target_p99_us, interval=sla_interval
            )
        #: Callable returning the network tier's counters, set by a
        #: :class:`repro.net.server.NetServer` riding on this server;
        #: surfaces as ``stats()["net"]``.
        self.net_stats_provider: Optional[Any] = None
        if admin_port is not None and self.telemetry is None:
            raise InvalidParameterError(
                "admin_port requires telemetry (the endpoint serves the "
                "telemetry bundle's registry)"
            )
        self._admin_port = admin_port
        self._admin_host = admin_host
        #: The running admin endpoint (after ``__aenter__``), or ``None``.
        self.admin: Any = None
        self._max_pending = max_pending
        self._overload = overload
        # Created lazily on first bounded admission: on Python 3.9 an
        # asyncio.Semaphore built outside a running loop binds the wrong
        # loop.
        self._sem: Optional[asyncio.Semaphore] = None
        self._in_flight = 0
        self._rejected = 0
        self._closed = False
        self._t_start = time.perf_counter()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    async def close(self) -> None:
        """Drain pending requests and stop accepting new ones.

        Idempotent. Requests already admitted complete normally (their
        futures resolve during the drain); submissions after this call
        raise :class:`ServerClosedError`.
        """
        if self._closed:
            return
        self._closed = True
        if self._sla is not None:
            self._sla.stop()
        if self.admin is not None:
            await self.admin.close()
            self.admin = None
        await self._batcher.drain()

    async def __aenter__(self) -> "Server":
        await self.start_admin()
        self.start_sla()
        return self

    def start_sla(self) -> None:
        """Start the SLA control task if a target was configured.

        Idempotent; called automatically by ``async with`` (and by the
        TCP adapter's ``start()``). Requires a running event loop.
        """
        if self._sla is not None:
            self._sla.start()

    async def start_admin(self) -> Optional[Any]:
        """Start the admin endpoint if ``admin_port`` was configured.

        Idempotent; called automatically by ``async with``. Useful
        directly when the server is managed without the context manager.

        Returns
        -------
        AdminServer or None
            The running endpoint, or ``None`` when no ``admin_port`` was
            configured.
        """
        if self._admin_port is None or self.admin is not None:
            return self.admin
        from repro.obs.http import AdminServer

        self.admin = await AdminServer(
            self.telemetry,
            server=self,
            host=self._admin_host,
            port=self._admin_port,
        ).start()
        return self.admin

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------

    async def _acquire(self) -> None:
        # Slow path, taken only when admission is bounded (max_pending);
        # the unbounded fast path is inlined in each operation to keep
        # per-request overhead down.
        if self._overload == "reject":
            if self._in_flight >= self._max_pending:  # type: ignore[operator]
                self._rejected += 1
                raise ServerOverloadedError(
                    f"{self._in_flight} requests in flight >= "
                    f"max_pending={self._max_pending}"
                )
        else:
            if self._sem is None:
                self._sem = asyncio.Semaphore(self._max_pending)
            await self._sem.acquire()
            if self._closed:  # closed while we were queued
                self._sem.release()
                raise ServerClosedError("server is closed")

    def _release(self) -> None:
        self._in_flight -= 1
        if self._sem is not None:
            self._sem.release()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    async def get(self, key: Any, default: Any = None) -> Any:
        """Point lookup: the value under ``key`` as a plain Python value,
        or this very ``default`` object on a miss.

        A one-key :meth:`get_many`, with ``default`` applied here; results
        equal ``engine.get(key, default)`` — the batch dispatch is an
        execution strategy, not a semantic change.
        """
        values, found = await self.get_many([key])
        return values.tolist()[0] if found[0] else default

    def get_many(self, keys) -> Any:
        """Point lookups of ``keys`` as one batcher op: awaitable of the
        ``(values, found)`` arrays, ``found`` false where a key is absent
        (its value slot is then unspecified).

        The one get verb every other get rides: :meth:`get`,
        :meth:`get_batch` and the TCP tier's key-batch frames. Fenced,
        flushed and counted like that many ``get`` s (see
        :meth:`~repro.serve.batcher.RequestBatcher.submit_get_many`).
        Unbounded servers hand back the batcher's future directly (one
        less coroutine frame on the hot path); bounded ones go through
        the admission coroutine.
        """
        if self._closed:
            raise ServerClosedError("server is closed")
        if self._max_pending is None:
            return self._batcher.submit_get_many(keys)
        return self._bounded(self._batcher.submit_get_many, keys)

    def range(self, lo: float, hi: float) -> Any:
        """Range scan: awaitable of the ``(keys, values)`` arrays with
        ``lo <= key <= hi``."""
        if self._closed:
            raise ServerClosedError("server is closed")
        if self._max_pending is None:
            return self._batcher.submit_range(lo, hi)
        return self._bounded(self._batcher.submit_range, lo, hi)

    def insert(self, key: float, value: Any = None) -> Any:
        """Insert ``key -> value``: awaitable resolving once the write is
        applied (auto row id when ``value`` is None on an auto-rowid
        engine).

        A subsequent ``get``/``range`` touching this key is guaranteed to
        observe the write (read-your-writes, enforced by the batcher's
        insert fence)."""
        if self._closed:
            raise ServerClosedError("server is closed")
        if self._max_pending is None:
            return self._batcher.submit_insert(key, value)
        return self._bounded(self._batcher.submit_insert, key, value)

    def delete(self, key: float) -> Any:
        """Delete one occurrence of ``key``: awaitable of its value.

        Coalesced through the batcher's ``delete_batch`` dispatch under
        the same read-your-writes fence as inserts: a subsequent
        ``get``/``range`` touching this key is guaranteed not to observe
        the removed occurrence. An absent key rejects only this caller's
        awaitable with :class:`~repro.core.errors.KeyNotFoundError`."""
        if self._closed:
            raise ServerClosedError("server is closed")
        if self._max_pending is None:
            return self._batcher.submit_delete(key)
        return self._bounded(self._batcher.submit_delete, key)

    async def _bounded(self, submit: Any, *args: Any) -> Any:
        """Admission-controlled submission (only built when ``max_pending``
        is set)."""
        await self._acquire()
        self._in_flight += 1
        try:
            return await submit(*args)
        finally:
            self._release()

    # ------------------------------------------------------------------
    # Batch verbs (pre-assembled batches, dispatched whole)
    # ------------------------------------------------------------------
    #
    # These exist for callers that already hold a whole batch — the TCP
    # tier's batch frames, the router's scatter legs. ``get_batch`` is
    # one get op of the batcher (get_many), so it passes the
    # read-your-writes fence and is counted per key. ``range_batch``,
    # ``insert_batch`` and ``delete_batch`` call the engine inline and do
    # NOT pass the fence: each is ordered against per-request traffic
    # only by its own await — submit it after the writes it must observe
    # have resolved.

    async def get_batch(self, queries, default: Any = None):
        """Vectorized point lookups for a pre-assembled query batch.

        Parameters
        ----------
        queries:
            Array-like of keys to look up.
        default:
            Value reported for absent keys.

        Returns
        -------
        numpy.ndarray
            One value (or ``default``) per query, in query order —
            identical to ``engine.get_batch(queries, default)``.
        """
        return fill_default(*await self.get_many(queries), default)

    async def range_batch(self, bounds):
        """Batched range scans over ``[lo, hi]`` bound rows.

        Parameters
        ----------
        bounds:
            Array-like of shape ``(n, 2)``: inclusive ``[lo, hi]`` rows.

        Returns
        -------
        list of (numpy.ndarray, numpy.ndarray)
            One ``(keys, values)`` pair per row, as the engine returns.
        """
        if self._closed:
            raise ServerClosedError("server is closed")
        return self.engine.range_batch(bounds)

    async def insert_batch(self, keys, values=None) -> None:
        """Bulk insert of a pre-assembled key (and optional value) batch.

        Parameters
        ----------
        keys:
            Array-like of keys to insert.
        values:
            Optional payloads aligned with ``keys`` (``None`` = auto row
            ids).
        """
        if self._closed:
            raise ServerClosedError("server is closed")
        return self.engine.insert_batch(keys, values)

    async def delete_batch(self, keys):
        """Bulk delete of a pre-assembled key batch (``missing="raise"``).

        Parameters
        ----------
        keys:
            Array-like of keys to delete (one occurrence each).

        Returns
        -------
        numpy.ndarray
            The deleted values, in key order.
        """
        if self._closed:
            raise ServerClosedError("server is closed")
        return self.engine.delete_batch(keys)

    async def warm(self) -> None:
        """Pre-build the engine's read-path snapshots before taking traffic.

        Delegates to ``engine.warm()`` (a no-op for engines without one).
        """
        fn = getattr(self.engine, "warm", None)
        if fn is not None:
            fn()

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def _observe(self, kind: str, latencies) -> None:
        self._latency[kind].extend(latencies)
        if self._sla is not None:
            self._sla.observe(latencies)
        if self._obs_hist is not None:
            self._obs_hist[kind].observe_many(
                np.asarray(latencies, dtype=np.float64) * 1e6
            )

    def _collect_latency(self) -> Dict[Tuple[str, str], float]:
        """Flatten the per-kind latency summaries for the metrics callback."""
        out: Dict[Tuple[str, str], float] = {}
        for kind, series in self._latency.items():
            for stat, value in series.summary().items():
                out[(kind, stat)] = float(value)
        return out

    def stats(self) -> Dict[str, Any]:
        """Serving-layer statistics.

        Returns
        -------
        dict
            ``uptime_seconds``, completed request counts and end-to-end
            latency percentiles per kind (``latency``), overall
            ``throughput_ops_per_s``, admission counters (``in_flight``
            counts bounded-admission requests; unbounded servers track
            queue depth as ``batcher.pending``), ``rejected``, the
            batcher's dispatch counters (``batcher``: flushes, flush
            reasons, batch sizes, fallbacks, barrier holds), the engine's
            current ``engine_version`` stamp when the engine exposes one,
            the engine's own unified ``stats()`` dict under ``engine``
            (``None`` for engines without one), and — when telemetry is
            enabled — a registry snapshot under ``telemetry`` (``None``
            when off). When an SLA target is configured the controller's
            state appears under ``sla``; when a TCP adapter rides on this
            server its counters appear under ``net`` (both ``None``
            otherwise).
        """
        uptime = time.perf_counter() - self._t_start
        completed = sum(self._batcher.stats()["ops"].values())
        engine_stats = None
        stats_fn = getattr(self.engine, "stats", None)
        if stats_fn is not None:
            try:
                engine_stats = stats_fn()
            except Exception as exc:  # e.g. a ClusterEngine already closed
                engine_stats = {"error": repr(exc)}
        telemetry_stats = None
        tel = self.telemetry
        if tel is not None:
            telemetry_stats = _obs_snapshot(tel.registry)
            telemetry_stats["mode"] = tel.mode
            if tel.tracer is not None:
                telemetry_stats["trace"] = {
                    "capacity": tel.tracer.capacity,
                    "dropped": tel.tracer.dropped,
                    "buffered": len(tel.tracer.spans()),
                }
        return {
            "uptime_seconds": round(uptime, 3),
            "completed": completed,
            "throughput_ops_per_s": round(completed / uptime, 1) if uptime else 0.0,
            "in_flight": self._in_flight,
            "rejected": self._rejected,
            "max_pending": self._max_pending,
            "overload": self._overload,
            "latency": {k: s.summary() for k, s in self._latency.items()},
            "batcher": self._batcher.stats(),
            "engine_version": getattr(self.engine, "version", None),
            "engine": engine_stats,
            "telemetry": telemetry_stats,
            "sla": None if self._sla is None else self._sla.stats(),
            "net": (
                None
                if self.net_stats_provider is None
                else self.net_stats_provider()
            ),
        }
