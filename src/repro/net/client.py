"""Client library for the TCP serving tier: pooled, pipelined, retrying.

:class:`AsyncNetClient` is the native asyncio client. It holds a small
pool of connections, assigns every request a ``request_id``, and writes
frames without waiting for earlier replies — *pipelining*: any number of
requests ride one connection concurrently. Each connection is one
:class:`asyncio.Protocol` pump: the requests of one loop iteration leave
in one write, and every socket read is parsed for all the replies it
completed (which may arrive out of order), each matched back to its
future by id. Every get is a key in a key batch: the untraced ``get`` s
of one loop iteration travel as one ``CODEC_KEYS`` frame, however many
there are, answered as ``(values, found)``, and each caller's own
``default`` fills its miss on this side of the socket — a default never
crosses the wire. A traced get is a one-key ``lookup_batch``. On top sit
the reliability knobs:

* **timeouts** — every request bounds its reply wait; an expired wait
  raises :class:`~repro.net.errors.RequestTimeoutError`. One sweep timer
  per connection enforces every deadline; a reply that arrives after its
  request timed out finds no id to match and is dropped.
* **bounded retry with backoff** — *idempotent* operations (``get``,
  ``range``, the batch reads, ``ping``, ``server_stats``) are retried up
  to ``retries`` times across reconnects on connection loss or timeout.
  Each get of a key batch retries on its own.
  Writes are never auto-retried after the frame may have left: like a
  :class:`~repro.cluster.errors.WorkerCrashedError`, a lost connection
  leaves the write's fate unknown and re-issuing it could apply it twice.
* **reconnects** — a dead pool slot is re-dialed lazily with exponential
  backoff the next time the round-robin reaches it.

:class:`NetClient` wraps the async client for synchronous callers by
running a private event loop on a background thread — the blocking twin
with the same verb surface.

With ``telemetry`` in a tracing mode, every call opens a ``net.call``
span, ships its context inside the request frame, and ingests the
``net.request`` span record the server returns — so one client-side trace
tree spans the socket, foreign pids included.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import threading
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.engine.scatter import check_bounds, fill_default
from repro.net import frame as wire
from repro.net.errors import (
    ConnectionLostError,
    FrameCorruptError,
    FrameError,
    RequestTimeoutError,
)
from repro.obs import Telemetry

__all__ = ["AsyncNetClient", "NetClient", "connect"]

_NO_SPAN = contextlib.nullcontext()  # the untraced request's "span"


def _plain(value: Any) -> Any:
    """A NumPy scalar as the Python number it holds (``np.int64(5)`` is
    not JSON and would demote its whole frame to pickle)."""
    return value.item() if isinstance(value, np.generic) else value


class _Gets(list):
    """The ``(key, default, future)`` gets one request frame carries, in
    the pending table in place of a reply future: the reply answers each
    with its value or its own default; a timeout or lost connection fails
    them all."""

    def done(self) -> bool:
        """Never: it leaves the pending table when it completes."""
        return False

    def set_result(self, frame: wire.Frame) -> None:
        """Answer every get from its reply frame."""
        try:
            if frame.kind == wire.REPLY_ERR:
                raise wire.decode_error(frame)
            values, found = wire.decode_result(frame)
            if len(values) != len(self):
                raise FrameError(f"{len(values)} answers to {len(self)} gets")
            answers = [
                value if hit else get[1]
                for get, value, hit in zip(self, values.tolist(), found.tolist())
            ]
        except Exception as exc:
            return self.set_exception(exc)
        for (_, _, fut), answer in zip(self, answers):
            if not fut.done():
                fut.set_result(answer)

    def set_exception(self, exc: BaseException) -> None:
        """Fail every get still waiting with ``exc``."""
        for _, _, fut in self:
            if not fut.done():
                fut.set_exception(exc)


class _Connection(asyncio.Protocol):
    """One pooled TCP connection: the reply pump, a tick's requests in one
    write, and one deadline sweep for every request in flight."""

    def __init__(self, client: "AsyncNetClient") -> None:
        self.client = client
        self.loop = asyncio.get_running_loop()
        self.parser = wire.FrameParser(client.max_frame_bytes)
        self.transport: Any = None
        self.alive = False
        #: request id -> (reply future or _Gets, deadline, frame kind).
        self.pending: Dict[int, Tuple[Any, float, int]] = {}
        self.out: List[bytes] = []  # requests awaiting this tick's write
        self.gets = _Gets()  # this tick's gets, bound for one frame
        #: Set while the send buffer is over its high-water mark; senders
        #: wait on it instead of piling more on.
        self.drained: Optional[asyncio.Future] = None
        self._timer: Optional[asyncio.TimerHandle] = None

    def connection_made(self, transport) -> None:
        """The dial succeeded: the slot can take requests."""
        self.transport = transport
        self.alive = True

    def data_received(self, data: bytes) -> None:
        """Buffer one socket read and resolve every reply it completed."""
        counters = self.client._counters
        counters["reads_in"] += 1
        self.parser.feed(data)
        while True:
            try:
                frame = self.parser.next()
            except FrameCorruptError:
                # One damaged reply; its request will time out, the
                # stream itself stays usable.
                counters["frames_corrupt"] += 1
                continue
            except FrameError:
                return self.transport.abort()  # desynchronized: bury
            if frame is None:
                return
            counters["frames_in"] += 1
            fut = self.pending.pop(frame.request_id, (None,))[0]
            if fut is not None and not fut.done():
                fut.set_result(frame)
            elif frame.request_id == 0:
                # Server rejected an unmatchable (corrupt) frame.
                counters["rejected_frames"] += 1
            # else: a late reply to a request that already timed out.

    def pause_writing(self) -> None:
        """The send buffer passed its high-water mark: hold senders."""
        self.drained = self.loop.create_future()

    def resume_writing(self) -> None:
        """The send buffer drained: release the held senders."""
        drained, self.drained = self.drained, None
        if drained is not None:
            drained.set_result(None)

    def connection_lost(self, exc: Optional[Exception] = None) -> None:
        """Bury the connection (peer closed, reset, or a local close):
        mark it dead and fail everything waiting on it."""
        self.alive = False
        if self._timer is not None:
            self._timer.cancel()
        exc = ConnectionLostError("connection lost with requests in flight")
        for fut, _, _ in self.pending.values():
            if not fut.done():
                fut.set_exception(exc)
        self.pending.clear()
        self.out.clear()
        self.gets.set_exception(exc)
        self.gets = _Gets()
        self.resume_writing()
        self.transport.close()

    def request(self, rid: int, kind: int, buf: bytes) -> asyncio.Future:
        """Queue one encoded request (a tick's worth leaves in one write);
        returns the future of its reply frame, which the sweep fails if
        ``client.timeout`` passes first."""
        fut = self.loop.create_future()
        self._arm()
        self._register(rid, kind, fut)
        self.out.append(buf)
        return fut

    def lookup(self, key: float, default: Any) -> asyncio.Future:
        """Queue one untraced get; the future of its answer (the value, or
        ``default`` on a miss). The tick's write sends all of them."""
        fut = self.loop.create_future()
        self._arm()
        self.gets.append((key, default, fut))
        return fut

    def _arm(self) -> None:
        if not self.out and not self.gets:
            self.loop.call_soon(self._flush)

    def _register(self, rid: int, kind: int, waiter: Any) -> None:
        deadline = self.loop.time() + self.client.timeout
        self.pending[rid] = (waiter, deadline, kind)
        if self._timer is None or deadline < self._timer.when():
            self._sweep()

    def _flush(self) -> None:
        gets = self.gets
        if gets:
            self.gets = _Gets()
            rid = next(self.client._rid)
            keys = np.array([get[0] for get in gets], dtype=np.float64)
            self.out.append(
                wire.encode_frame(wire.OP_GET_BATCH, rid, None, [keys])
            )
            self._register(rid, wire.OP_GET_BATCH, gets)
        if self.out:
            self.client._counters["writes_out"] += 1
            self.client._counters["frames_out"] += len(self.out)
            self.transport.write(b"".join(self.out))
            self.out.clear()

    def _sweep(self) -> None:
        """Fail every request past its deadline, then sleep until the
        nearest one left — one timer for the whole connection."""
        if self._timer is not None:
            self._timer.cancel()
        now = self.loop.time()
        for rid, (fut, deadline, kind) in list(self.pending.items()):
            if deadline <= now:
                del self.pending[rid]
                self.client._counters["timeouts"] += 1
                if not fut.done():  # else: its caller was just cancelled
                    fut.set_exception(RequestTimeoutError(
                        f"no reply to {wire.KIND_NAMES.get(kind, kind)} "
                        f"within {self.client.timeout}s"
                    ))
        nearest = min((p[1] for p in self.pending.values()), default=None)
        self._timer = nearest and self.loop.call_at(nearest, self._sweep)


class AsyncNetClient:
    """Asyncio client for a :class:`~repro.net.server.NetServer`.

    Parameters
    ----------
    host, port:
        The server's listen address.
    pool:
        Connections to spread requests over (round-robin).
    timeout:
        Per-request reply deadline in seconds.
    retries:
        Extra attempts for idempotent operations (and for dialing).
    backoff:
        Base sleep between retries; grows linearly per attempt (and
        exponentially while re-dialing).
    max_frame_bytes:
        Reject reply frames with bodies larger than this.
    telemetry:
        ``None``/mode string/:class:`repro.obs.Telemetry`; tracing modes
        enable cross-socket span propagation.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        pool: int = 1,
        timeout: float = 5.0,
        retries: int = 2,
        backoff: float = 0.02,
        max_frame_bytes: int = wire.MAX_FRAME_BYTES,
        telemetry: Any = None,
    ) -> None:
        if pool < 1:
            raise InvalidParameterError(f"pool must be >= 1, got {pool}")
        if timeout <= 0:
            raise InvalidParameterError(f"timeout must be > 0, got {timeout}")
        if retries < 0:
            raise InvalidParameterError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.max_frame_bytes = int(max_frame_bytes)
        self.telemetry = Telemetry.from_mode(telemetry)
        self._slots: List[Optional[_Connection]] = [None] * int(pool)
        self._rr = 0
        self._rid = itertools.count(1)
        self._closed = False
        self._counters: Dict[str, int] = {
            "frames_out": 0,
            "frames_in": 0,
            "writes_out": 0,
            "reads_in": 0,
            "frames_corrupt": 0,
            "rejected_frames": 0,
            "retries": 0,
            "reconnects": 0,
            "timeouts": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def connect(self) -> "AsyncNetClient":
        """Eagerly dial the first pool slot (fail fast on a bad address).

        Returns
        -------
        AsyncNetClient
            ``self``, ready for requests.
        """
        await self._pick()
        return self

    async def close(self) -> None:
        """Tear down every pooled connection; pending requests fail."""
        self._closed = True
        for slot in self._slots:
            if slot is not None:
                slot.connection_lost()
        self._slots = [None] * len(self._slots)

    async def __aenter__(self) -> "AsyncNetClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    async def _pick(self) -> _Connection:
        """The next pool slot, round-robin; re-dialed, with exponential
        backoff, if it is not alive."""
        idx = self._rr
        self._rr = (idx + 1) % len(self._slots)
        existing = self._slots[idx]
        if existing is not None and existing.alive:
            return existing
        if self._closed:
            raise ConnectionLostError("client is closed")
        loop = asyncio.get_running_loop()
        delay = self.backoff
        last: Optional[BaseException] = None
        for _ in range(self.retries + 1):
            try:
                _, conn = await loop.create_connection(
                    lambda: _Connection(self), self.host, self.port
                )
            except OSError as exc:
                last = exc
                await asyncio.sleep(delay)
                delay *= 2
                continue
            self._slots[idx] = conn
            if existing is not None:
                self._counters["reconnects"] += 1
            return conn
        raise ConnectionLostError(
            f"cannot connect to {self.host}:{self.port}: {last!r}"
        )

    async def _roundtrip(
        self,
        kind: int,
        meta: Optional[Dict[str, Any]] = None,
        arrays: Optional[List[np.ndarray]] = None,
        *,
        idempotent: bool = False,
    ) -> Any:
        tries = (self.retries + 1) if idempotent else 1
        return await self._attempts(tries, self._exchange, kind, meta or {}, arrays)

    async def _attempts(self, tries: int, attempt: Any, *args: Any) -> Any:
        """``await attempt(*args)``, up to ``tries`` times while it loses
        its connection or times out; the backoff grows linearly."""
        last: Optional[BaseException] = None
        for n in range(tries):
            if n:
                self._counters["retries"] += 1
                await asyncio.sleep(self.backoff * n)
            try:
                return await attempt(*args)
            except (ConnectionLostError, RequestTimeoutError) as exc:
                last = exc
        assert last is not None
        raise last

    def _lookup(self, key: float, default: Any) -> Any:
        """One attempt of an untraced get, queued with the slot's tick: the
        future of its answer, with no coroutine of its own unless the slot
        must be re-dialed or its send buffer is full."""
        conn = self._slots[self._rr]
        if conn is None or not conn.alive or conn.drained is not None:
            return self._lookup_slow(key, default)
        self._rr = (self._rr + 1) % len(self._slots)
        return conn.lookup(key, default)

    async def _lookup_slow(self, key: float, default: Any) -> Any:
        conn = await self._pick()
        fut = conn.lookup(key, default)
        if conn.drained is not None:
            await conn.drained  # send buffer over high water
        return await fut

    async def _exchange(self, kind: int, meta: Dict[str, Any], arrays) -> Any:
        """One attempt: frame the request on the next pool slot, await its
        reply (or the sweep's timeout), decode."""
        conn = await self._pick()
        tracer = self.telemetry.tracer if self.telemetry is not None else None
        with _NO_SPAN if tracer is None else tracer.span(
            "net.call", op=wire.KIND_NAMES.get(kind, str(kind))
        ) as sp:
            if sp is not None:
                meta = dict(meta, trace=[sp.trace_id, sp.span_id])
            rid = next(self._rid)
            fut = conn.request(
                rid, kind, wire.encode_frame(kind, rid, meta, arrays)
            )
            try:
                if conn.drained is not None:
                    await conn.drained  # send buffer over high water
                reply = await fut
            finally:
                conn.pending.pop(rid, None)
            if reply.kind == wire.REPLY_ERR:
                raise wire.decode_error(reply)
            if sp is not None and reply.meta.get("spans"):
                tracer.ingest(reply.meta["spans"])
        return wire.decode_result(reply)

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------

    async def ping(self) -> Dict[str, Any]:
        """Liveness probe; returns the server's ``{"pong", "pid"}`` dict."""
        return await self._roundtrip(wire.OP_PING, idempotent=True)

    async def get(self, key: float, default: Any = None) -> Any:
        """Remote point lookup (idempotent: retried on transport failure).

        A miss answers with this very ``default`` object, which never
        crosses the wire. A traced get is a one-key :meth:`lookup_batch`:
        one frame under its own ``net.call`` span.
        """
        key = float(key)
        if self.telemetry is None or self.telemetry.tracer is None:
            return await self._attempts(
                self.retries + 1, self._lookup, key, default
            )
        values, found = await self.lookup_batch([key])
        return values.tolist()[0] if found[0] else default

    async def range(self, lo: float, hi: float):
        """Remote range scan: the ``(keys, values)`` arrays with
        ``lo <= key <= hi``."""
        return await self._roundtrip(
            wire.OP_RANGE, {"lo": float(lo), "hi": float(hi)},
            idempotent=True,
        )

    async def insert(self, key: float, value: Any = None) -> Any:
        """Remote insert; resolves once the write is applied and durable
        per the server's config. Not auto-retried (see module doc)."""
        return await self._roundtrip(
            wire.OP_INSERT, {"key": float(key), "value": _plain(value)}
        )

    async def delete(self, key: float) -> Any:
        """Remote delete of one occurrence of ``key``; returns its value.

        Raises :class:`~repro.core.errors.KeyNotFoundError` across the
        wire for absent keys. Not auto-retried."""
        return await self._roundtrip(wire.OP_DELETE, {"key": float(key)})

    async def lookup_batch(self, queries):
        """Remote vectorized point lookups as ``(values, found)``, the
        engine verb: one key-batch frame, served like that many gets."""
        return await self._roundtrip(
            wire.OP_GET_BATCH, {},
            [np.ascontiguousarray(queries, dtype=np.float64)], idempotent=True,
        )

    async def get_batch(self, queries, default: Any = None):
        """Remote vectorized point lookups.

        Parameters
        ----------
        queries:
            Array-like of keys (:meth:`lookup_batch`).
        default:
            Fills the misses, on this side of the socket.

        Returns
        -------
        numpy.ndarray
            One value per query, in query order.
        """
        return fill_default(*await self.lookup_batch(queries), default)

    async def range_batch(self, bounds):
        """Remote batched range scans.

        Parameters
        ----------
        bounds:
            Array-like of shape ``(n, 2)``: inclusive ``[lo, hi]`` rows.

        Returns
        -------
        list of (numpy.ndarray, numpy.ndarray)
            One ``(keys, values)`` pair per row.
        """
        arr = check_bounds(bounds)
        return await self._roundtrip(
            wire.OP_RANGE_BATCH, {}, [arr.ravel()], idempotent=True
        )

    async def insert_batch(self, keys, values=None) -> None:
        """Remote bulk insert (not auto-retried).

        Parameters
        ----------
        keys:
            Array-like of keys to insert.
        values:
            Optional numeric payloads aligned with ``keys``.
        """
        arrays = [np.ascontiguousarray(keys, dtype=np.float64)]
        if values is not None:
            arrays.append(np.ascontiguousarray(values))
        return await self._roundtrip(wire.OP_INSERT_BATCH, {}, arrays)

    async def delete_batch(self, keys):
        """Remote bulk delete (not auto-retried).

        Parameters
        ----------
        keys:
            Array-like of keys to delete (one occurrence each; any
            absent key fails the whole batch with
            :class:`~repro.core.errors.KeyNotFoundError`).

        Returns
        -------
        numpy.ndarray
            The deleted values, in key order.
        """
        return await self._roundtrip(
            wire.OP_DELETE_BATCH,
            {},
            [np.ascontiguousarray(keys, dtype=np.float64)],
        )

    async def server_stats(self) -> Dict[str, Any]:
        """The remote server's full ``stats()`` dict (idempotent)."""
        return await self._roundtrip(wire.OP_STATS, idempotent=True)

    def stats(self) -> Dict[str, Any]:
        """Client-side transport counters.

        Returns
        -------
        dict
            Frame/retry/reconnect/timeout counters plus pool geometry.
        """
        out = dict(self._counters)
        out["pool"] = len(self._slots)
        out["connected"] = sum(
            1 for s in self._slots if s is not None and s.alive
        )
        return out


async def connect(host: str, port: int, **kwargs: Any) -> AsyncNetClient:
    """Dial a :class:`~repro.net.server.NetServer` at ``host:port``: the
    connected :class:`AsyncNetClient` (``**kwargs`` go to it)."""
    return await AsyncNetClient(host, port, **kwargs).connect()


class NetClient:
    """Blocking twin of :class:`AsyncNetClient` for synchronous callers.

    Runs a private event loop on a daemon thread and proxies every verb
    through it::

        with NetClient(host, port) as client:
            value = client.get(42.0)

    Parameters
    ----------
    host, port:
        The server's listen address.
    **kwargs:
        Forwarded to :class:`AsyncNetClient`.
    """

    def __init__(self, host: str, port: int, **kwargs: Any) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-net-client",
            daemon=True,
        )
        self._thread.start()
        try:
            self._async = self._call(
                AsyncNetClient(host, port, **kwargs).connect()
            )
        except BaseException:
            self._stop_loop()
            raise

    def _call(self, coro: Any) -> Any:
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        self._loop.close()

    def close(self) -> None:
        """Close the pooled connections and stop the client thread."""
        if self._loop.is_closed():
            return
        try:
            self._call(self._async.close())
        finally:
            self._stop_loop()

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- proxied verbs -------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        """Blocking :meth:`AsyncNetClient.ping`."""
        return self._call(self._async.ping())

    def get(self, key: float, default: Any = None) -> Any:
        """Blocking :meth:`AsyncNetClient.get`."""
        return self._call(self._async.get(key, default))

    def range(self, lo: float, hi: float):
        """Blocking :meth:`AsyncNetClient.range`."""
        return self._call(self._async.range(lo, hi))

    def insert(self, key: float, value: Any = None) -> Any:
        """Blocking :meth:`AsyncNetClient.insert`."""
        return self._call(self._async.insert(key, value))

    def delete(self, key: float) -> Any:
        """Blocking :meth:`AsyncNetClient.delete`."""
        return self._call(self._async.delete(key))

    def lookup_batch(self, queries):
        """Blocking :meth:`AsyncNetClient.lookup_batch`."""
        return self._call(self._async.lookup_batch(queries))

    def get_batch(self, queries, default: Any = None):
        """Blocking :meth:`AsyncNetClient.get_batch` (same Parameters and
        Returns)."""
        return self._call(self._async.get_batch(queries, default))

    def range_batch(self, bounds):
        """Blocking :meth:`AsyncNetClient.range_batch` (same Parameters and
        Returns)."""
        return self._call(self._async.range_batch(bounds))

    def insert_batch(self, keys, values=None) -> None:
        """Blocking :meth:`AsyncNetClient.insert_batch` (same Parameters)."""
        return self._call(self._async.insert_batch(keys, values))

    def delete_batch(self, keys):
        """Blocking :meth:`AsyncNetClient.delete_batch` (same Parameters and
        Returns)."""
        return self._call(self._async.delete_batch(keys))

    def server_stats(self) -> Dict[str, Any]:
        """Blocking :meth:`AsyncNetClient.server_stats`."""
        return self._call(self._async.server_stats())

    def stats(self) -> Dict[str, Any]:
        """Client-side transport counters (:meth:`AsyncNetClient.stats`)."""
        return self._async.stats()
