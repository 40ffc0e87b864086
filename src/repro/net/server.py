"""The asyncio TCP adapter: the transport-agnostic ``Server`` on a socket.

:class:`NetServer` owns a listening socket and feeds decoded request
frames into an existing :class:`repro.serve.Server` — the same admission
control, the same :class:`~repro.serve.batcher.RequestBatcher`
micro-batching, the same stats. Scalar frames go through the batcher's
coalescing submit path (so concurrent remote clients batch together
exactly like concurrent local coroutines); batch frames dispatch whole
through the server's batch verbs.

Per connection, one :class:`asyncio.Protocol` pump:

* **one parse per wake-up** — every socket read is parsed for all the
  frames it completed. A scalar frame is submitted to the batcher right
  there and answered from the returned future's callback (no task), so
  one segment's frames land in one flush; batch, control and traced
  frames — and a verb that hands back a coroutine — are served in a task.
* **pipelining, one write per tick** — replies are matched by
  ``request_id``, possibly out of order; everything completed in one loop
  iteration leaves in one ``transport.write``.
* **backpressure** — exactly ``max_inflight`` request frames at most are
  being served per connection; at the bound parsing stops, reading
  pauses, and TCP flow control pushes back on the client.
* **failure isolation** — a CRC-corrupt frame is answered with a typed
  error frame (request id 0) and the connection keeps serving; a
  mid-frame disconnect just ends the connection, completing in-flight
  work whose replies are then unroutable.
* **graceful drain** — :meth:`NetServer.close` stops the listener, waits
  (bounded) for every in-flight request to finish and its reply to flush,
  then drains the underlying serve layer.

Trace context in a request frame (``meta["trace"]``) is adopted for the
handling task and a ``net.request`` span record — carrying this process's
pid — rides back in the reply for the client to ingest, the same
parent-stitching contract the cluster workers use across the shm
boundary.
"""

from __future__ import annotations

import asyncio
import os
import time
from functools import partial
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.engine.scatter import check_bounds
from repro.net import frame as wire
from repro.net.errors import FrameCorruptError, FrameError
from repro.obs.trace import span_record
from repro.serve.server import Server

__all__ = ["NetServer", "serve_tcp"]

#: Default per-connection in-flight request bound.
DEFAULT_MAX_INFLIGHT = 64

_SCALAR_VERBS = frozenset(
    (wire.OP_GET, wire.OP_RANGE, wire.OP_INSERT, wire.OP_DELETE)
)


async def _ready(value: Any) -> Any:
    """An awaitable of a value already in hand (ping and stats replies)."""
    return value


class _Conn(asyncio.Protocol):
    """One connection's pump: parse what arrived, dispatch, answer a tick
    of completions with one write."""

    def __init__(self, net: "NetServer") -> None:
        self.net = net
        self.loop = asyncio.get_running_loop()
        self.parser = wire.FrameParser(net.max_frame_bytes)
        self.transport: Any = None
        self.inflight = 0  # request frames being served, <= max_inflight
        self.tasks: Set[asyncio.Task] = set()
        self.out: List[bytes] = []  # replies awaiting this tick's write
        #: No further frame is parsed; the socket closes once in-flight
        #: work has been answered (peer EOF, desync, server drain).
        self.closing = False
        self.closed = self.loop.create_future()  # set by connection_lost

    def connection_made(self, transport) -> None:
        """Register the accepted connection with its server."""
        self.transport = transport
        self.net._conns.add(self)
        self.net._counters["connections_opened"] += 1
        self._count_active(1)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        """The socket is gone (possibly mid-frame): in-flight work
        completes, its replies are unroutable."""
        self.closing = True
        self.net._conns.discard(self)
        self._count_active(-1)
        self.closed.set_result(None)

    def _count_active(self, step: int) -> None:
        self.net._counters["connections_active"] += step
        if self.net._obs_conns is not None:
            self.net._obs_conns.inc(step)

    def eof_received(self) -> bool:
        """The peer finished sending: what it already asked for is still
        answered, then the socket closes."""
        self.finish()
        return True

    def data_received(self, data: bytes) -> None:
        """Buffer one socket read and serve every frame it completed."""
        self.net._counters["reads_in"] += 1
        self.parser.feed(data)
        self._pump()

    def _pump(self) -> None:
        """Dispatch buffered frames up to the in-flight bound. At the
        bound the rest stays in the parser (and, beyond it, in the
        kernel: reading pauses) until a reply completes."""
        net, counters = self.net, self.net._counters
        while not self.closing and self.inflight < net.max_inflight:
            try:
                frame = self.parser.next()
            except FrameError as exc:
                self.send(wire.encode_error(0, exc))
                if isinstance(exc, FrameCorruptError):
                    # The stream is still framed: reject just this frame.
                    counters["frames_corrupt"] += 1
                    continue
                # Desynchronized stream: report once, then hang up.
                counters["frames_bad"] += 1
                return self.finish()
            if frame is None:
                return self.transport.resume_reading()
            counters["frames_in"] += 1
            counters["bytes_in"] += frame.wire_bytes
            if net._obs_frames is not None:
                net._obs_frames["in"].inc(1)
            self._dispatch(frame)
        self.transport.pause_reading()

    def _dispatch(self, frame: wire.Frame) -> None:
        pending = None
        if frame.kind in _SCALAR_VERBS and "trace" not in frame.meta:
            # Submit to the batcher right here, so one segment's frames
            # land in one flush, and answer from the future's own
            # callback — no task.
            try:
                pending = self.net._apply(frame)
            except Exception as exc:
                return self.send_error(frame.request_id, exc)
        self.inflight += 1
        if isinstance(pending, asyncio.Future):
            pending.add_done_callback(partial(self._answer, frame.request_id))
            return
        # Everything else — batch and control frames, traced requests, a
        # verb behind bounded admission or a proxy — awaits in a task.
        task = self.loop.create_task(self.net._serve_one(self, frame, pending))
        self.tasks.add(task)
        task.add_done_callback(self._completed)

    def _answer(self, request_id: int, fut: asyncio.Future) -> None:
        try:
            self.send_result(request_id, fut.result())
        except (Exception, asyncio.CancelledError) as exc:
            self.send_error(request_id, exc)
        self._completed(fut)

    def _completed(self, done: asyncio.Future) -> None:
        """One in-flight request was answered: close, or resume the pump."""
        self.tasks.discard(done)
        self.inflight -= 1
        if self.closing:
            self.finish()
        elif self.inflight == self.net.max_inflight - 1:
            self._pump()

    def send_result(self, request_id: int, value: Any, spans=None) -> None:
        """Queue the ``REPLY_OK`` frame for ``value``."""
        meta, arrays = wire.encode_result(value)
        if spans:
            meta["spans"] = spans
        self.send(wire.encode_frame(wire.REPLY_OK, request_id, meta, arrays))

    def send_error(self, request_id: int, exc: BaseException) -> None:
        """Queue the typed ``REPLY_ERR`` frame for a failed request."""
        self.net._counters["errors"] += 1
        self.send(wire.encode_error(request_id, exc))

    def send(self, buf: bytes) -> None:
        """Queue one encoded frame; everything queued in this loop
        iteration leaves in one write on the next."""
        if not self.out:
            self.loop.call_soon(self._flush)
        self.out.append(buf)

    def _flush(self) -> None:
        out, counters = self.out, self.net._counters
        if out and not self.transport.is_closing():
            data = b"".join(out)
            self.transport.write(data)
            counters["writes_out"] += 1
            counters["frames_out"] += len(out)
            counters["bytes_out"] += len(data)
            if self.net._obs_frames is not None:
                self.net._obs_frames["out"].inc(len(out))
        out.clear()  # written, or unroutable: the peer is gone

    def finish(self) -> None:
        """Stop taking requests; once none is in flight, flush and close
        (``transport.close`` still sends what is buffered)."""
        self.closing = True
        self.transport.pause_reading()
        if not self.inflight:
            self._flush()
            self.transport.close()


class NetServer:
    """TCP front door for one :class:`repro.serve.Server`.

    Parameters
    ----------
    server:
        The serve-layer facade to expose. Entering the adapter enters the
        server too (admin endpoint, SLA controller); closing the adapter
        closes it. The engine's lifecycle stays with the caller, exactly
        as for a bare ``Server``.
    host, port:
        Listen address; ``port=0`` picks a free port (read it from
        :attr:`port` after :meth:`start`).
    max_inflight:
        Per-connection backpressure bound (concurrently served frames).
    max_frame_bytes:
        Reject request frames with bodies larger than this.
    drain_timeout:
        Seconds :meth:`close` waits for each connection's in-flight
        requests before forcing the socket shut.
    """

    def __init__(
        self,
        server: Server,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        max_frame_bytes: int = wire.MAX_FRAME_BYTES,
        drain_timeout: float = 10.0,
    ) -> None:
        if max_inflight < 1:
            raise InvalidParameterError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self.server = server
        self.host = host
        self._requested_port = int(port)
        self.max_inflight = int(max_inflight)
        self.max_frame_bytes = int(max_frame_bytes)
        self.drain_timeout = float(drain_timeout)
        self._srv: Optional[asyncio.AbstractServer] = None
        self._conns: Set[_Conn] = set()
        self._closed = False
        self._owns_engine = False  # set by serve_tcp, which built it
        self._counters: Dict[str, int] = {
            "connections_opened": 0,
            "connections_active": 0,
            "frames_in": 0,
            "frames_out": 0,
            "frames_corrupt": 0,
            "frames_bad": 0,
            "errors": 0,
            "bytes_in": 0,
            "bytes_out": 0,
            "reads_in": 0,
            "writes_out": 0,
        }
        self._obs_frames: Any = None
        self._obs_conns: Any = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "NetServer":
        """Bind the listener and start the underlying server; idempotent.

        Returns
        -------
        NetServer
            ``self``, listening (``async with NetServer(...)`` does this).
        """
        if self._srv is not None:
            return self
        await self.server.__aenter__()  # admin endpoint + SLA task
        self.server.net_stats_provider = self.net_stats
        tel = self.server.telemetry
        if tel is not None:
            frames = tel.registry.counter(
                "repro_net_frames_total",
                "Frames crossing the TCP tier.",
                labels=("direction",),
            )
            self._obs_frames = {
                "in": frames.labels("in"),
                "out": frames.labels("out"),
            }
            self._obs_conns = tel.registry.gauge(
                "repro_net_connections",
                "Currently open client connections.",
            ).labels()
        self._srv = await asyncio.get_running_loop().create_server(
            lambda: _Conn(self), self.host, self._requested_port
        )
        return self

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` after :meth:`start`)."""
        if self._srv is None:
            return self._requested_port
        return self._srv.sockets[0].getsockname()[1]

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` clients should connect to."""
        return (self.host, self.port)

    async def close(self) -> None:
        """Graceful drain: stop listening, finish in-flight requests
        (bounded by ``drain_timeout`` per connection), flush their
        replies, then close the underlying serve layer. Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._srv is not None:
            self._srv.close()
        for conn in list(self._conns):
            conn.finish()
            _, late = await asyncio.wait(
                {conn.closed}, timeout=self.drain_timeout
            )
            if late:
                conn.transport.abort()
        if self._srv is not None:
            await self._srv.wait_closed()
            self._srv = None
        await self.server.close()
        if self._owns_engine:
            close_fn = getattr(self.server.engine, "close", None)
            if close_fn is not None:
                close_fn()

    async def __aenter__(self) -> "NetServer":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    async def _serve_one(
        self, conn: _Conn, frame: wire.Frame, pending: Any = None
    ) -> None:
        """The task path: serve one frame the pump could not answer from
        a bare future (``pending`` is its already-submitted awaitable)."""
        trace = frame.meta.get("trace")
        tracer = (
            self.server.telemetry.tracer
            if self.server.telemetry is not None
            else None
        )
        t0 = time.perf_counter()
        try:
            if pending is not None:
                value = await pending
            elif tracer is not None and trace is not None:
                with tracer.attach((trace[0], trace[1])):
                    value = await self._apply(frame)
            else:
                value = await self._apply(frame)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            conn.send_error(frame.request_id, exc)
            return
        spans = None
        if trace is not None:
            # Ship the server-side span back for the client to ingest —
            # the same stitching contract the shm workers use.
            rec = span_record(
                "net.request",
                (str(trace[0]), str(trace[1])),
                t0,
                time.perf_counter() - t0,
                op=frame.name,
                pid=os.getpid(),
            )
            if tracer is not None:
                tracer.ingest([rec])
            spans = [rec]
        conn.send_result(frame.request_id, value, spans)

    def _apply(self, frame: wire.Frame) -> Any:
        """Map one request frame onto the serve layer's verbs: the
        awaitable of its result (scalar verbs are already submitted to
        the batcher when this returns)."""
        meta, arrays = frame.meta, frame.arrays
        kind = frame.kind
        srv = self.server
        if kind == wire.OP_GET:
            return srv.get(meta["key"], meta.get("default"))
        if kind == wire.OP_RANGE:
            return srv.range(meta["lo"], meta["hi"])
        if kind == wire.OP_INSERT:
            return srv.insert(meta["key"], meta.get("value"))
        if kind == wire.OP_DELETE:
            return srv.delete(meta["key"])
        if kind == wire.OP_GET_BATCH:
            return srv.get_batch(arrays[0], meta.get("default"))
        if kind == wire.OP_RANGE_BATCH:
            # Rows travel flattened; an odd-length payload cannot be
            # re-paired and fails the shared bounds check as it stands.
            flat = arrays[0]
            return srv.range_batch(
                check_bounds(flat if flat.size % 2 else flat.reshape(-1, 2))
            )
        if kind == wire.OP_INSERT_BATCH:
            # Writable copies: wire views are read-only and the engine's
            # bulk-write paths are free to sort in place.
            keys = np.array(arrays[0])
            values = np.array(arrays[1]) if len(arrays) > 1 else None
            return srv.insert_batch(keys, values)
        if kind == wire.OP_DELETE_BATCH:
            return srv.delete_batch(np.array(arrays[0]))
        if kind == wire.OP_PING:
            return _ready({"pong": True, "pid": os.getpid()})
        if kind == wire.OP_STATS:
            return _ready(srv.stats())
        raise InvalidParameterError(f"unknown request kind {kind}")

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def net_stats(self) -> Dict[str, Any]:
        """The network tier's counters (``Server.stats()['net']``).

        Returns
        -------
        dict
            Connection and frame counters, the listen address, and the
            batcher's current (possibly SLA-adapted) ``max_delay``.
        """
        out = dict(self._counters)
        out["listen"] = f"{self.host}:{self.port}"
        out["max_inflight"] = self.max_inflight
        out["max_delay"] = float(self.server._batcher.max_delay)
        return out


async def serve_tcp(
    keys=None,
    values=None,
    *,
    config: Any = None,
    **overrides: Any,
):
    """Open an engine + server per the config and start it on TCP.

    The one-call path from a config to a listening socket::

        net = await serve_tcp(keys, config=EngineConfig(listen=":0"))
        print(net.port)
        ...
        await net.close()

    Parameters
    ----------
    keys, values:
        Build dataset, as for :func:`repro.api.factory.open_engine`.
    config:
        An :class:`~repro.api.factory.EngineConfig`; its ``listen`` field
        ("host:port", empty host = loopback, port 0 = auto) names the
        bind address, defaulting to ``"127.0.0.1:0"`` when unset.
    **overrides:
        Individual config fields to override.

    Returns
    -------
    NetServer
        The started adapter. Closing it closes the serve layer; the
        engine (reachable as ``net.server.engine``) additionally has its
        ``close()`` called for cluster/durable backends when this
        function built it — unlike :func:`open_server`, there is no other
        handle through which the caller could own it.
    """
    from repro.api.factory import open_server

    if config is not None and not overrides and not getattr(
        config, "listen", None
    ):
        overrides = {"listen": "127.0.0.1:0"}
    elif "listen" not in overrides and not getattr(config, "listen", None):
        overrides = dict(overrides, listen="127.0.0.1:0")
    net = open_server(keys, values, config=config, **overrides)
    if not isinstance(net, NetServer):  # pragma: no cover - wiring guard
        raise InvalidParameterError("serve_tcp requires a listen address")
    net._owns_engine = True
    await net.start()
    return net
