"""The asyncio TCP adapter: the transport-agnostic ``Server`` on a socket.

:class:`NetServer` owns a listening socket and feeds decoded request
frames into an existing :class:`repro.serve.Server` — the same admission
control, the same :class:`~repro.serve.batcher.RequestBatcher`
micro-batching, the same stats. Scalar frames go through the batcher's
coalescing submit path (so concurrent remote clients batch together
exactly like concurrent local coroutines); batch frames dispatch whole
through the server's batch verbs.

Per connection:

* **pipelining** — every request frame carries a ``request_id``; replies
  are written as each completes, possibly out of order, and the client
  matches them back up.
* **backpressure** — at most ``max_inflight`` request frames are being
  served per connection; beyond that the reader stops pulling bytes and
  TCP flow control pushes back on the client.
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
from typing import Any, Dict, Optional, Set, Tuple

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


class _Conn:
    """Per-connection state: streams plus the in-flight task set."""

    __slots__ = ("reader", "writer", "tasks", "peer")

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.tasks: Set[asyncio.Task] = set()
        try:
            self.peer = writer.get_extra_info("peername")
        except Exception:
            self.peer = None


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
        self._srv = await asyncio.start_server(
            self._handle, self.host, self._requested_port
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
            await self._srv.wait_closed()
            self._srv = None
        for conn in list(self._conns):
            await self._drain_conn(conn)
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
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        conn = _Conn(reader, writer)
        self._conns.add(conn)
        self._counters["connections_opened"] += 1
        self._counters["connections_active"] += 1
        if self._obs_conns is not None:
            self._obs_conns.inc(1)
        sem = asyncio.Semaphore(self.max_inflight)
        loop = asyncio.get_running_loop()
        try:
            while not self._closed:
                try:
                    frame = await wire.read_frame(
                        reader, max_bytes=self.max_frame_bytes
                    )
                except FrameCorruptError as exc:
                    # The stream is still framed: reject just this frame.
                    self._counters["frames_corrupt"] += 1
                    self._write(conn, wire.encode_error(0, exc))
                    continue
                except FrameError as exc:
                    # Desynchronized stream: report once, then hang up.
                    self._counters["frames_bad"] += 1
                    self._write(conn, wire.encode_error(0, exc))
                    break
                except (asyncio.IncompleteReadError, ConnectionError,
                        OSError):
                    break  # peer went away (possibly mid-frame)
                self._counters["frames_in"] += 1
                self._counters["bytes_in"] += frame.wire_bytes
                if self._obs_frames is not None:
                    self._obs_frames["in"].inc(1)
                await sem.acquire()  # per-connection backpressure
                task = loop.create_task(self._serve_one(conn, frame))
                conn.tasks.add(task)
                task.add_done_callback(
                    lambda t, c=conn, s=sem: (c.tasks.discard(t), s.release())
                )
        finally:
            await self._drain_conn(conn)
            self._conns.discard(conn)
            self._counters["connections_active"] -= 1
            if self._obs_conns is not None:
                self._obs_conns.inc(-1)

    async def _drain_conn(self, conn: _Conn) -> None:
        if conn.tasks:
            await asyncio.wait(set(conn.tasks), timeout=self.drain_timeout)
        try:
            conn.writer.close()
            await conn.writer.wait_closed()
        except (ConnectionError, OSError, RuntimeError):
            pass

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    async def _serve_one(self, conn: _Conn, frame: wire.Frame) -> None:
        trace = frame.meta.get("trace")
        tracer = (
            self.server.telemetry.tracer
            if self.server.telemetry is not None
            else None
        )
        t0 = time.perf_counter()
        try:
            if tracer is not None and trace is not None:
                with tracer.attach((trace[0], trace[1])):
                    value = await self._apply(frame)
            else:
                value = await self._apply(frame)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            self._counters["errors"] += 1
            self._write(conn, wire.encode_error(frame.request_id, exc))
            return
        meta, arrays = wire.encode_result(value)
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
            meta["spans"] = [rec]
        self._write(conn, wire.encode_frame(
            wire.REPLY_OK, frame.request_id, meta, arrays
        ))

    def _write(self, conn: _Conn, buf: bytes) -> None:
        """Queue one encoded frame on the connection (single write call,
        so concurrent completions never interleave bytes)."""
        try:
            conn.writer.write(buf)
        except (ConnectionError, OSError, RuntimeError):
            return  # reply unroutable: the peer is gone
        self._counters["frames_out"] += 1
        self._counters["bytes_out"] += len(buf)
        if self._obs_frames is not None:
            self._obs_frames["out"].inc(1)

    async def _apply(self, frame: wire.Frame) -> Any:
        """Map one request frame onto the serve layer's verbs."""
        meta, arrays = frame.meta, frame.arrays
        kind = frame.kind
        srv = self.server
        if kind == wire.OP_GET:
            return await srv.get(meta["key"], meta.get("default"))
        if kind == wire.OP_RANGE:
            return await srv.range(meta["lo"], meta["hi"])
        if kind == wire.OP_INSERT:
            return await srv.insert(meta["key"], meta.get("value"))
        if kind == wire.OP_DELETE:
            return await srv.delete(meta["key"])
        if kind == wire.OP_GET_BATCH:
            return await srv.get_batch(arrays[0], meta.get("default"))
        if kind == wire.OP_RANGE_BATCH:
            # Rows travel flattened; an odd-length payload cannot be
            # re-paired and fails the shared bounds check as it stands.
            flat = arrays[0]
            return await srv.range_batch(
                check_bounds(flat if flat.size % 2 else flat.reshape(-1, 2))
            )
        if kind == wire.OP_INSERT_BATCH:
            # Writable copies: wire views are read-only and the engine's
            # bulk-write paths are free to sort in place.
            keys = np.array(arrays[0])
            values = np.array(arrays[1]) if len(arrays) > 1 else None
            return await srv.insert_batch(keys, values)
        if kind == wire.OP_DELETE_BATCH:
            return await srv.delete_batch(np.array(arrays[0]))
        if kind == wire.OP_PING:
            return {"pong": True, "pid": os.getpid()}
        if kind == wire.OP_STATS:
            return srv.stats()
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
