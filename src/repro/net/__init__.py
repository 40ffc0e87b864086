"""Network serving tier: the engine behind a real socket.

Everything below this package is transport-agnostic — the serve layer's
:class:`~repro.serve.server.Server` batches and dispatches coroutines
in-process. This package puts a wire on it:

* :mod:`repro.net.frame` — length-prefixed, CRC-protected binary frames;
  batch payloads reuse the shared-memory lane's packed numeric-array
  encoding, so a batch crosses the socket the same way it crosses a
  process boundary.
* :mod:`repro.net.server` — the asyncio TCP adapter
  (:class:`NetServer`, :func:`serve_tcp`): every connection feeds the
  same request batcher, with per-connection backpressure, graceful
  drain, and typed error frames.
* :mod:`repro.net.client` — :class:`AsyncNetClient` / sync
  :class:`NetClient` with connection pooling, request pipelining,
  timeouts, and bounded retry for idempotent reads.
* :mod:`repro.net.router` — :class:`Router`: key-range scatter/gather
  over N backend servers, with health-probe ejection and re-admission.
* :mod:`repro.net.boot` — :class:`TcpCluster`: spawn the N backend
  processes a router fronts.

The usual entry points are config-driven:
``open_server(..., listen="host:port")`` (or
:func:`~repro.net.server.serve_tcp`) on the server side and
:func:`~repro.net.client.connect` on the client side.
"""

from repro.net.boot import TcpCluster, run_backend
from repro.net.client import AsyncNetClient, NetClient, connect
from repro.net.errors import (
    BackendBootError,
    BackendDownError,
    ConnectionLostError,
    FrameCorruptError,
    FrameError,
    NetError,
    RemoteError,
    RequestTimeoutError,
)
from repro.net.frame import (
    Frame,
    decode_frame,
    encode_frame,
    read_frame,
)
from repro.net.router import Router
from repro.net.server import NetServer, serve_tcp

__all__ = [
    "AsyncNetClient",
    "BackendBootError",
    "BackendDownError",
    "ConnectionLostError",
    "Frame",
    "FrameCorruptError",
    "FrameError",
    "NetClient",
    "NetError",
    "NetServer",
    "RemoteError",
    "RequestTimeoutError",
    "Router",
    "TcpCluster",
    "connect",
    "decode_frame",
    "encode_frame",
    "read_frame",
    "run_backend",
    "serve_tcp",
]
