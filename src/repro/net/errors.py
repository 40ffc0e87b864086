"""Typed failures of the network serving tier.

The wire protocol distinguishes three failure families:

* **Application errors** — the engine or serve layer rejected the request
  (``KeyNotFoundError``, ``ServerOverloadedError``, ...). These cross the
  socket as typed error frames and are re-raised client-side as the same
  class (see :mod:`repro.net.frame`); they are *not* defined here.
* **Transport errors** — the connection or the frame stream itself failed.
  Those are the classes below: they mean the bytes never arrived, arrived
  corrupted, or the peer vanished, and say nothing about engine state.
* **Routing errors** — a :class:`~repro.net.router.Router` could not reach
  the backend owning a key range (:class:`BackendDownError`).

Off the wire, a :class:`~repro.net.boot.TcpCluster` backend process that
never came up raises :class:`BackendBootError`.

All derive from :class:`repro.core.errors.ReproError` so package-wide
``except ReproError`` handlers keep working.
"""

from __future__ import annotations

from repro.core.errors import ReproError

__all__ = [
    "NetError",
    "FrameError",
    "FrameCorruptError",
    "ConnectionLostError",
    "RequestTimeoutError",
    "BackendDownError",
    "BackendBootError",
    "RemoteError",
]


class NetError(ReproError, RuntimeError):
    """Base class for network-tier transport and routing failures."""


class FrameError(NetError, ValueError):
    """The byte stream is not a valid frame stream (bad magic, an
    unsupported protocol version, or an over-limit frame length).

    Unlike :class:`FrameCorruptError` the stream position after this
    error is unknown, so the connection must be torn down.
    """


class FrameCorruptError(FrameError):
    """One frame's body failed its CRC check.

    The length prefix was intact, so the reader consumed exactly one
    frame and the stream stays synchronized — the connection survives and
    only the damaged frame is lost. Servers answer it with a typed error
    frame (request id 0, since the body was unreadable).
    """


class ConnectionLostError(NetError, ConnectionError):
    """The TCP connection died while requests were in flight.

    Raised for every request pending on the dead connection. Reads may be
    retried safely (the client does so automatically, bounded, with
    backoff); writes may or may not have been applied — callers must
    re-check, mirroring :class:`repro.cluster.errors.WorkerCrashedError`
    semantics.
    """


class RequestTimeoutError(NetError, TimeoutError):
    """No reply frame arrived within the client's per-request timeout.

    The request may still complete on the server after the deadline, so
    only idempotent operations (reads) are retried automatically.
    """


class BackendDownError(NetError):
    """The router has ejected the backend owning this key's range.

    Carries ``address`` (``(host, port)``) and ``backend`` (its index in
    the router's backend list). Requests routed to healthy backends keep
    completing; this range stays unavailable until a health probe
    re-admits the backend.
    """

    def __init__(self, backend: int, address, detail: str = "") -> None:
        self.backend = backend
        self.address = tuple(address)
        message = f"backend {backend} at {self.address} is down"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class BackendBootError(NetError):
    """A backend process of a :class:`~repro.net.boot.TcpCluster` failed
    to boot.

    Carries ``backend`` (its index in the fleet), ``error`` (the exception
    the child raised while building its engine, else ``None``) and
    ``exitcode`` (the child's exit code when it died before answering,
    else ``None``). Every backend the failed ``start``/``restart`` call
    started is stopped before this is raised.
    """

    def __init__(
        self, backend: int, *, error=None, exitcode=None, detail: str = ""
    ) -> None:
        self.backend = backend
        self.error = error
        self.exitcode = exitcode
        message = f"backend {backend} failed to boot"
        if error is not None:
            message += f": {type(error).__name__}: {error}"
        if exitcode is not None:
            message += f" (exitcode={exitcode})"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class RemoteError(NetError):
    """The server reported an exception type this client cannot map.

    Carries ``remote_type`` (the server-side class name) and the remote
    message; raised when an error frame names a class outside the typed
    registry in :mod:`repro.net.frame`.
    """

    def __init__(self, remote_type: str, message: str) -> None:
        self.remote_type = remote_type
        super().__init__(f"{remote_type}: {message}")
