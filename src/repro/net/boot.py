"""Spawn a fleet of TCP backend servers over one partitioned dataset.

:class:`TcpCluster` is the process-management half of the network tier:
it cuts the build dataset into contiguous key ranges with
:func:`repro.engine.partition.partition_cuts`, spawns one OS process per
range (each running a full engine + serve + :mod:`repro.net` stack via
:func:`~repro.net.server.serve_tcp`), and records the addresses and cut
keys a :class:`~repro.net.router.Router` needs to fan traffic back out.

Tests get two extra levers: :meth:`TcpCluster.kill` SIGKILLs a backend
(for ejection tests — no goodbye frame, the socket just dies) and
:meth:`TcpCluster.restart` respawns it on its recorded port so the
router's health probe can re-admit it.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.engine.partition import partition_cuts, shard_bounds

__all__ = ["TcpCluster", "run_backend"]

_READY_TIMEOUT = 30.0


def run_backend(conn, spec: Dict[str, Any]) -> None:
    """Child-process entry point: serve one key range over TCP.

    Builds the engine from ``spec`` (``{"config": dict, "keys", "values",
    "port"}``, port 0 = OS-picked), reports ``("ready", port, pid)`` over
    the pipe end ``conn``, and drains and exits once the parent sends
    anything.
    """
    import asyncio

    try:
        asyncio.run(_backend_main(conn, spec))
    except KeyboardInterrupt:  # pragma: no cover - parent teardown race
        pass


async def _backend_main(conn, spec: Dict[str, Any]) -> None:
    import asyncio

    from repro.api.factory import EngineConfig
    from repro.net.server import serve_tcp

    config = EngineConfig.from_dict(spec["config"])
    net = await serve_tcp(
        spec["keys"],
        spec.get("values"),
        config=config,
        listen=f"127.0.0.1:{int(spec.get('port', 0))}",
    )
    try:
        conn.send(("ready", net.port, os.getpid()))
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, conn.recv)
    except (EOFError, OSError):  # parent vanished: just drain
        pass
    finally:
        await net.close()
    try:
        conn.send(("stopped", os.getpid()))
    except (BrokenPipeError, OSError):  # pragma: no cover
        pass


class TcpCluster:
    """N single-range TCP server processes over one partitioned dataset.

    Usage::

        with TcpCluster(keys, values, backends=2, error=64.0) as fleet:
            async with fleet.router() as router:
                await router.get(keys[0])

    Parameters
    ----------
    keys:
        Sorted build keys; cut into ``backends`` contiguous ranges.
    values:
        Optional numeric payloads aligned with ``keys``.
    backends:
        Number of server processes to spawn.
    config:
        Per-backend :class:`~repro.api.factory.EngineConfig` (its
        ``listen`` field is overridden per process; leave unset).
    **overrides:
        Individual config fields to override.
    """

    def __init__(
        self,
        keys,
        values=None,
        *,
        backends: int = 2,
        config: Any = None,
        **overrides: Any,
    ) -> None:
        from repro.api.factory import EngineConfig

        if backends < 1:
            raise InvalidParameterError(
                f"backends must be >= 1, got {backends}"
            )
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        if keys.size < backends:
            raise InvalidParameterError(
                f"{keys.size} keys cannot fill {backends} backends"
            )
        if config is None:
            config = EngineConfig(**overrides)
        elif overrides:
            config = EngineConfig.from_dict({**config.to_dict(), **overrides})
        self.config = config
        self.n_backends = int(backends)
        self.cuts = partition_cuts(keys, self.n_backends)
        bounds = shard_bounds(keys, self.cuts)
        vals = None if values is None else np.ascontiguousarray(values)
        self._slices: List[Tuple[np.ndarray, Optional[np.ndarray]]] = [
            (
                keys[lo:hi].copy(),
                None if vals is None else vals[lo:hi].copy(),
            )
            for lo, hi in bounds
        ]
        self._ctx = mp.get_context("spawn")
        self._procs: List[Optional[Any]] = [None] * self.n_backends
        self._pipes: List[Optional[Any]] = [None] * self.n_backends
        self.addresses: List[Tuple[str, int]] = [("127.0.0.1", 0)] * (
            self.n_backends
        )
        self.pids: List[Optional[int]] = [None] * self.n_backends
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "TcpCluster":
        """Spawn every backend and wait for all of them to listen.

        Returns
        -------
        TcpCluster
            ``self``, with ``addresses``/``pids`` populated.
        """
        if self._started:
            return self
        for idx in range(self.n_backends):
            self._spawn(idx, port=0)
        self._started = True
        return self

    def _spawn(self, idx: int, port: int) -> None:
        parent, child = self._ctx.Pipe()
        keys, values = self._slices[idx]
        spec = {
            "config": self.config.to_dict(),
            "keys": keys,
            "values": values,
            "port": port,
        }
        proc = self._ctx.Process(
            target=run_backend,
            args=(child, spec),
            name=f"repro-net-backend-{idx}",
            daemon=True,
        )
        proc.start()
        child.close()
        if not parent.poll(_READY_TIMEOUT):
            proc.terminate()
            raise InvalidParameterError(
                f"backend {idx} did not come up within {_READY_TIMEOUT}s"
            )
        msg = parent.recv()
        if msg[0] != "ready":  # pragma: no cover - protocol guard
            raise InvalidParameterError(f"backend {idx} sent {msg!r}")
        self._procs[idx] = proc
        self._pipes[idx] = parent
        self.addresses[idx] = ("127.0.0.1", int(msg[1]))
        self.pids[idx] = int(msg[2])

    def kill(self, idx: int) -> None:
        """SIGKILL backend ``idx`` — no drain, the socket just dies."""
        proc = self._procs[idx]
        if proc is not None and proc.is_alive():
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=10.0)
        self._procs[idx] = None

    def restart(self, idx: int) -> None:
        """Respawn backend ``idx`` on its previously recorded port."""
        if self._procs[idx] is not None:
            self.stop_one(idx)
        self._spawn(idx, port=self.addresses[idx][1])

    def stop_one(self, idx: int) -> None:
        """Gracefully stop backend ``idx`` (drain, then exit)."""
        proc, pipe = self._procs[idx], self._pipes[idx]
        if pipe is not None:
            try:
                pipe.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        if proc is not None:
            proc.join(timeout=15.0)
            if proc.is_alive():  # pragma: no cover - hung child
                proc.terminate()
                proc.join(timeout=5.0)
        if pipe is not None:
            pipe.close()
        self._procs[idx] = None
        self._pipes[idx] = None

    def stop(self) -> None:
        """Gracefully stop every live backend."""
        for idx in range(self.n_backends):
            if self._procs[idx] is not None:
                self.stop_one(idx)
        self._started = False

    def __enter__(self) -> "TcpCluster":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def router(self, **kwargs: Any):
        """An unstarted :class:`~repro.net.router.Router` over this fleet
        (``**kwargs`` go to the router); ``async with`` starts it."""
        from repro.net.router import Router

        return Router(list(self.addresses), self.cuts, **kwargs)
