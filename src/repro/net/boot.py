"""Spawn a fleet of TCP backend servers over one partitioned dataset.

:class:`TcpCluster` is the process-management half of the network tier:
it cuts the build dataset into contiguous key ranges with
:func:`repro.engine.partition.partition_cuts`, spawns one OS process per
range (each running a full engine + serve + :mod:`repro.net` stack via
:func:`~repro.net.server.serve_tcp`), and records the addresses and cut
keys a :class:`~repro.net.router.Router` needs to fan traffic back out.

Boot handshake, over each backend's pipe:

1. The parent starts every backend process, passing each only its pipe
   end (:func:`run_backend`'s one argument).
2. Each child sends ``("hello", pid)`` once it has imported.
3. The parent answers each hello with that backend's spec: ``{"config",
   "keys", "values", "port"}``.
4. Each child builds its engine, listens, and sends ``("ready", port,
   pid)`` — or ``("err", exception)`` if the build failed.

The spec stays out of the process args on purpose: under ``spawn``,
``Process.start`` writes the pickled process object into the child and
returns only once the child has imported and read it, so a spec of
megabytes there makes the fleet boot one backend after the other. Every
wait on a child shares one deadline, ``_READY_TIMEOUT`` after the call
began; a failed boot stops every backend the call started and raises
:class:`~repro.net.errors.BackendBootError`.

Tests get two extra levers: :meth:`TcpCluster.kill` SIGKILLs a backend
(for ejection tests — no goodbye frame, the socket just dies) and
:meth:`TcpCluster.restart` respawns it on its recorded port so the
router's health probe can re-admit it.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.engine.partition import partition_cuts, shard_bounds
from repro.net.errors import BackendBootError

__all__ = ["TcpCluster", "run_backend"]

_READY_TIMEOUT = 30.0


def run_backend(conn) -> None:
    """Child-process entry point: serve one key range over TCP.

    Sends ``("hello", pid)`` over the pipe end ``conn``, receives its
    spec (``{"config": dict, "keys", "values", "port"}``, port 0 =
    OS-picked), builds the engine and reports ``("ready", port, pid)``
    (``("err", exception)`` if the build raised), then drains and exits
    once the parent sends anything.
    """
    import asyncio

    try:
        conn.send(("hello", os.getpid()))
        spec = conn.recv()
    except (EOFError, OSError):  # the parent gave up before the spec
        return
    try:
        asyncio.run(_backend_main(conn, spec))
    except KeyboardInterrupt:  # pragma: no cover - parent teardown race
        pass


async def _backend_main(conn, spec: Dict[str, Any]) -> None:
    import asyncio

    from repro.api.factory import EngineConfig
    from repro.net.server import serve_tcp

    try:
        net = await serve_tcp(
            spec["keys"],
            spec.get("values"),
            config=EngineConfig.from_dict(spec["config"]),
            listen=f"127.0.0.1:{int(spec.get('port', 0))}",
        )
    except Exception as exc:  # the parent raises it as BackendBootError
        conn.send(("err", exc))
        return
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
        """Boot every backend at once and wait for all of them to listen.

        Every process is started first, with only its pipe end; each
        child says hello once it has imported, and is sent its spec
        (config, key and value slices, port) in answer; last, every
        ``("ready", port, pid)`` is collected. The backends therefore
        import and build side by side. Every wait shares one deadline,
        ``_READY_TIMEOUT`` after the call.

        Returns
        -------
        TcpCluster
            ``self``, with ``addresses``/``pids`` populated.

        Raises
        ------
        BackendBootError
            A backend died, raised while building, or missed the
            deadline. Every backend this call started is stopped first.
        """
        if self._started:
            return self
        self._boot(list(range(self.n_backends)))
        self._started = True
        return self

    def _boot(self, indices: List[int]) -> None:
        """Run the hello -> spec -> ready handshake for ``indices`` at once;
        each listens on its recorded port (0 = OS-picked)."""
        deadline = time.monotonic() + _READY_TIMEOUT
        try:
            for idx in indices:
                parent, child = self._ctx.Pipe()
                self._pipes[idx] = parent
                self._procs[idx] = self._ctx.Process(
                    target=run_backend,
                    args=(child,),
                    name=f"repro-net-backend-{idx}",
                    daemon=True,
                )
                self._procs[idx].start()
                child.close()
            for idx in indices:
                self._expect(idx, "hello", deadline)
                keys, values = self._slices[idx]
                spec = {
                    "config": self.config.to_dict(),
                    "keys": keys,
                    "values": values,
                    "port": self.addresses[idx][1],
                }
                try:
                    self._pipes[idx].send(spec)
                except OSError as exc:  # died between hello and spec
                    raise self._lost(idx, "its spec") from exc
            ready = [self._expect(idx, "ready", deadline) for idx in indices]
        except BaseException:
            for idx in indices:
                self.kill(idx)
                self.stop_one(idx)  # closes the pipe
            raise
        for idx, (_, port, pid) in zip(indices, ready):
            self.addresses[idx] = ("127.0.0.1", int(port))
            self.pids[idx] = int(pid)

    def _expect(self, idx: int, kind: str, deadline: float) -> Tuple:
        """Backend ``idx``'s next message, which must be a ``kind``."""
        pipe = self._pipes[idx]
        try:
            if not pipe.poll(max(0.0, deadline - time.monotonic())):
                raise BackendBootError(
                    idx, detail=f"no {kind} within {_READY_TIMEOUT}s"
                )
            msg = pipe.recv()
        except (EOFError, OSError) as exc:
            raise self._lost(idx, f"its {kind}") from exc
        if msg[0] == "err":
            raise BackendBootError(idx, error=msg[1]) from msg[1]
        if msg[0] != kind:  # pragma: no cover - protocol guard
            raise BackendBootError(idx, detail=f"sent {msg!r} for {kind}")
        return msg

    def _lost(self, idx: int, what: str) -> BackendBootError:
        """The error for backend ``idx`` dying before ``what``."""
        proc = self._procs[idx]
        proc.join(1.0)
        return BackendBootError(
            idx, exitcode=proc.exitcode, detail=f"exited before {what}"
        )

    def kill(self, idx: int) -> None:
        """SIGKILL backend ``idx`` — no drain, the socket just dies."""
        proc = self._procs[idx]
        if proc is not None and proc.is_alive():
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=10.0)
        self._procs[idx] = None

    def restart(self, idx: int) -> None:
        """Respawn backend ``idx`` on its previously recorded port, by the
        same handshake as :meth:`start` (and its
        :class:`~repro.net.errors.BackendBootError`)."""
        self.stop_one(idx)  # also closes a killed backend's pipe
        self._boot([idx])

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
