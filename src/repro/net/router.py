"""Key-range router: one front-end fanning out over N backend servers.

The same geometry that shards an engine shards a fleet: the router holds
``len(backends) - 1`` strictly increasing *cut keys* (typically from
:func:`repro.engine.partition.partition_cuts` over the build dataset) and
backend ``i`` owns keys in ``[cuts[i-1], cuts[i])``. Ownership, the
gather dtype rule and the range stitch all come from the shared kernel
(:mod:`repro.engine.scatter`), so a key lands on the same shard whether
the shard is an in-process index or a TCP server; the router itself is
only the transport — one concurrent client leg per owning backend.

Verbs:

* point ops (``get``/``insert``/``delete``) route to the owning backend;
* batch ops split the batch per backend, scatter the sub-batches
  concurrently and gather results back into the caller's original order;
* range ops scatter to every backend whose range overlaps and stitch the
  per-backend pieces in key order.

Health: a background probe pings every backend each ``health_interval``;
a failed probe (or an in-flight transport failure) *ejects* the backend —
its key range fails fast with
:class:`~repro.net.errors.BackendDownError` while every other range keeps
serving — and a later successful probe *re-admits* it. Nothing is
re-routed: ranges are ownership, not replicas.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.core.page import aligned_value_array
from repro.engine.partition import route
from repro.engine.scatter import (
    gather_points,
    split_points,
    split_ranges,
    stitch_ranges,
)
from repro.net.client import AsyncNetClient
from repro.net.errors import (
    BackendDownError,
    ConnectionLostError,
    RequestTimeoutError,
)

__all__ = ["Router"]


class Router:
    """Scatter/gather front-end over range-partitioned backend servers.

    Exposes the same verb surface as :class:`~repro.net.client.AsyncNetClient`,
    so traffic drivers run unchanged against one server or a fleet.

    Parameters
    ----------
    backends:
        ``(host, port)`` of each backend server, ordered by key range.
    cuts:
        ``len(backends) - 1`` strictly increasing cut keys; backend ``i``
        owns ``[cuts[i-1], cuts[i])`` (unbounded at the ends).
    health_interval:
        Seconds between background health probes (``0`` disables the
        task; :meth:`check_health` can still be called directly).
    health_timeout:
        Per-probe deadline.
    telemetry:
        Forwarded to every backend client (tracing modes stitch
        cross-socket span trees).
    **client_kwargs:
        Forwarded to each :class:`~repro.net.client.AsyncNetClient`
        (``pool``, ``timeout``, ``retries``, ...).
    """

    def __init__(
        self,
        backends: Sequence[Tuple[str, int]],
        cuts: Sequence[float],
        *,
        health_interval: float = 0.25,
        health_timeout: float = 1.0,
        telemetry: Any = None,
        **client_kwargs: Any,
    ) -> None:
        if not backends:
            raise InvalidParameterError("router needs at least one backend")
        self._backends = [(str(h), int(p)) for h, p in backends]
        self._cuts = np.asarray(cuts, dtype=np.float64)
        if self._cuts.size != len(self._backends) - 1:
            raise InvalidParameterError(
                f"{len(self._backends)} backends need "
                f"{len(self._backends) - 1} cuts, got {self._cuts.size}"
            )
        if self._cuts.size > 1 and np.any(np.diff(self._cuts) <= 0):
            raise InvalidParameterError("cuts must be strictly increasing")
        self.health_interval = float(health_interval)
        self.health_timeout = float(health_timeout)
        self._clients = [
            AsyncNetClient(h, p, telemetry=telemetry, **client_kwargs)
            for h, p in self._backends
        ]
        self._up = [True] * len(self._backends)
        self._health_task: Optional[asyncio.Task] = None
        self._closed = False
        self._counters = {
            "requests": 0,
            "scatter_legs": 0,
            "ejections": 0,
            "readmissions": 0,
            "backend_errors": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "Router":
        """Dial every backend and start the health-probe task.

        Returns
        -------
        Router
            ``self``, serving (``async with Router(...)`` does this).
        """
        await asyncio.gather(*[c.connect() for c in self._clients])
        if self.health_interval > 0 and self._health_task is None:
            self._health_task = asyncio.get_running_loop().create_task(
                self._health_loop()
            )
        return self

    async def close(self) -> None:
        """Stop the health task and close every backend client."""
        self._closed = True
        if self._health_task is not None:
            self._health_task.cancel()
            self._health_task = None
        await asyncio.gather(
            *[c.close() for c in self._clients], return_exceptions=True
        )

    async def __aenter__(self) -> "Router":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval)
            await self.check_health()

    async def check_health(self) -> List[bool]:
        """Probe every backend once; eject the dead, re-admit the cured.

        Returns
        -------
        list of bool
            The post-probe up/down state per backend.
        """
        for idx, client in enumerate(self._clients):
            try:
                await asyncio.wait_for(client.ping(), self.health_timeout)
            except asyncio.CancelledError:
                raise
            except Exception:
                self._eject(idx, "health probe failed")
            else:
                if not self._up[idx]:
                    self._up[idx] = True
                    self._counters["readmissions"] += 1
        return list(self._up)

    def _eject(self, idx: int, detail: str) -> None:
        if self._up[idx]:
            self._up[idx] = False
            self._counters["ejections"] += 1

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    async def _leg(self, idx: int, factory) -> Any:
        """Run one backend call with typed down-conversion."""
        if not self._up[idx]:
            raise BackendDownError(idx, self._backends[idx],
                                   "ejected by health check")
        self._counters["scatter_legs"] += 1
        try:
            return await factory()
        except (ConnectionLostError, RequestTimeoutError) as exc:
            self._counters["backend_errors"] += 1
            self._eject(idx, repr(exc))
            raise BackendDownError(
                idx, self._backends[idx], f"request failed: {exc}"
            ) from exc

    async def _write_legs(self, legs) -> List[Any]:
        """Run every write leg to completion, then raise the first failure
        in backend order — the engines' partial-failure rule, one tier up
        (a failed leg never leaves its siblings applying unobserved)."""
        results = await asyncio.gather(*legs, return_exceptions=True)
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return results

    # ------------------------------------------------------------------
    # Scalar verbs
    # ------------------------------------------------------------------

    async def ping(self) -> Dict[str, Any]:
        """Ping every live backend; returns ``{"pong": True, "pids": [...]}``."""
        self._counters["requests"] += 1
        replies = await asyncio.gather(*[
            self._leg(i, self._clients[i].ping)
            for i in range(len(self._clients))
            if self._up[i]
        ])
        return {"pong": True, "pids": [r.get("pid") for r in replies]}

    async def get(self, key: float, default: Any = None) -> Any:
        """Point lookup on the backend owning ``key``'s range."""
        self._counters["requests"] += 1
        idx = int(route(self._cuts, key))
        return await self._leg(
            idx, lambda: self._clients[idx].get(key, default)
        )

    async def insert(self, key: float, value: Any = None) -> Any:
        """Insert on the backend owning ``key``'s range."""
        self._counters["requests"] += 1
        idx = int(route(self._cuts, key))
        return await self._leg(
            idx, lambda: self._clients[idx].insert(key, value)
        )

    async def delete(self, key: float) -> Any:
        """Delete on the backend owning ``key``'s range."""
        self._counters["requests"] += 1
        idx = int(route(self._cuts, key))
        return await self._leg(idx, lambda: self._clients[idx].delete(key))

    async def range(self, lo: float, hi: float):
        """Range scan stitched across every overlapping backend."""
        self._counters["requests"] += 1
        _, jobs = split_ranges(self._cuts, [[lo, hi]])
        pieces = await asyncio.gather(*[
            self._leg(i, lambda i=i: self._clients[i].range(lo, hi))
            for i, _ in jobs
        ])
        return stitch_ranges(
            1, [(rows, [p]) for (_, rows), p in zip(jobs, pieces)], object
        )[0]

    # ------------------------------------------------------------------
    # Batch verbs (scatter/gather)
    # ------------------------------------------------------------------

    async def get_batch(self, queries, default: Any = None):
        """Scatter a lookup batch per owning backend; gather in order.

        Parameters
        ----------
        queries:
            Array-like of keys to look up.
        default:
            Value reported for absent keys.

        Returns
        -------
        numpy.ndarray
            One value per query, in query order — identical to a single
            engine's ``get_batch`` over the union dataset.
        """
        self._counters["requests"] += 1
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        parts = split_points(self._cuts, queries)
        results = await asyncio.gather(*[
            self._leg(
                idx,
                lambda idx=idx, pos=pos: self._clients[idx].get_batch(
                    queries[pos], default
                ),
            )
            for idx, pos in parts
        ])
        return gather_points(
            queries.size,
            [(pos, r, None) for (_, pos), r in zip(parts, results)],
        )

    async def range_batch(self, bounds):
        """Scatter range rows to overlapping backends; stitch per row.

        Parameters
        ----------
        bounds:
            Array-like of shape ``(n, 2)``: inclusive ``[lo, hi]`` rows.

        Returns
        -------
        list of (numpy.ndarray, numpy.ndarray)
            One ``(keys, values)`` pair per row, stitched across
            backends in key order.
        """
        self._counters["requests"] += 1
        bounds, jobs = split_ranges(self._cuts, bounds)
        results = await asyncio.gather(*[
            self._leg(
                idx,
                lambda idx=idx, rows=rows: self._clients[idx].range_batch(
                    bounds[rows]
                ),
            )
            for idx, rows in jobs
        ])
        return stitch_ranges(
            bounds.shape[0],
            [(rows, pairs) for (_, rows), pairs in zip(jobs, results)],
            object,
        )

    async def insert_batch(self, keys, values=None) -> None:
        """Scatter a bulk insert per owning backend.

        Every leg runs to completion first. On a raise (the first
        failing backend's exception, in backend order) every *other*
        owning backend has applied its chunk: no atomicity across
        backends, nothing is rolled back.

        Parameters
        ----------
        keys:
            Array-like of keys to insert.
        values:
            Optional numeric payloads aligned with ``keys``.
        """
        self._counters["requests"] += 1
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        # Validated before routing, like the engines do: a misaligned
        # batch must fail whole, not after its first legs applied.
        vals = (
            None if values is None
            else aligned_value_array(keys.size, np.ascontiguousarray(values))
        )
        parts = split_points(self._cuts, keys)
        await self._write_legs([
            self._leg(
                idx,
                lambda idx=idx, pos=pos: self._clients[idx].insert_batch(
                    keys[pos], None if vals is None else vals[pos]
                ),
            )
            for idx, pos in parts
        ])

    async def delete_batch(self, keys):
        """Scatter a bulk delete per owning backend; gather the values.

        Strict: a backend stops at its first absent key. Every leg runs
        to completion first, so on a raise (the first failing backend's
        exception, in backend order) every other owning backend has
        applied its chunk — no atomicity across backends.

        Parameters
        ----------
        keys:
            Array-like of keys to delete (one occurrence each).

        Returns
        -------
        numpy.ndarray
            The deleted values, in the caller's key order.
        """
        self._counters["requests"] += 1
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        parts = split_points(self._cuts, keys)
        results = await self._write_legs([
            self._leg(
                idx,
                lambda idx=idx, pos=pos: self._clients[idx].delete_batch(
                    keys[pos]
                ),
            )
            for idx, pos in parts
        ])
        return gather_points(
            keys.size, [(pos, r, None) for (_, pos), r in zip(parts, results)]
        )

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Router counters plus per-backend health and client stats.

        Returns
        -------
        dict
            Request/scatter/ejection counters under their own keys and
            one ``{address, up, client}`` record per backend.
        """
        return {
            **self._counters,
            "cuts": self._cuts.tolist(),
            "backends": [
                {
                    "address": list(self._backends[i]),
                    "up": self._up[i],
                    "client": self._clients[i].stats(),
                }
                for i in range(len(self._backends))
            ],
        }
