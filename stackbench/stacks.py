"""Build, read out and tear down the six stacks the workloads drive.

Every stack is opened through the library's public entry points only
(``FITingTree``, ``open_engine``, ``TcpCluster``, ``Router``,
``AsyncNetClient``). ``open_*`` returns when the stack could take its
first request — views warmed, connections dialled — which is what
``setup_s`` times. ``final()`` reads back what the end-of-run check needs:
``len()``, a full scan, and the index bytes.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from stackbench.spec import ERROR
from stackbench.streams import KeySpace

Scan = Tuple[np.ndarray, np.ndarray]
_EVERYTHING = (-1e300, 1e300)


class IndexStack:
    """Bare ``FITingTree``: the paper's structure and the library user's."""

    def __init__(self, space: KeySpace) -> None:
        from repro import FITingTree

        self.target = self.index = FITingTree(space.keys, space.values,
                                              error=ERROR)

    def final(self) -> Tuple[int, Scan, int]:
        items = list(self.index.items())
        scan = (np.array([k for k, _ in items], dtype=np.float64),
                np.array([v for _, v in items], dtype=np.int64))
        return len(self.index), scan, self.index.model_bytes()

    def stats(self) -> Dict[str, Any]:
        return self.index.stats()

    def close(self) -> None:
        pass


class EngineStack:
    """``open_engine`` in-process (sharded) or one worker per shard (cluster)."""

    def __init__(self, space: KeySpace, executor: str, n_shards: int,
                 recorder: Any = None, **config: Any) -> None:
        from repro import EngineConfig, ShardedEngine, open_engine

        if recorder is None:
            self.engine = open_engine(
                space.keys, space.values, executor=executor,
                n_shards=n_shards, error=ERROR, **config)
        else:  # what open_engine builds, with proxies around the shards
            factory = EngineConfig(error=ERROR, **config).index_factory()
            self.engine = ShardedEngine(
                space.keys, space.values, n_shards=n_shards,
                index_factory=recorder.proxying(factory, "core"))
        self.target = self.engine
        try:
            self.engine.warm()
        except BaseException:
            self.close()
            raise

    def final(self) -> Tuple[int, Scan, int]:
        return (len(self.engine), self.engine.range_arrays(None, None),
                self.engine.stats()["model_bytes"])

    def stats(self) -> Dict[str, Any]:
        return self.engine.stats()

    def close(self) -> None:
        self.engine.close()


def open_sync(stack: str, space: KeySpace, recorder: Any = None) -> Any:
    """``recorder`` puts timing proxies in the seams that have one."""
    if stack == "index":
        return IndexStack(space)
    if stack == "sharded":
        return EngineStack(space, "sharded", 4, recorder)
    if stack == "cluster":
        return EngineStack(space, "cluster", 2)
    raise ValueError(f"no synchronous stack {stack!r}")


class NetStack:
    """Backend processes behind one connection — direct, or through a Router.

    ``tcp``: ``TcpCluster(backends=1, n_shards=2)`` and one
    ``AsyncNetClient``. ``router``: ``TcpCluster(backends=2, n_shards=1)``
    behind ``Router`` with health checks off (a probe every 250 ms would
    be traffic the stream did not generate).
    """

    def __init__(self, space: KeySpace, stack: str, traced: bool = False) -> None:
        from repro import TcpCluster

        self.space = space
        self.routed = stack == "router"
        backends, n_shards = (2, 1) if self.routed else (1, 2)
        if traced:
            from stackbench.trace import TracedFleet

            self.fleet = TracedFleet(space.keys, space.values,
                                     backends=backends, n_shards=n_shards)
        else:
            self.fleet = TcpCluster(space.keys, space.values, backends=backends,
                                    n_shards=n_shards, error=ERROR)
        self.target: Any = None
        self.direct: list = []

    async def open(self) -> "NetStack":
        from repro.net import AsyncNetClient, Router

        self.fleet.start()
        try:
            for host, port in self.fleet.addresses:
                self.direct.append(await AsyncNetClient(host, port).connect())
            if self.routed:
                self.target = await Router(list(self.fleet.addresses),
                                           self.fleet.cuts,
                                           health_interval=0).start()
            else:
                self.target = self.direct[0]
            # First read on each backend builds its flattened view.
            sp = self.space
            for i in (0, sp.n - 1):
                if await self.target.get(float(sp.keys[i])) != i:
                    raise RuntimeError("warm-up read returned a wrong row id")
        except BaseException:
            await self.close()
            raise
        return self

    async def server_stats(self) -> list:
        return [await c.server_stats() for c in self.direct]

    async def final(self) -> Tuple[int, Scan, int]:
        stats = await self.server_stats()
        scan = await self.target.range(*_EVERYTHING)
        return (sum(s["engine"]["n"] for s in stats), scan,
                sum(s["engine"]["model_bytes"] for s in stats))

    async def close(self) -> None:
        try:
            if self.routed and self.target is not None:
                await self.target.close()
            for client in self.direct:
                await client.close()
        finally:
            self.fleet.stop()
