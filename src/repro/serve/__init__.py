"""Asyncio serving front-end over the batch engine (layer 3 of the stack).

The stack so far: :mod:`repro.core` is the paper's FITing-Tree (layer 1),
:mod:`repro.engine` makes it batch-at-a-time and sharded (layer 2). This
package is layer 3 — the piece that turns *independent per-caller
requests* back into the batched workloads layer 2 is fast at:

* :class:`~repro.serve.batcher.RequestBatcher` — accumulates concurrent
  ``get``/``range``/``insert``/``delete`` submissions into micro-batches
  (flush on size, delay, or event-loop idle), dispatches them through
  the engine's ``lookup_batch``/``range_batch``/``insert_batch``/
  ``delete_batch`` in one chunk loop, and fans results back out per
  caller, with read-your-writes ordering across a write fence;
* :class:`~repro.serve.server.Server` — the application-facing facade:
  admission control/backpressure, per-op latency percentiles and
  lifecycle (drain on close).

Quickstart::

    engine = ShardedEngine(keys, n_shards=4)
    async with Server(engine) as server:
        value = await server.get(keys[42])

``python3 -m stackbench`` measures this layer: the ``serve.*`` per-layer
metrics and, under the TCP tier, the ``tcp-point-closed`` workload.
"""

from repro.api.protocol import BatchEngine
from repro.serve.batcher import RequestBatcher
from repro.serve.errors import ServerClosedError, ServerOverloadedError
from repro.serve.server import Server
from repro.serve.stats import LatencySeries

__all__ = [
    "BatchEngine",
    "LatencySeries",
    "RequestBatcher",
    "Server",
    "ServerClosedError",
    "ServerOverloadedError",
]
