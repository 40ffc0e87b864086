"""Multi-process shard executors with a shared-memory batch protocol.

Layer 2.5 of the stack: the in-process :class:`~repro.engine.ShardedEngine`
is GIL-bound — every shard's vectorized work serializes on one core — so
this package moves each range shard into its own worker process while
keeping the exact engine API, letting the serving stack scale with the
machine:

* :mod:`repro.core.serialize` — ship a shard: ``index_from_state`` is
  the class-dispatching rebuild of
  :meth:`~repro.core.paged_index.PagedIndexBase.to_state` snapshots (no
  re-segmentation; value copies, so parent and worker evolve apart), with
  the one registry the on-disk format uses (``register_index_class``);
* :mod:`~repro.cluster.shm` — the zero-copy transport: named
  shared-memory lanes batch keys and numeric results cross process
  boundaries through (pickle fallback for object payloads);
* :mod:`~repro.cluster.worker` — the per-shard worker loop dispatching
  the engine's vectorized batch verbs with per-batch fences;
* :mod:`~repro.cluster.engine` — :class:`ClusterEngine`, the parent-side
  facade with the full :class:`~repro.engine.ShardedEngine` surface
  (``get_batch`` / ``range_batch`` / ``insert_batch`` / ``stats`` /
  ``warm`` / ``version`` + scalar mirrors), so
  :class:`repro.serve.Server` runs over it unchanged;
* :mod:`~repro.cluster.errors` — :class:`ClusterError` /
  :class:`WorkerCrashedError` / :class:`WorkerRecoveredError`, the typed
  transport failures.

With a :class:`repro.wal.WalStore` attached (``ClusterEngine.attach_wal``
or ``open_engine(durability=...)``), every write chunk is logged and
group-committed *before* dispatch, and a crashed worker is **restarted**
from snapshot + WAL tail instead of surfacing a terminal
:class:`WorkerCrashedError`: reads retry transparently, inserts replay
from the log, and a delete whose reply died with the worker raises the
typed :class:`WorkerRecoveredError` (the deletion *is* applied — only
the returned values were lost).

Quickstart::

    engine = ClusterEngine(keys, n_shards=4, error=128)
    values = engine.get_batch(queries)      # computed on 4 cores
    engine.close()                          # or use it as a context manager

``python3 -m stackbench`` measures it against the in-process engine: the
``cluster-batch-mixed`` workload replays ``engine-batch-mixed``'s stream,
and ``cluster.added_ns_per_key.*`` is the difference.
"""

from repro.cluster.engine import ClusterEngine
from repro.cluster.errors import (
    ClusterError,
    WorkerCrashedError,
    WorkerRecoveredError,
)
from repro.cluster.shm import ShmLane, attach_lane, teardown_errors
from repro.core.serialize import index_from_state, register_index_class

__all__ = [
    "ClusterEngine",
    "ClusterError",
    "ShmLane",
    "WorkerCrashedError",
    "WorkerRecoveredError",
    "attach_lane",
    "index_from_state",
    "register_index_class",
    "teardown_errors",
]
