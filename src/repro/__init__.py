"""FITing-Tree (A-Tree) reproduction: a data-aware bounded-approximate index.

This package is a from-scratch Python implementation of

    Galakatos, Markovitch, Binnig, Fonseca, Kraska.
    "FITing-Tree: A Data-aware Index Structure" (SIGMOD 2019) /
    "A-Tree: A Bounded Approximate Index Structure" (arXiv:1801.10207).

Quickstart
----------
>>> import numpy as np
>>> from repro import FITingTree
>>> keys = np.sort(np.random.default_rng(7).uniform(0, 1e9, 1_000_000))
>>> index = FITingTree(keys, error=256)
>>> int(index.get(keys[123]))     # -> 123 (row id)
123
>>> index.n_segments < 50_000     # orders of magnitude fewer entries than keys
True

The serving stack is opened through the :mod:`repro.api` layer — one
declarative config constructs any backend behind one protocol:

>>> from repro import EngineConfig, open_engine
>>> engine = open_engine(keys, executor="sharded", n_shards=4)
>>> int(engine.get_batch(keys[:8])[3])
3
>>> engine.insert_batch([1.5, 2.5]); engine.delete_batch([1.5]).size
1

Beyond the paper, :mod:`repro.engine` layers a serving system on top: a
:class:`~repro.engine.ShardedEngine` range-partitions the key space into
shards (one FITing-Tree each) and answers whole query batches through
flattened NumPy views of the segments — one ``searchsorted`` routing pass,
vectorized interpolation, and a vectorized bounded window probe replace
per-key tree descents (``get_batch`` / ``range_batch`` / ``insert_batch``).
:mod:`repro.cluster` moves each shard into its own worker process behind
the same API (``ClusterEngine``), and :mod:`repro.serve` puts an asyncio
micro-batching front-end over either engine.

See docs/ARCHITECTURE.md for the full system inventory and
docs/BENCHMARKS.md for the experiment behind every table and figure.
"""

from repro.api import (
    BatchEngine,
    EngineConfig,
    EngineProtocol,
    open_engine,
    open_server,
)
from repro.baselines import BinarySearchIndex, FixedPageIndex, FullIndex
from repro.btree import BPlusTree
from repro.core import (
    CostModel,
    CostModelParams,
    FITingTree,
    SecondaryFITingTree,
    Segment,
    StringFITingTree,
    exact_cone,
    load_index,
    optimal_segment_count,
    optimal_segments,
    optimal_segments_endpoint,
    save_index,
    shrinking_cone,
    verify_segments,
)
from repro.cluster import ClusterEngine, ClusterError
from repro.engine import FlatView, ShardedEngine
from repro.memsim import AccessCounter, CacheSim, LatencyModel
from repro.net import NetClient, NetServer, Router, TcpCluster, connect, serve_tcp
from repro.obs import Telemetry

__version__ = "1.0.0"

__all__ = [
    "AccessCounter",
    "BPlusTree",
    "BatchEngine",
    "BinarySearchIndex",
    "CacheSim",
    "ClusterEngine",
    "ClusterError",
    "CostModel",
    "CostModelParams",
    "EngineConfig",
    "EngineProtocol",
    "FITingTree",
    "FixedPageIndex",
    "FlatView",
    "FullIndex",
    "LatencyModel",
    "NetClient",
    "NetServer",
    "Router",
    "ShardedEngine",
    "SecondaryFITingTree",
    "Segment",
    "StringFITingTree",
    "TcpCluster",
    "Telemetry",
    "connect",
    "exact_cone",
    "load_index",
    "open_engine",
    "open_server",
    "save_index",
    "serve_tcp",
    "optimal_segment_count",
    "optimal_segments",
    "optimal_segments_endpoint",
    "shrinking_cone",
    "verify_segments",
    "__version__",
]
