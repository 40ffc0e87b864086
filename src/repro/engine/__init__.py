"""Sharded, vectorized batch query engine over FITing-Tree shards.

The serving layer above :mod:`repro.core`: range partitioning
(:mod:`repro.engine.partition`), the flattened array-native batch read path
(:mod:`repro.engine.batch`), the half of every verb both engines share
(:mod:`repro.engine.front`), and the public :class:`ShardedEngine` facade
(:mod:`repro.engine.engine`). ``python3 -m stackbench`` measures it: the
``engine-batch-mixed`` workload and the ``engine.*`` per-layer metrics.
"""

from repro.engine.batch import FlatView, flat_view
from repro.engine.engine import ShardedEngine
from repro.engine.partition import partition_cuts, route, shard_bounds

__all__ = [
    "FlatView",
    "ShardedEngine",
    "flat_view",
    "partition_cuts",
    "route",
    "shard_bounds",
]
