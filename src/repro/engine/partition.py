"""Range partitioning: cut one sorted key space into N contiguous shards.

A :class:`~repro.engine.engine.ShardedEngine` owns one index per shard;
everything here is the pure geometry of the split:

* :func:`partition_cuts` — choose ``n_shards - 1`` strictly increasing cut
  keys that divide a sorted build array into roughly equal-sized shards.
  Cuts are snapped to the *first* occurrence of the chosen key so a run of
  duplicates never straddles a shard boundary, and degenerate cuts (a key
  distribution too skewed to fill every shard) are dropped, yielding fewer
  shards rather than empty ones.
* :func:`shard_bounds` — the ``[start, end)`` slice of the build array that
  each shard owns under a given cut vector.
* :func:`route` — the vectorized router: one ``np.searchsorted`` maps a
  whole query batch to shard ids. A key equal to a cut belongs to the shard
  that starts at that cut; keys below the first shard's range route to
  shard 0 (mirroring ``PagedIndexBase._route``, which buffers under-min
  inserts in the first page).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError, NotSortedError

__all__ = ["partition_cuts", "route", "shard_bounds"]


def partition_cuts(keys, n_shards: int) -> np.ndarray:
    """Cut keys splitting sorted ``keys`` into at most ``n_shards`` shards.

    Returns a strictly increasing float64 array of length ``<= n_shards-1``;
    shard ``i`` owns keys in ``[cuts[i-1], cuts[i])`` (unbounded at the
    ends). May return fewer cuts than requested when the data has too few
    distinct keys to populate every shard.
    """
    if n_shards < 1:
        raise InvalidParameterError(f"n_shards must be >= 1, got {n_shards}")
    keys = np.asarray(keys, dtype=np.float64)
    if keys.size > 1 and np.any(keys[1:] < keys[:-1]):
        raise NotSortedError("partition keys must be sorted ascending")
    if n_shards == 1 or keys.size == 0:
        return np.empty(0, dtype=np.float64)
    positions = (np.arange(1, n_shards) * keys.size) // n_shards
    cuts = np.unique(keys[positions])
    return cuts[cuts > keys[0]]  # a cut at the global min empties shard 0


def route(cuts: np.ndarray, queries) -> np.ndarray:
    """Shard id for each query key (vectorized; ids in ``[0, len(cuts)]``)."""
    queries = np.asarray(queries, dtype=np.float64)
    return np.searchsorted(cuts, queries, side="right")


def shard_bounds(keys, cuts: np.ndarray) -> List[Tuple[int, int]]:
    """Per-shard ``[start, end)`` slices of a sorted key array.

    Works for any sorted batch — the build array at construction time,
    or a sorted insert batch (``ShardedEngine.insert_batch`` cuts whole
    sub-batches per shard this way instead of routing key by key).
    Boundaries use ``side="left"`` so every occurrence of a cut key lands
    in the shard that starts at the cut — consistent with :func:`route`.
    """
    keys = np.asarray(keys, dtype=np.float64)
    edges = keys.searchsorted(cuts, side="left").tolist()
    return list(zip([0] + edges, edges + [keys.size]))
