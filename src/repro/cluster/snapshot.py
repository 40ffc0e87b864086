"""Shard snapshots: the in-memory serialization the cluster ships to workers.

The heavy lifting lives on the indexes themselves —
:meth:`repro.core.paged_index.PagedIndexBase.to_state` exports one shard as
a dict of flat NumPy arrays plus build parameters, and ``from_state``
rebuilds it with one bulk pass (no re-segmentation) — and the
class-dispatch registry is shared with the on-disk format in
:mod:`repro.core.serialize` (:func:`index_from_state` /
:func:`register_index_class` are re-exported from there, so a class
registered once both persists and clusters). The whole-engine snapshot —
every shard's state plus the routing cuts and row-id counter, i.e. what
:class:`~repro.cluster.ClusterEngine` needs to spawn one worker per shard
— is either engine's ``to_states()``.

Snapshots are value copies: once a worker rebuilds from one, parent and
worker states evolve independently (the cluster keeps them consistent by
routing every mutation through the workers).
"""

from __future__ import annotations

from repro.core.serialize import index_from_state, register_index_class

__all__ = ["index_from_state", "register_index_class"]
