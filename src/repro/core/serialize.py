"""Persistence: save/load a paged index to a single ``.npz`` file.

An extension beyond the paper (any adoptable index needs it). Since the
cluster layer landed this module is a thin disk encoding of the in-memory
snapshot contract — :meth:`repro.core.paged_index.PagedIndexBase.to_state`
/ ``from_state`` — which stores the segment structure flat: concatenated
data keys/values, per-segment boundaries, start keys, slopes, seqs, and
buffered entries, plus the scalar build parameters. Loading rebuilds the
B+ tree with one bulk pass (no re-segmentation), so a round trip preserves
exactly: contents, segment boundaries, buffer contents, tree-key seq
numbers, error accounting, pending deletion-widening state, the row-id
counter and the monotonic ``version`` stamp.

Only numeric (integer/float) value dtypes are supported: object payloads
have no portable flat representation.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Type

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.core.fiting_tree import FITingTree
from repro.core.paged_index import PagedIndexBase

__all__ = [
    "save_index",
    "load_index",
    "save_state",
    "load_state",
    "index_from_state",
    "register_index_class",
]

#: Version 1 was FITingTree-only and did not persist the version stamp;
#: version 2 is the generic ``to_state`` snapshot. Both load.
_FORMAT_VERSION = 2

#: State-array fields shared by the snapshot dict and the npz layout.
_ARRAY_FIELDS = (
    "starts",
    "seqs",
    "slopes",
    "lengths",
    "deletions",
    "data_keys",
    "data_values",
    "buf_keys",
    "buf_values",
    "buf_lengths",
)

#: Scalar snapshot fields carried in the JSON meta blob.
_META_FIELDS = ("n", "auto_rowid", "next_rowid", "values_dtype", "version")


#: The canonical snapshot-class dispatch table — shared by on-disk loads
#: here and by cluster workers (``repro.cluster`` re-exports the two
#: functions below), so a class registered once both persists and clusters.
_REGISTRY: Dict[str, Type[PagedIndexBase]] = {}


def register_index_class(cls: Type[PagedIndexBase]) -> Type[PagedIndexBase]:
    """Register a paged-index class for snapshot dispatch (by ``__name__``).

    The built-in classes are pre-registered; downstream
    :class:`~repro.core.paged_index.PagedIndexBase` subclasses call this
    once so both :func:`load_index` and cluster workers can rebuild them.
    Returns ``cls`` (usable as a decorator).
    """
    _REGISTRY[cls.__name__] = cls
    return cls


def _registry() -> Dict[str, Type[PagedIndexBase]]:
    """The dispatch table, lazily seeded (baselines import core).

    Seeding keys off the built-ins' presence, not dict truthiness, so a
    downstream class registered before the first load cannot displace
    them; ``setdefault`` likewise keeps an explicit user registration
    under a built-in name authoritative.
    """
    if "FITingTree" not in _REGISTRY or "FixedPageIndex" not in _REGISTRY:
        from repro.baselines.fixed_index import FixedPageIndex

        _REGISTRY.setdefault("FITingTree", FITingTree)
        _REGISTRY.setdefault("FixedPageIndex", FixedPageIndex)
    return _REGISTRY


def index_from_state(state: Dict[str, Any]) -> PagedIndexBase:
    """Rebuild an index from a ``to_state`` snapshot, any registered class.

    Parameters
    ----------
    state:
        A dict produced by ``PagedIndexBase.to_state`` (its
        ``"index_cls"`` field selects the class).

    Returns
    -------
    PagedIndexBase
        The rebuilt index, bit-identical to the snapshotted one.
    """
    cls = _registry().get(state.get("index_cls"))
    if cls is None:
        raise InvalidParameterError(
            f"unknown snapshot index class {state.get('index_cls')!r}; "
            "register it with repro.core.serialize.register_index_class"
        )
    return cls.from_state(state)


def save_index(index: PagedIndexBase, path: str) -> None:
    """Serialize ``index`` to ``path`` (a ``.npz`` file).

    Any :class:`~repro.core.paged_index.PagedIndexBase` subclass with a
    snapshot hook works (``FITingTree``, ``FixedPageIndex``). Raises
    :class:`InvalidParameterError` for other types and for object-dtype
    payloads.
    """
    if not isinstance(index, PagedIndexBase):
        raise InvalidParameterError(
            f"save_index supports paged indexes, got {type(index).__name__}"
        )
    save_state(index.to_state(), path)


def save_state(state: Dict[str, Any], path: str, *, sync: bool = False) -> None:
    """Write a ``to_state`` snapshot dict to ``path`` as ``.npz``.

    The disk layout is exactly :func:`save_index`'s (that function is now
    a ``to_state`` + ``save_state`` composition); callers that hold state
    dicts rather than live index objects (cluster workers ship dicts) use
    this entry point directly.

    Parameters
    ----------
    state:
        A ``PagedIndexBase.to_state`` snapshot dict.
    path:
        Destination file. Unlike ``np.savez``, no ``.npz`` suffix is
        appended — the name is used verbatim.
    sync:
        When True, ``fsync`` the file before returning (durability
        snapshots need the bytes on disk before the manifest flips).
    """
    meta = {
        "format_version": _FORMAT_VERSION,
        "index_cls": state["index_cls"],
        "params": state["params"],
    }
    meta.update({k: state[k] for k in _META_FIELDS})
    with open(path, "wb") as fh:
        np.savez_compressed(
            fh,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            **{k: state[k] for k in _ARRAY_FIELDS},
        )
        fh.flush()
        if sync:
            os.fsync(fh.fileno())


def load_index(path: str) -> PagedIndexBase:
    """Rebuild a paged index saved by :func:`save_index`.

    Loads both format version 2 (generic snapshot) and the legacy
    FITingTree-only version 1 layout.
    """
    return index_from_state(load_state(path))


def load_state(path: str) -> Dict[str, Any]:
    """Read a snapshot file back into a ``from_state``-ready dict.

    Returns
    -------
    dict
        The snapshot state dict, loadable via :func:`index_from_state`.
    """
    with np.load(path) as archive:
        meta: Dict[str, Any] = json.loads(bytes(archive["meta"]).decode())
        fmt = meta.get("format_version")
        if fmt not in (1, 2):
            raise InvalidParameterError(
                f"unsupported index file version: {fmt}"
            )
        state: Dict[str, Any] = {
            k: archive[k] for k in _ARRAY_FIELDS if k in archive
        }
    if fmt == 1:
        # Legacy layout: FITingTree only, ctor params inline in the meta.
        state["index_cls"] = "FITingTree"
        state["params"] = {
            k: meta[k]
            for k in ("error", "buffer_capacity", "accept", "search",
                      "branching", "fill")
        }
        state["version"] = 1
    else:
        state["index_cls"] = meta["index_cls"]
        state["params"] = meta["params"]
        state["version"] = meta["version"]
    for k in ("n", "auto_rowid", "next_rowid", "values_dtype"):
        state[k] = meta[k]
    return state
