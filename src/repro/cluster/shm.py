"""Shared-memory batch lanes: zero-copy NumPy transport between processes.

The cluster's IPC splits every exchange into a tiny *control frame* (a
pickled tuple over a ``multiprocessing`` pipe: the verb, array layout
descriptors, fence/version stamps) and a bulk *payload* that never touches
the pickler: the arrays themselves live in a ``multiprocessing.shared_memory``
block both sides map, so a batch of query keys — or a batch of result
values — crosses the process boundary as one ``memcpy`` in, zero copies
across, and one gather out.

:class:`ShmLane` is one direction of that channel: a named shared-memory
arena the owning side packs arrays into (the :mod:`repro.codec` layout)
and the peer reads as NumPy views. Lanes are single-flight by protocol —
the writer never reuses a lane until the peer's reply frame arrives — so
no ring indices or locks are needed; "ring" behavior falls out of the
strict request/reply alternation. When a payload outgrows a lane the
*owner* reallocates a bigger block and the next control frame carries the
new name (:meth:`ShmLane.ensure`); the peer re-attaches lazily by name.
Payloads that have no flat numeric representation (object dtypes, oversized
worker replies) fall back to pickling inside the control frame — slower,
never wrong.

CPython < 3.13 registers *attached* segments with the per-process
``resource_tracker`` as if it owned them, which makes a worker's exit
unlink memory the parent still maps (and spams leak warnings).
:func:`attach_lane` therefore unregisters the segment right after
attaching — only the creating side may unlink.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory
from typing import List, Sequence

import numpy as np

from repro import codec

__all__ = [
    "ShmLane",
    "attach_lane",
    "DEFAULT_LANE_CAPACITY",
    "note_teardown_error",
    "teardown_errors",
]

#: Default lane size: comfortably holds a 64k-key float64 batch plus masks.
DEFAULT_LANE_CAPACITY = 1 << 20

class ShmLane:
    """One direction of the zero-copy channel: a named shared-memory arena.

    Parameters
    ----------
    capacity:
        Size in bytes of the freshly created block (owner side).
    shm:
        Internal — an already-attached ``SharedMemory`` (see
        :func:`attach_lane`); ``capacity`` is ignored when given.
    """

    def __init__(self, capacity: int = DEFAULT_LANE_CAPACITY, *, shm=None) -> None:
        if shm is None:
            shm = shared_memory.SharedMemory(create=True, size=int(capacity))
            self._owner = True
        else:
            self._owner = False
        self._shm = shm

    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """The block's system-wide name (what the peer attaches by)."""
        return self._shm.name

    @property
    def capacity(self) -> int:
        """Usable bytes in the current block."""
        return self._shm.size

    def ensure(self, nbytes: int) -> bool:
        """Grow the lane to hold ``nbytes`` (owner side only).

        Reallocates a fresh block (old one unlinked) when the current one
        is too small; the caller must ship the new :attr:`name` to the
        peer in the next control frame. Growth doubles, so a traffic
        spike costs O(log spike) reallocations, not one per batch.

        Returns
        -------
        bool
            True when the lane was reallocated (the name changed).
        """
        if not self._owner:
            raise ValueError("only the owning side may grow a lane")
        if nbytes <= self.capacity:
            return False
        new_capacity = max(self.capacity, 1)
        while new_capacity < nbytes:
            new_capacity *= 2
        _dispose(self._shm, unlink=True)
        self._shm = shared_memory.SharedMemory(create=True, size=new_capacity)
        return True

    # ------------------------------------------------------------------

    def write(self, arrays: Sequence[np.ndarray]) -> List[codec.Descriptor]:
        """Pack ``arrays`` from the start of the lane; return the layout.

        The descriptors are what the control frame carries so :meth:`read`
        on the other side can rebuild zero-copy views. Raises
        ``ValueError`` for an array :mod:`repro.codec` cannot pack or when
        the lane is too small (callers :meth:`ensure` first, or fall back
        to pickling).
        """
        return codec.pack_into(self._shm.buf, arrays)

    def read(self, descriptors: Sequence[codec.Descriptor]) -> List[np.ndarray]:
        """Zero-copy NumPy views over arrays previously :meth:`write`-ten.

        The views alias shared memory owned by the peer's current batch:
        consume them before sending the reply frame (or copy), never after.
        """
        return codec.unpack(self._shm.buf, descriptors)

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the block; the owning side also unlinks it. Idempotent.

        Tolerates outstanding NumPy views (:meth:`read` hands out aliases
        of the mapping): unlinking proceeds regardless, and the unmap
        itself completes when the last view is garbage-collected.
        """
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        _dispose(shm, unlink=self._owner)

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except (OSError, FileNotFoundError, BufferError):
            note_teardown_error()


#: Blocks whose unmap was deferred because NumPy views still alias them.
#: Kept referenced (so no __del__ mid-flight) and re-tried opportunistically.
_ZOMBIES: List["shared_memory.SharedMemory"] = []

#: Teardown failures swallowed across the cluster transport (lane close,
#: pipe close, shutdown sends to dead workers). Silent ``except: pass``
#: blocks used to hide these; now every swallow increments this counter,
#: surfaced as ``stats()["ipc"]["teardown_errors"]`` and the
#: ``cluster.teardown_errors`` obs metric.
_TEARDOWN_ERRORS = {"count": 0}


def note_teardown_error() -> None:
    """Record one swallowed teardown failure (cluster-wide counter)."""
    _TEARDOWN_ERRORS["count"] += 1


def teardown_errors() -> int:
    """Teardown failures swallowed so far in this process.

    Returns
    -------
    int
        The running count of swallowed lane/pipe/process teardown
        errors since import.
    """
    return _TEARDOWN_ERRORS["count"]


def _dispose(shm, unlink: bool) -> None:
    """Close (best-effort) and optionally unlink one SharedMemory block.

    A block with live NumPy views cannot unmap yet (``BufferError``); it
    is parked in ``_ZOMBIES`` and re-closed once its views are collected.
    Unlinking is independent of unmapping and always proceeds for owners.
    """
    if unlink:
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
    try:
        shm.close()
    except BufferError:
        _ZOMBIES.append(shm)
    except FileNotFoundError:  # pragma: no cover - already gone
        pass
    for zombie in _ZOMBIES[:]:
        if zombie is shm:
            continue
        try:
            zombie.close()
        except BufferError:
            continue
        _ZOMBIES.remove(zombie)


def attach_lane(name: str) -> ShmLane:
    """Attach to a peer-owned lane by name (worker side).

    CPython < 3.13 registers the attachment with the ``resource_tracker``
    as if this process owned it. Worker processes share the parent's
    tracker (the fd is inherited at fork/spawn), so the duplicate
    registration is a set no-op there and needs no correction; but if
    this process runs its *own* tracker — attaching from an unrelated
    process tree — the segment is unregistered again so this side's exit
    cannot unlink memory the owner still maps.
    """
    shared_tracker = _tracker_running()
    shm = shared_memory.SharedMemory(name=name)
    if not shared_tracker:
        try:  # pragma: no cover - unrelated-process-tree path
            resource_tracker.unregister(shm._name, "shared_memory")
        except (OSError, FileNotFoundError, BufferError, KeyError):
            note_teardown_error()
    return ShmLane(shm=shm)


def _tracker_running() -> bool:
    """Whether a resource tracker connection already exists here — i.e.
    one was inherited from the lane's owner (the normal worker case: both
    fork and spawn children share the parent's tracker fd). Must be
    checked *before* attaching, which would spawn a fresh tracker."""
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    return tracker is not None and getattr(tracker, "_fd", None) is not None
