"""Shared-memory batch lanes: zero-copy NumPy transport between processes.

The cluster's IPC splits every exchange into a tiny *control frame* (a
pickled tuple over a ``multiprocessing`` pipe: the verb, array layout
descriptors, fence/version stamps) and a bulk *payload* that never touches
the pickler: the arrays themselves live in a ``multiprocessing.shared_memory``
block both sides map, so a batch of query keys — or a batch of result
values — crosses the process boundary as one ``memcpy`` in, zero copies
across, and one gather out.

:class:`ShmLane` is one direction of that channel: a named shared-memory
arena the process that writes into it creates, grows and unlinks (the
parent owns each worker's request lane, each worker its own reply lane),
packed in the :mod:`repro.codec` layout and read by the peer as NumPy
views. Lanes are single-flight by protocol — the writer never reuses a
lane until the peer's next frame arrives — so no ring indices or locks
are needed. Before each write the owner grows the lane to the payload's
packed size (:meth:`ShmLane.ensure`); the frame names the block, and the
peer re-attaches when the name changes (:class:`LaneCache`). No payload
is pickled. When an owner dies, the peer unlinks the last name it was
sent (:func:`unlink_lane`); a block created after that is left to the
resource tracker's cleanup at exit.

CPython < 3.13 registers *attached* segments with the per-process
``resource_tracker`` as if it owned them, which makes a worker's exit
unlink memory the parent still maps (and spams leak warnings).
:func:`attach_lane` therefore unregisters the segment right after
attaching when this process runs its own tracker — only the creating
side may unlink.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro import codec

__all__ = [
    "LaneCache",
    "ShmLane",
    "attach_lane",
    "DEFAULT_LANE_CAPACITY",
    "note_teardown_error",
    "teardown_errors",
    "unlink_lane",
]

#: A lane's first size: comfortably holds a 64k-key float64 batch plus
#: masks; a bigger payload grows it.
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
        is too small; the caller ships the new :attr:`name` to the peer in
        the frame that carries the payload. Growth doubles, so a traffic
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
        the lane is too small (callers :meth:`ensure` first).
        """
        return codec.pack_into(self._shm.buf, arrays)

    def read(self, descriptors: Sequence[codec.Descriptor]) -> List[np.ndarray]:
        """Zero-copy NumPy views over arrays previously :meth:`write`-ten.

        The views alias the peer's lane: consume them (or copy) before the
        next frame to that peer, which lets it write the lane again.
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
    """Attach to a peer-owned lane by name.

    CPython < 3.13 registers the attachment with the ``resource_tracker``
    as if this process owned it. The parent and its workers share one
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


def unlink_lane(name: str) -> None:
    """Unlink a lane whose owner is gone (joined), by the name it last sent.

    A ``FileNotFoundError`` means the owner unlinked it on its way out;
    either way a shared resource tracker sees exactly one unregister.
    """
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    _dispose(shm, unlink=True)


class LaneCache:
    """Peer-owned lanes, attached by the name the latest frame carried:
    one per ``side`` (a worker's request lane, the parent's reply lane of
    each shard). The owner reallocates a lane to grow it, so a changed
    name means the old block is gone: the stale attachment is dropped."""

    def __init__(self) -> None:
        self._lanes: Dict[Any, Tuple[str, ShmLane]] = {}

    def lane(self, side: Any, name: str) -> ShmLane:
        """The lane ``name`` for ``side``, (re-)attached lazily."""
        cached = self._lanes.get(side)
        if cached is not None and cached[0] == name:
            return cached[1]
        if cached is not None:
            cached[1].close()
        lane = attach_lane(name)
        self._lanes[side] = (name, lane)
        return lane

    def close_lanes(self) -> None:
        """Drop every cached attachment."""
        for _, lane in self._lanes.values():
            lane.close()
        self._lanes.clear()


def _tracker_running() -> bool:
    """Whether a resource tracker connection already exists here — the
    normal case: the parent started it creating its first request lane,
    and both fork and spawn children share its fd. Must be checked
    *before* attaching, which would spawn a fresh tracker."""
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    return tracker is not None and getattr(tracker, "_fd", None) is not None
