"""The per-shard worker process: rebuild one shard, serve its batch verbs.

Each worker owns exactly one range shard — a paged index rebuilt from the
parent's :meth:`~repro.core.paged_index.PagedIndexBase.to_state` snapshot
(one bulk pass, no re-segmentation) — and runs a blocking request/reply
loop over a ``multiprocessing`` pipe. Bulk payloads travel through the
parent-owned shared-memory lanes (:mod:`repro.cluster.shm`); the pipe
carries only control frames.

Protocol: a request is ``(verb, meta, descriptors)`` and its one reply
``("ok" | "err", version, meta, descriptors)`` — the message shape of the
socket tier's ``Frame(kind, meta, arrays)``, with the arrays left in a
lane and their :mod:`repro.codec` descriptors sent in their place.
``meta`` is a dict on both sides; ``docs/ARCHITECTURE.md`` ("In-flight
encoding") lists its keys per verb.

==============  ====================================================
``get_batch``   answer a key batch from the shard's ``FlatView``:
                values, plus a found mask as a second array unless
                every key hit
``range_batch`` answer ``[lo, hi]`` scans: ``codec.join_pairs`` rows
``insert_batch``  apply a sorted per-shard chunk (the write fence:
                the reply is not sent until the mutation is applied)
``delete_batch``  remove a sorted per-shard chunk under the same fence
                (``PagedIndexBase.pop_batch``); replies deleted values
                (+ found mask) like ``get_batch``
``stats``       the shard index's ``stats()`` dict (``meta["result"]``)
``to_state``    the shard's ``to_state`` snapshot (``meta["result"]``)
``warm``        pre-build the shard's flattened read snapshot
``validate``    full shard validation + routing-range check
``shutdown``    clean exit (replies ``("bye", ...)`` first)
==============  ====================================================

A traced ``get_batch`` (``meta["trace"]``) gets ``meta["spans"]`` back
(:func:`repro.obs.trace.span_record` dicts); nothing else about telemetry
crosses the pipe — the parent profiles the keys it routes.

Every reply carries the shard's monotonic ``version`` stamp, so the
parent-side engine can maintain the engine-wide version barrier the serve
layer's read-your-writes logic depends on. Per-op exceptions are caught
and shipped back pickled (an invalid parameter is the same error on either
side of the process boundary); the loop itself only exits on ``shutdown``
or when the parent disappears (pipe EOF).
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro import codec
from repro.cluster.shm import ShmLane, attach_lane
from repro.core.errors import InvalidParameterError
from repro.core.serialize import index_from_state, register_index_class
from repro.engine.batch import flat_view
from repro.obs.trace import span_record

__all__ = ["shard_worker_main"]

#: The verbs whose arrays ride the lanes.
_BATCH_VERBS = ("get_batch", "range_batch", "delete_batch", "insert_batch")


class _ShardServer:
    """One worker's state: the rebuilt shard index plus cached lanes."""

    def __init__(
        self,
        state: Dict[str, Any],
        lo: Optional[float],
        hi: Optional[float],
        shard_id: int = -1,
    ):
        self.index = index_from_state(state)
        self.lo = lo  # owning cut range, for validate()
        self.hi = hi
        self.shard_id = shard_id  # stamped into traced-reply spans
        self._lanes: Dict[str, Tuple[str, ShmLane]] = {}

    # -- lanes ---------------------------------------------------------

    def lane(self, side: str, name: str) -> ShmLane:
        """The request/response lane named in a frame, (re-)attached lazily.

        The parent may reallocate a lane to grow it; a changed name means
        the old block is gone, so the stale attachment is dropped.
        """
        cached = self._lanes.get(side)
        if cached is not None and cached[0] == name:
            return cached[1]
        if cached is not None:
            cached[1].close()
        lane = attach_lane(name)
        self._lanes[side] = (name, lane)
        return lane

    def close_lanes(self) -> None:
        """Drop every cached lane attachment (worker-exit cleanup)."""
        for _, lane in self._lanes.values():
            lane.close()
        self._lanes.clear()

    # -- verbs ---------------------------------------------------------

    def range_batch(self, los, his, include_lo: bool, include_hi: bool):
        """Per-bound (keys, values) contributions from this shard.

        Parameters
        ----------
        los, his:
            Aligned per-bound lower/upper keys (float64, may alias the
            request lane).

        Returns
        -------
        list of (numpy.ndarray, numpy.ndarray)
            This shard's matching rows per bound, in key order.
        """
        view = flat_view(self.index)
        out = []
        for lo, hi in zip(los, his):
            out.append(view.range_arrays(float(lo), float(hi), include_lo, include_hi))
        return out

    def validate(self) -> None:
        """Shard validation plus the engine routing invariant, vectorized."""
        self.index.validate()
        arrays = self.index.flat_arrays()
        for keys in (arrays["keys"], arrays["buf_keys"]):
            if keys.size == 0:
                continue
            if self.lo is not None and float(keys.min()) < self.lo:
                raise InvalidParameterError(
                    f"shard holds key {keys.min()} below cut {self.lo}"
                )
            if self.hi is not None and float(keys.max()) >= self.hi:
                raise InvalidParameterError(
                    f"shard holds key {keys.max()} at/above cut {self.hi}"
                )

    def warm(self) -> None:
        """Pre-build the flattened read snapshot (first-batch latency)."""
        flat_view(self.index)


def shard_worker_main(
    conn: Any,
    state: Dict[str, Any],
    shard_id: int,
    lo: Optional[float],
    hi: Optional[float],
    index_cls: Any = None,
) -> None:
    """Entry point of one shard worker process (the ``Process`` target).

    Parameters
    ----------
    conn:
        The worker end of the control pipe.
    state:
        The shard's ``to_state`` snapshot to rebuild from.
    shard_id:
        This shard's id (error reporting only).
    lo, hi:
        The shard's owning cut range (``None`` = unbounded), checked by
        the ``validate`` verb.
    index_cls:
        The shard's index class, resolved parent-side. Registered here
        before the rebuild so downstream classes work under ``spawn``
        too (a spawned child re-imports with a freshly seeded registry;
        the parent's ``register_index_class`` calls are not inherited).
    """
    try:
        if index_cls is not None:
            register_index_class(index_cls)
        server = _ShardServer(state, lo, hi, shard_id)
    except BaseException as exc:  # surface rebuild failures to the parent
        try:
            conn.send(("err", 0, {"error": exc}, ()))
        finally:
            conn.close()
        return
    conn.send(("ok", server.index.version, {"ready": True}, ()))
    try:
        while True:
            try:
                frame = conn.recv()
            except EOFError:  # parent died; nothing left to serve
                break
            verb = frame[0]
            if verb == "shutdown":
                conn.send(("bye", server.index.version, {}, ()))
                break
            try:
                reply = _dispatch(server, frame)
            except BaseException as exc:
                reply = ("err", server.index.version, {"error": exc}, ())
            try:
                conn.send(reply)
            except Exception:  # unpicklable reply payload
                exc = RuntimeError(f"unpicklable {verb} reply")
                conn.send(("err", server.index.version, {"error": exc}, ()))
    finally:
        server.close_lanes()
        conn.close()


def _encode_points(resp: ShmLane, values: np.ndarray, found: np.ndarray):
    """A get/delete ``(values, found)`` answer as the reply's
    ``(meta, descriptors)``: the values (the shard's numeric dtype) go
    through the response lane, then the found mask as ``uint8`` unless
    every key hit."""
    if found.all():
        return {"via": "shm"}, resp.write([values])
    return {"via": "shm"}, resp.write([values, found.view(np.uint8)])


def _dispatch(server: _ShardServer, frame: Tuple) -> Tuple:
    """Execute one ``(verb, meta, descriptors)`` request; return the reply."""
    verb, meta, descriptors = frame
    out: Dict[str, Any] = {}
    reply_descriptors: Any = ()  # only get/range/delete answer with arrays
    if verb not in _BATCH_VERBS:
        if verb in ("stats", "to_state"):
            # A ``to_state`` snapshot for the durability layer rides the
            # pipe whole (pickle) — snapshots are rare, size over speed.
            out["result"] = getattr(server.index, verb)()
        elif verb in ("warm", "validate"):
            getattr(server, verb)()
        else:
            raise ValueError(f"unknown verb {verb!r}")
        return ("ok", server.index.version, out, reply_descriptors)
    arrays = server.lane("req", meta["req"]).read(descriptors)
    resp = server.lane("resp", meta["resp"])
    keys = arrays[0]
    if verb == "get_batch":
        t0 = time.perf_counter()
        values, found = flat_view(server.index).lookup_batch(keys)
        compute_s = time.perf_counter() - t0
        out, reply_descriptors = _encode_points(resp, values, found)
        if meta.get("trace") is not None:
            out["spans"] = [
                span_record(
                    "worker.compute",
                    meta["trace"],
                    t0,
                    compute_s,
                    shard=server.shard_id,
                    pid=os.getpid(),
                    n=int(keys.size),
                )
            ]
    elif verb == "range_batch":
        pairs = server.range_batch(
            keys, arrays[1], meta["include_lo"], meta["include_hi"]
        )
        packed = codec.join_pairs(pairs)  # None: object or mixed dtypes
        need = None if packed is None else codec.packed_size(packed)
        if need is not None and need <= resp.capacity:
            out, reply_descriptors = {"via": "shm"}, resp.write(packed)
        else:
            # ``need`` tells the parent what would have fit, so it grows
            # the lane and the next comparable reply goes zero-copy.
            out = {"via": "pickle", "pairs": pairs, "need": need}
    else:
        keys = np.array(keys)  # own the memory before mutating state
        if verb == "delete_batch":
            out, reply_descriptors = _encode_points(
                resp, *server.index.pop_batch(keys, missing=meta["missing"])
            )
        else:
            server.index.insert_batch(keys, np.array(arrays[1]))
    return ("ok", server.index.version, out, reply_descriptors)
