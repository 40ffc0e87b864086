"""The per-shard worker process: rebuild one shard, serve its batch verbs.

Each worker owns exactly one range shard — a paged index rebuilt from the
parent's :meth:`~repro.core.paged_index.PagedIndexBase.to_state` snapshot
(one bulk pass, no re-segmentation) — and runs a blocking request/reply
loop over a ``multiprocessing`` pipe. Bulk payloads travel through
shared-memory lanes (:mod:`repro.cluster.shm`), each owned by the process
that writes it: a request arrives in the parent's request lane, named in
the request's ``meta["req"]``; the worker creates its own reply lane once
its shard is built, grows it to each answer's packed size before writing,
and names it in its ready reply and in every reply that carries arrays
(``meta["resp"]``). The pipe carries only control frames, and the
shard's boot state: a worker forked from the parent inherits it, while
a worker under a start method that pickles the process object
(``spawn``, ``forkserver``) sends a hello reply once imported and reads
its state from the parent's ``("boot", {"state", "index_cls"}, ())``
answer. A clean exit unlinks the reply lane here; after a crash the
parent unlinks the last name it was sent, and a block created after that
(a growth whose reply never left) is left to the resource tracker's
cleanup at exit.

Protocol: a request is ``(verb, meta, descriptors)`` and its one reply
``(status, version, meta, descriptors, n)`` with ``status`` one of
``"ok"``/``"err"``/``"bye"`` — the message shape of the socket tier's
``Frame(kind, meta, arrays)``, with the arrays left in a lane and their
:mod:`repro.codec` descriptors sent in their place. ``meta`` is a dict on
both sides; ``docs/ARCHITECTURE.md`` ("In-flight encoding") lists its keys
per verb. :func:`_dispatch` builds the first four fields; the reply loop
appends ``n``, the shard's ``len()`` after the verb ran.

==============  ====================================================
``get_batch``   answer a key batch from the shard's ``FlatView``:
                values, plus a found mask as a second array unless
                every key hit
``range_batch`` answer ``[lo, hi]`` scans: ``[counts, keys, values]``,
                the rows ``FlatView.range_rows`` gathered
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

Every reply — ready, ok, err and bye alike — carries the shard's
monotonic ``version`` stamp, so the parent-side engine can maintain the
engine-wide version barrier the serve layer's read-your-writes logic
depends on, and its length ``n``, so the parent's ``len()`` is whatever
the shards last said, a partly applied write included. Per-op exceptions
are caught and shipped back pickled (an invalid parameter is the same
error on either side of the process boundary); the loop itself only exits
on ``shutdown`` or when the parent disappears (pipe EOF).
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro import codec
from repro.cluster.shm import LaneCache, ShmLane
from repro.core.errors import InvalidParameterError
from repro.core.serialize import index_from_state, register_index_class
from repro.engine.batch import flat_view
from repro.obs.trace import span_record

__all__ = ["shard_worker_main"]

#: The verbs whose arrays ride the lanes.
_BATCH_VERBS = ("get_batch", "range_batch", "delete_batch", "insert_batch")


class _ShardServer(LaneCache):
    """One worker's state: the rebuilt shard index, its reply lane and
    the attached request lane (the inherited :class:`LaneCache`)."""

    def __init__(
        self,
        state: Dict[str, Any],
        lo: Optional[float],
        hi: Optional[float],
        shard_id: int = -1,
    ):
        super().__init__()
        self.index = index_from_state(state)
        self.lo = lo  # owning cut range, for validate()
        self.hi = hi
        self.shard_id = shard_id  # stamped into traced-reply spans
        #: This worker's reply lane: created, grown and unlinked here.
        self.resp = ShmLane()

    # -- lanes ---------------------------------------------------------

    def reply(self, arrays) -> Tuple[Dict[str, Any], Any]:
        """``arrays`` as a reply's ``(meta, descriptors)``: written to the
        reply lane, grown to their packed size first, and named."""
        self.resp.ensure(codec.packed_size(arrays))
        return {"resp": self.resp.name}, self.resp.write(arrays)

    def close_lanes(self) -> None:
        """Drop every attachment and unlink the reply lane (worker-exit
        cleanup)."""
        super().close_lanes()
        self.resp.close()

    # -- verbs ---------------------------------------------------------

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
    boot: Optional[Dict[str, Any]],
    shard_id: int,
    lo: Optional[float],
    hi: Optional[float],
) -> None:
    """Entry point of one shard worker process (the ``Process`` target).

    Parameters
    ----------
    conn:
        The worker end of the control pipe.
    boot:
        ``{"state": ..., "index_cls": ...}``: the shard's ``to_state``
        snapshot to rebuild from, and its index class, resolved
        parent-side and registered here before the rebuild so downstream
        classes work under ``spawn`` too (a spawned child re-imports with
        a freshly seeded registry; the parent's ``register_index_class``
        calls are not inherited). ``None`` under a start method that
        pickles the process object: the worker then sends a hello reply
        and reads the dict from a ``("boot", boot, ())`` frame.
    shard_id:
        This shard's id (error reporting only).
    lo, hi:
        The shard's owning cut range (``None`` = unbounded), checked by
        the ``validate`` verb.
    """
    try:
        if boot is None:
            conn.send(("ok", 0, {"hello": True}, (), None))
            boot = conn.recv()[1]
        if boot["index_cls"] is not None:
            register_index_class(boot["index_cls"])
        server = _ShardServer(boot["state"], lo, hi, shard_id)
    except EOFError:  # the parent gave up before sending the state
        conn.close()
        return
    except BaseException as exc:  # surface rebuild failures to the parent
        try:
            # No shard was built, so no length: ``None`` keeps the
            # parent's last-known count.
            conn.send(("err", 0, {"error": exc}, (), None))
        finally:
            conn.close()
        return

    def send(reply: Tuple) -> None:
        conn.send((*reply, len(server.index)))

    try:
        ready = {"ready": True, "resp": server.resp.name}
        send(("ok", server.index.version, ready, ()))
        while True:
            try:
                frame = conn.recv()
            except EOFError:  # parent died; nothing left to serve
                break
            verb = frame[0]
            if verb == "shutdown":
                send(("bye", server.index.version, {}, ()))
                break
            try:
                reply = _dispatch(server, frame)
            except BaseException as exc:
                reply = ("err", server.index.version, {"error": exc}, ())
            try:
                send(reply)
            except Exception:  # unpicklable reply payload
                exc = RuntimeError(f"unpicklable {verb} reply")
                send(("err", server.index.version, {"error": exc}, ()))
    finally:
        server.close_lanes()
        conn.close()


def _points(values: np.ndarray, found: np.ndarray) -> list:
    """A get/delete ``(values, found)`` answer's arrays: the values (the
    shard's numeric dtype), then the found mask as ``uint8`` unless every
    key hit."""
    return [values] if found.all() else [values, found.view(np.uint8)]


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
    keys = arrays[0]
    if verb == "get_batch":
        t0 = time.perf_counter()
        values, found = flat_view(server.index).lookup_batch(keys)
        compute_s = time.perf_counter() - t0
        out, reply_descriptors = server.reply(_points(values, found))
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
        ends, rows_keys, rows_values = flat_view(server.index).range_rows(
            np.column_stack((keys, arrays[1])),
            meta["include_lo"],
            meta["include_hi"],
        )
        out, reply_descriptors = server.reply(
            [np.diff(ends, prepend=0), rows_keys, rows_values]
        )
    else:
        keys = np.array(keys)  # own the memory before mutating state
        if verb == "delete_batch":
            out, reply_descriptors = server.reply(
                _points(*server.index.pop_batch(keys, missing=meta["missing"]))
            )
        else:
            server.index.insert_batch(keys, np.array(arrays[1]))
    return ("ok", server.index.version, out, reply_descriptors)
