"""ClusterEngine: the ShardedEngine API over multi-process shard workers.

The in-process :class:`~repro.engine.ShardedEngine` is bound by the GIL:
every shard's ``searchsorted``/merge work serializes on one core. The
cluster engine keeps the exact same surface, so :class:`repro.serve.Server`
works over it unchanged — routing, WAL logging, counting, workload
profiling and the verb surface are the shared
:class:`~repro.engine.front.EngineFront`'s — but each range shard lives in
its own worker process (:mod:`repro.cluster.worker`), rebuilt from a
:meth:`~repro.core.paged_index.PagedIndexBase.to_state` snapshot without
re-segmentation. What this class keeps is how those shards are reached:
boot, spawn and restore of workers, the transport and its fenced
rounds. Batch keys and numeric results cross the process boundary through
shared-memory lanes (:mod:`repro.cluster.shm`), each owned by the process
that writes it: this class owns every worker's request lane and attaches
the reply lane each worker names in its replies; the pipes carry only
small control frames.

Consistency across the process hop:

* **Per-batch fences** — every dispatch is a strict request/reply round:
  ``insert_batch`` does not return until every owning worker has applied
  its chunk, so a read submitted after an insert returns sees the write
  (read-your-writes, the same guarantee the serve batcher builds on).
* **Version barrier** — every worker reply carries its shard's monotonic
  ``version`` stamp; the engine-wide :attr:`ClusterEngine.version` (their
  sum) therefore moves exactly as the in-process engine's would.
* **Length** — every reply also carries its shard's ``len()``;
  ``len(engine)`` is the sum of the last ones heard, so a partly applied
  round is counted as the shards applied it.
* **Bit-identical results** — workers answer through the same
  ``FlatView`` read path and ``insert_batch`` write path the in-process
  engine uses, so results and post-write state match ``ShardedEngine``
  exactly (pinned by ``tests/cluster``).

One round rule: every verb is one :meth:`ClusterEngine._round`, under the
engine's one lock — attempt every send, drain every reply that left (a
reply left in a pipe would answer the *next* round), settle crashed
shards, then re-raise the first unsettled failure in shard order.

Failure model: a worker that exits or stops responding surfaces as a typed
:class:`~repro.cluster.errors.ClusterError`
(:class:`~repro.cluster.errors.WorkerCrashedError` names the shard);
errors *inside* a live worker — invalid parameters and friends — are
pickled back and re-raised as themselves. :meth:`close` shuts workers
down cleanly (shutdown frame, join, terminate stragglers) and releases
every shared-memory block: its own request lanes, and the last reply lane
each worker named (a worker that exits cleanly unlinks it first).

With a :class:`repro.wal.WalStore` attached (:meth:`attach_wal`), the
failure model upgrades from fail-stop to **restart-on-crash**: every
write chunk is logged and group-committed *before* dispatch, so a dead
worker is respawned from one shard state the parent computes from disk —
the latest snapshot plus the shard's committed WAL records, replayed as a
reopen replays them (:meth:`repro.wal.WalStore.shard_state`) — inside the
round that found it dead. Each verb says how a restored shard answers: a
read re-sends once; an insert whose worker died is applied by that
replay; a delete whose reply died with the worker answers from the replay
of its own record. A timed-out (poisoned) worker
becomes recoverable the same way: its process is killed and restored
instead of being permanently fenced off.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import threading
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import codec
from repro.cluster.errors import ClusterError, WorkerCrashedError
from repro.cluster.shm import (
    LaneCache,
    ShmLane,
    note_teardown_error,
    teardown_errors,
    unlink_lane,
)
from repro.cluster.worker import shard_worker_main
from repro.core.errors import InvalidParameterError
from repro.core.serialize import _registry
from repro.engine.engine import ShardedEngine
from repro.engine.front import EngineFront
from repro.engine.scatter import (
    gather_lookups,
    split_points,
    split_ranges,
    stitch_ranges,
)

__all__ = ["ClusterEngine"]

#: ``stats()`` view counters: the views live in the workers.
_NO_VIEWS = dict.fromkeys(
    ("view_hits", "view_builds", "view_patches", "view_full_rebuilds",
     "view_skips"),
    0,
)


class _WorkerHandle:
    """Parent-side bookkeeping for one shard worker."""

    __slots__ = ("process", "conn", "req", "resp")

    def __init__(self, process, conn, req: ShmLane):
        self.process = process
        self.conn = conn
        self.req = req
        #: The last reply-lane name the worker sent (``None`` until ready).
        self.resp: Optional[str] = None


class ClusterEngine(EngineFront):
    """Multi-process shard executors behind the ShardedEngine API.

    Parameters
    ----------
    keys, values, n_shards, error, buffer_capacity, index_factory,
    index_kwargs:
        As for :class:`~repro.engine.ShardedEngine`; the build happens
        in-process first (segmentation runs once), each shard is
        snapshotted into its worker, and the in-process copy is dropped.
        One worker per effective shard. A custom ``index_factory``'s
        class must be snapshot-capable and registered
        (``repro.core.serialize.register_index_class``).
    mp_context:
        ``multiprocessing`` start method (``"fork"``/``"spawn"``/ a
        context object). Default: ``"fork"`` where available (cheap
        worker startup), else ``"spawn"``.
    op_timeout:
        Seconds to wait for a worker's reply before declaring it hung
        (raises :class:`~repro.cluster.errors.ClusterError`).
    telemetry:
        Optional :class:`repro.obs.Telemetry` bundle. ``None`` (default)
        keeps the wire protocol and hot paths exactly as before. In
        ``"full"`` mode, ``get_batch`` frames carry the trace context
        across the shm boundary and worker replies carry back
        ``worker.compute`` spans, stitched into the parent's tracer.

    Examples
    --------
    >>> import numpy as np
    >>> keys = np.sort(np.random.default_rng(0).uniform(0, 1e6, 100_000))
    >>> with ClusterEngine(keys, n_shards=2, error=128) as engine:
    ...     bool((engine.get_batch(keys[:512]) == np.arange(512)).all())
    True
    """

    _backend = "cluster"
    _get_span = "cluster.get_batch"
    _closed = True  # nothing to release until _boot accepts its states

    def __init__(
        self,
        keys=None,
        values=None,
        *,
        n_shards: int = 4,
        error: float = 64.0,
        buffer_capacity: Optional[int] = None,
        index_factory: Any = None,
        mp_context: Any = None,
        op_timeout: float = 120.0,
        telemetry: Any = None,
        **index_kwargs: Any,
    ) -> None:
        proto = ShardedEngine(
            keys,
            values,
            n_shards=n_shards,
            index_factory=index_factory,
            error=error,
            buffer_capacity=buffer_capacity,
            **index_kwargs,
        )
        self._boot(
            proto.to_states(),
            mp_context=mp_context,
            op_timeout=op_timeout,
            telemetry=telemetry,
        )

    @classmethod
    def from_engine(
        cls,
        engine: ShardedEngine,
        *,
        mp_context: Any = None,
        op_timeout: float = 120.0,
        telemetry: Any = None,
    ) -> "ClusterEngine":
        """Promote a live in-process engine to a multi-process cluster.

        The source engine is snapshotted, not adopted: it stays fully
        usable, and the two evolve independently afterwards.

        Parameters
        ----------
        engine:
            The :class:`~repro.engine.ShardedEngine` to snapshot.
        mp_context, op_timeout, telemetry:
            As for the constructor (the source engine's own telemetry, if
            any, is not adopted).

        Returns
        -------
        ClusterEngine
            A cluster whose workers hold bit-identical shard states.
        """
        return cls.from_states(
            engine.to_states(),
            mp_context=mp_context,
            op_timeout=op_timeout,
            telemetry=telemetry,
        )

    @classmethod
    def from_states(
        cls,
        states: Dict[str, Any],
        *,
        mp_context: Any = None,
        op_timeout: float = 120.0,
        telemetry: Any = None,
    ) -> "ClusterEngine":
        """Boot a cluster straight from a whole-engine states dict.

        This is the recovery entry point: ``open_engine`` feeds it the
        snapshot states a :class:`repro.wal.WalStore` recovered (after
        replaying the committed WAL tail in-process), skipping the
        segmentation pass the keyed constructor would run.

        Parameters
        ----------
        states:
            A whole-engine snapshot as produced by either engine's
            ``to_states`` — ``cuts``, ``auto_rowid``, ``next_rowid`` and
            one ``to_state`` dict per shard.
        mp_context, op_timeout, telemetry:
            As for the constructor.

        Returns
        -------
        ClusterEngine
            A cluster whose workers hold exactly the given shard states.
        """
        obj = cls.__new__(cls)
        obj._boot(
            states,
            mp_context=mp_context,
            op_timeout=op_timeout,
            telemetry=telemetry,
        )
        return obj

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _boot(self, states: Dict[str, Any], *, mp_context, op_timeout,
              telemetry=None) -> None:
        shard_states = states["shards"]
        self._init_front(
            states["cuts"], states["auto_rowid"], states["next_rowid"],
            telemetry, [np.dtype(s["values_dtype"]) for s in shard_states],
        )
        if isinstance(mp_context, str) or mp_context is None:
            method = mp_context or (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
            ctx = mp.get_context(method)
        else:
            ctx = mp_context
        self._ctx = ctx
        #: Last-known element count per shard: the ``n`` of its worker's
        #: latest reply (a dead shard keeps the last one it sent).
        self._shard_ns: List[int] = [int(s["n"]) for s in shard_states]
        #: Shards built read-only (``buffer_capacity=0``): a write they
        #: own is refused before it is logged, as the worker would after.
        self._read_only: List[bool] = [
            s["params"].get("buffer_capacity") == 0 for s in shard_states
        ]
        self._op_timeout = float(op_timeout)
        self._closed = False
        #: Shards whose reply stream can no longer be trusted (a timed-out
        #: round may deliver its reply later); fenced off until a worker
        #: restore (durable engines) replaces the process outright.
        self._poisoned: set = set()
        self._versions: List[int] = [int(s["version"]) for s in shard_states]
        #: Held around every round: one round at a time on every pipe.
        self._lock = threading.Lock()
        #: Transport counters, mutated under ``_lock``.
        self._ipc = {"batches": 0, "pickle_fallbacks": 0, "lane_growths": 0}
        #: The parent's attachments of the workers' reply lanes, by shard.
        self._lanes = LaneCache()
        self._workers: List[_WorkerHandle] = []
        try:
            for sid, state in enumerate(shard_states):
                self._workers.append(self._spawn_worker(sid, state))
            for sid in range(len(self._workers)):
                self._await_ready(sid)
        except BaseException:
            self.close()
            raise

    def _spawn_worker(self, sid: int, state: Dict[str, Any]) -> _WorkerHandle:
        """Create one shard worker (pipe, request lane, process).

        On any failure every resource this call created — the lane, pipe
        ends, a started process — is released before re-raising, so a
        partial spawn can never leak (the caller's cleanup only covers
        fully-constructed handles).
        """
        cuts = self.cuts
        lo = float(cuts[sid - 1]) if sid > 0 else None
        hi = float(cuts[sid]) if sid < cuts.size else None
        parent_conn = child_conn = req = process = None
        try:
            parent_conn, child_conn = self._ctx.Pipe()
            req = ShmLane()
            # Resolve the shard's class here and ship it with the
            # snapshot: a spawn-context child re-imports with a fresh
            # registry, so parent-side register_index_class calls
            # would otherwise be invisible to it.
            index_cls = _registry().get(state["index_cls"])
            process = self._ctx.Process(
                target=shard_worker_main,
                args=(child_conn, state, sid, lo, hi, index_cls),
                daemon=True,
                name=f"repro-shard-{sid}",
            )
            process.start()
            child_conn.close()
            return _WorkerHandle(process, parent_conn, req)
        except BaseException:
            if req is not None:
                req.close()
            for conn in (parent_conn, child_conn):
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        note_teardown_error()
            if process is not None and process.is_alive():
                process.terminate()
                process.join(1.0)
            raise

    def _await_ready(self, sid: int) -> None:
        """Block until shard ``sid``'s worker reports ready."""
        meta, _ = self._recv(sid)
        if not meta.get("ready"):
            raise ClusterError(
                f"shard {sid} worker failed to start: {meta!r}"
            )

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def _shard_states(self) -> List[Dict[str, Any]]:
        return self._broadcast("to_state")  # pulled live from the workers

    def _maybe_snapshot(self) -> None:
        """Roll a snapshot when the WAL is due (called at safe points,
        after a verb completed and without the engine lock held)."""
        if self._wal is None:
            return
        try:
            self._wal.maybe_snapshot()
        except ClusterError:
            # A worker died mid-pull: the previous generation's manifest
            # is still intact and the next verb will surface (and, with
            # durability on, recover) the crash. Skipping the snapshot
            # is always safe — the tail just stays longer.
            pass

    def _release_worker(self, sid: int) -> None:
        """Release shard ``sid``'s joined worker's pipe, its request lane
        and the last reply lane it named (already unlinked if it exited
        cleanly)."""
        worker = self._workers[sid]
        try:
            worker.conn.close()
        except OSError:
            note_teardown_error()
        worker.req.close()
        if worker.resp is not None:
            unlink_lane(worker.resp)

    def _restore_worker(self, sid: int, answer_lsn: Optional[int] = None) -> Any:
        """Respawn shard ``sid``'s worker from the shard's committed state.

        The caller holds the engine lock. The dead process is killed and
        joined, its pipe and lanes released, and a fresh worker boots from
        :meth:`~repro.wal.WalStore.shard_state` — the shard's snapshot
        plus its committed records, replayed in the parent — so it holds
        exactly what the crashed one durably held, this round's logged
        chunk included.

        Parameters
        ----------
        sid:
            The shard whose worker died.
        answer_lsn:
            A record of this shard whose replay outcome to return (a
            delete whose reply payload died with the worker).

        Returns
        -------
        object
            ``shard_state``'s answer for ``answer_lsn`` (``None`` without
            one).
        """
        if self._wal is None:
            raise self._crash(
                sid, "no durability store attached; cannot restore"
            )
        process = self._workers[sid].process
        if process.is_alive():
            process.terminate()
        process.join(5.0)
        self._release_worker(sid)
        # The snapshot's version stamp may trail the versions the parent
        # already acknowledged; keep the engine-wide barrier monotonic.
        state, answer = self._wal.shard_state(
            sid, version=self._versions[sid], answer_lsn=answer_lsn
        )
        self._workers[sid] = self._spawn_worker(sid, state)
        self._poisoned.discard(sid)
        self._await_ready(sid)
        return answer

    def _register_sources(self, reg: Any) -> None:
        reg.register_callback(
            "repro_cluster_ipc", self._collect_ipc,
            "Cluster transport counters.",
            labels=("counter",),
        )
        reg.register_callback(
            "repro_cluster_size", self._collect_size,
            "Cluster size gauges from parent-side cached state "
            "(no worker round-trip at collection time).",
            labels=("field",),
        )

    def _collect_ipc(self) -> Dict[str, float]:
        # ``pickle_fallbacks`` stays in the stats schema and reads 0: no
        # payload is pickled.
        return {**self._ipc, "teardown_errors": teardown_errors()}

    def _collect_size(self) -> Dict[str, float]:
        return {
            "n": len(self),
            "n_shards": self.n_shards,
            "version": self.version,
            "workers_alive": sum(
                1 for w in self._workers if w.process.is_alive()
            ),
        }

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self, timeout: float = 5.0) -> None:
        """Shut every worker down and release all IPC resources.

        Sends each worker a shutdown frame, joins it for up to
        ``timeout`` seconds, terminates stragglers, then closes pipes and
        releases every lane (:meth:`_release_worker`). Idempotent; the
        engine is unusable afterwards (operations raise
        :class:`~repro.cluster.errors.ClusterError`).
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(("shutdown", {}, ()))
            except (BrokenPipeError, OSError):
                # Expected for already-dead workers; recorded, not silent.
                note_teardown_error()
        for sid, worker in enumerate(self._workers):
            process = worker.process
            process.join(timeout)
            if process.is_alive():  # pragma: no cover - hung worker path
                process.terminate()
                process.join(timeout)
            self._release_worker(sid)
        self._lanes.close_lanes()
        super().close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close(timeout=1.0)
        except (OSError, FileNotFoundError, BufferError):
            note_teardown_error()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ClusterError("engine is closed")

    def _crash(self, sid: int, detail: str = "") -> WorkerCrashedError:
        process = self._workers[sid].process
        return WorkerCrashedError(sid, process.exitcode, detail)

    def _check_in_step(self, sid: int) -> None:
        if sid in self._poisoned:
            raise ClusterError(
                f"shard {sid} worker is in an unknown state after an "
                "earlier timeout; the request/reply protocol cannot resync"
            )

    def _send(self, sid: int, frame: Tuple) -> None:
        self._check_in_step(sid)
        try:
            self._workers[sid].conn.send(frame)
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise self._crash(sid, str(exc)) from exc

    def _recv(self, sid: int) -> Tuple:
        """One reply from shard ``sid`` as ``(meta, descriptors)``; its
        version stamp and length are recorded and an ``"err"`` reply
        re-raised here."""
        self._check_in_step(sid)
        conn = self._workers[sid].conn
        try:
            if not conn.poll(self._op_timeout):
                # The worker may still reply later; one unconsumed reply
                # would desync every subsequent round, so this worker is
                # permanently poisoned rather than half-trusted.
                self._poisoned.add(sid)
                raise ClusterError(
                    f"shard {sid} worker unresponsive after "
                    f"{self._op_timeout}s"
                )
            reply = conn.recv()
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise self._crash(sid, str(exc)) from exc
        status, version, meta, descriptors, n = reply
        self._versions[sid] = max(self._versions[sid], int(version))
        if n is not None:  # None: a worker that failed to build its shard
            self._shard_ns[sid] = n
        name = meta.get("resp")
        if name is not None:
            worker = self._workers[sid]
            if worker.resp not in (None, name):  # the worker grew its lane
                self._ipc["lane_growths"] += 1
            worker.resp = name
        if status == "err":
            raise meta["error"]
        return meta, descriptors

    def _round(
        self,
        thunks: Dict[int, Callable[[], None]],
        recover: Optional[Callable[[int], Any]] = None,
    ) -> Dict[int, Any]:
        """One fenced round: the only code that sends, drains and settles.

        ``thunks`` maps shard id → send thunk. Every send is *attempted*
        (a failed one must not strand its siblings: a write's chunks are
        already logged), then every reply that left is drained — a reply
        left in a pipe would be taken for the *next* round's answer, one
        round behind, acknowledging fences that did not happen.

        On a durable engine, each shard that failed with a
        :class:`ClusterError` (dead, or poisoned by a timeout) is handed to
        ``recover(sid)``, which restores its worker; what ``recover``
        returns stands in for that shard's reply, or is the exception the
        verb must raise. Then the first unsettled failure re-raises, in
        shard order.

        Returns
        -------
        dict
            Shard id → ``(meta, descriptors)`` (or ``recover``'s answer).
        """
        errors: Dict[int, BaseException] = {}
        sent: List[int] = []
        for sid, send in thunks.items():
            try:
                send()
                sent.append(sid)
            except BaseException as exc:
                errors[sid] = exc
        replies: Dict[int, Any] = {}
        for sid in sent:
            try:
                replies[sid] = self._recv(sid)
            except BaseException as exc:
                errors[sid] = exc
        if recover is not None and self._wal is not None:
            for sid in sorted(errors):
                if isinstance(errors[sid], ClusterError):
                    answer = recover(sid)
                    if isinstance(answer, BaseException):
                        errors[sid] = answer
                    else:
                        replies[sid] = answer
                        del errors[sid]
        if errors:
            raise errors[min(errors)]
        return replies

    def _resend(self, thunks: Dict[int, Callable[[], None]], sid: int) -> Tuple:
        """A read round's ``recover``: restore shard ``sid``'s worker and
        send it the same request once more (a second failure
        propagates)."""
        self._restore_worker(sid)
        thunks[sid]()
        return self._recv(sid)

    def _post(self, sid: int, verb: str, meta: Dict[str, Any], arrays) -> None:
        """Send one batch request: ``arrays`` into the request lane (grown
        first when too small), ``(verb, meta, descriptors)`` down the pipe
        with the lane's name added to ``meta``."""
        worker = self._workers[sid]
        if worker.req.ensure(codec.packed_size(arrays)):
            self._ipc["lane_growths"] += 1
        descriptors = worker.req.write(arrays)
        self._ipc["batches"] += 1
        self._send(sid, (verb, {"req": worker.req.name, **meta}, descriptors))

    def _reply_arrays(self, sid: int, reply: Tuple) -> List[np.ndarray]:
        """Zero-copy views of one reply's arrays in the reply lane it
        names; consume them before the next round reuses the lane."""
        meta, descriptors = reply
        return self._lanes.lane(sid, meta["resp"]).read(descriptors)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def shard_versions(self) -> Tuple[int, ...]:
        """Last-known per-shard version stamps (one per worker), kept from
        the stamp every worker reply carries — so :attr:`version` moves
        exactly as the in-process engine's would and the serve layer's
        flush barrier works unchanged across the process hop."""
        return tuple(self._versions)

    def __len__(self) -> int:
        return sum(self._shard_ns)

    def _stats_parts(self) -> Tuple[List[Dict[str, Any]], list, dict, dict]:
        per_shard = self._broadcast("stats")  # live, from the workers
        workers = [
            {"pid": w.process.pid, "alive": w.process.is_alive()}
            for w in self._workers
        ]
        return per_shard, workers, self._collect_ipc(), _NO_VIEWS

    def warm(self) -> None:
        """Pre-build every worker's flattened read snapshot."""
        self._check_open()
        self._broadcast("warm")

    def validate(self) -> None:
        """Validate every shard in its worker, plus the routing invariant
        (each worker checks its keys stay inside its cut range)."""
        self._check_open()
        self._broadcast("validate")

    def _broadcast(self, verb: str) -> List[Any]:
        """Send one control verb to every worker; gather each reply's
        ``meta["result"]`` (``None`` for warm/validate) in shard order."""
        with self._lock:
            replies = self._round(
                {sid: partial(self._send, sid, (verb, {}, ()))
                 for sid in range(self.n_shards)}
            )
        return [replies[sid][0].get("result") for sid in range(self.n_shards)]

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def _lookup(self, q: np.ndarray, span: Any) -> Tuple[np.ndarray, np.ndarray]:
        """One fenced point-read round: request-order ``(values, found)``
        from the per-worker ``(values, found)`` replies.

        The batch is routed with one ``searchsorted`` over the cuts; each
        owning worker receives its whole sub-batch through its
        shared-memory lane and every worker computes concurrently
        (separate interpreters — no GIL serialization). With ``span`` (a
        traced call) its context rides each request's ``meta["trace"]``,
        worker replies carry back their ``worker.compute`` spans in
        ``meta["spans"]`` for stitching, and the parent-side
        decode/scatter is recorded as a ``cluster.gather`` child span.
        """
        if q.size == 0:
            return np.empty(0, dtype=self._values_dtype), np.ones(0, dtype=bool)
        groups = split_points(self.cuts, q)
        tracer = None if span is None else self._telemetry.tracer
        meta = {} if span is None else {"trace": (span.trace_id, span.span_id)}
        thunks = {
            i: partial(self._post, i, "get_batch", meta, [q[idx]])
            for i, idx in groups
        }
        with self._lock:
            replies = self._round(thunks, partial(self._resend, thunks))
            gather_span = contextlib.nullcontext()
            if tracer is not None:
                for i, _idx in groups:
                    tracer.ingest(replies[i][0].get("spans", ()))
                gather_span = tracer.span("cluster.gather", shards=len(groups))
            # Gather while the lock pins the reply lanes (the parts hold
            # zero-copy lane views).
            with gather_span:
                parts = [
                    (idx, *self._read_points(i, replies[i])) for i, idx in groups
                ]
                return gather_lookups(q.size, parts)

    def _read_points(
        self, sid: int, reply: Tuple
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(values, found)`` of one get/delete reply (``found`` is
        ``None`` when every key hit)."""
        # Returned arrays are zero-copy views of the reply lane; the
        # gather into the caller's output array is the one copy they get
        # and happens before the lane is ever reused (ops are strict
        # request/reply rounds under the engine lock).
        values, *mask = self._reply_arrays(sid, reply)
        return values, (mask[0].view(np.bool_) if mask else None)

    # ------------------------------------------------------------------
    # Range scans
    # ------------------------------------------------------------------

    def _range(
        self, bounds: np.ndarray, include_lo: bool, include_hi: bool
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        # Each worker receives only the bounds overlapping its cut range,
        # scans them concurrently with the others and replies with its
        # rows per bound; the rows stitch in shard order, which is key
        # order.
        bounds, jobs = split_ranges(self.cuts, bounds)
        if bounds.shape[0] == 0:
            return []
        meta = {"include_lo": include_lo, "include_hi": include_hi}
        thunks = {
            sid: partial(self._post, sid, "range_batch", meta,
                         [bounds[idx, 0], bounds[idx, 1]])
            for sid, idx in jobs
        }
        with self._lock:
            raw = self._round(thunks, partial(self._resend, thunks))
            # Copied once out of the lane: the rows outlive the round.
            parts = [
                (idx, codec.split_pairs(
                    *(np.array(a) for a in self._reply_arrays(sid, raw[sid]))
                ))
                for sid, idx in jobs
            ]
        return stitch_ranges(bounds.shape[0], parts, self._values_dtype)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def _check_writable(self, sid: int) -> None:
        if self._read_only[sid]:
            raise InvalidParameterError(
                "index built with buffer_capacity=0 is read-only"
            )

    def _insert_sorted(
        self, keys: np.ndarray, values: np.ndarray, jobs: List[Tuple[int, int, int]]
    ) -> None:
        """Dispatch and fence one committed :func:`split_sorted` insert plan."""
        thunks = {
            sid: partial(self._post, sid, "insert_batch", {},
                         [keys[a:b], values[a:b]])
            for sid, a, b in jobs
        }
        # The fence: every owning worker has replied (i.e. applied its
        # chunk) before this returns. A crashed worker's restore replays
        # the shard's committed records — this round's chunk included, so
        # the insert is applied, not lost.
        with self._lock:
            self._round(thunks, self._restore_worker)

    def _delete_sorted(
        self, order: np.ndarray, keys: np.ndarray,
        jobs: List[Tuple[int, int, int]], missing: str, lsns: Dict[int, int],
    ) -> List[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
        """Dispatch and fence one committed delete plan: the
        ``(positions, values, found)`` part of each owning worker's reply,
        copied out of its reply lane (a worker whose crash took the
        reply answers from the parent-side replay of record
        ``lsns[sid]`` that restores it — its deleted values, or the
        strict delete's miss)."""
        thunks = {
            sid: partial(self._post, sid, "delete_batch", {"missing": missing},
                         [keys[a:b]])
            for sid, a, b in jobs
        }
        with self._lock:
            replies = self._round(
                thunks, lambda sid: self._restore_worker(sid, lsns[sid])
            )
            parts = []
            for sid, a, b in jobs:
                reply = replies[sid]
                # A replayed answer is already ``(values, found)`` arrays.
                values, found = (
                    reply if isinstance(reply[0], np.ndarray)
                    else self._read_points(sid, reply)
                )
                if found is not None:
                    found = found.copy()
                parts.append((order[a:b], values.copy(), found))
        return parts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"ClusterEngine(n={len(self)}, workers={len(self._workers)}, "
            f"{state})"
        )
