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
boot, spawn, restore and replay of workers, the transport and its fenced
rounds. Batch keys and numeric results cross the process boundary through
shared-memory lanes (:mod:`repro.cluster.shm`); the pipes carry only small
control frames.

Consistency across the process hop:

* **Per-batch fences** — every dispatch is a strict request/reply round:
  ``insert_batch`` does not return until every owning worker has applied
  its chunk, so a read submitted after an insert returns sees the write
  (read-your-writes, the same guarantee the serve batcher builds on).
* **Version barrier** — every worker reply carries its shard's monotonic
  ``version`` stamp; the engine-wide :attr:`ClusterEngine.version` (their
  sum) therefore moves exactly as the in-process engine's would.
* **Bit-identical results** — workers answer through the same
  ``FlatView`` read path and ``insert_batch`` write path the in-process
  engine uses, so results and post-write state match ``ShardedEngine``
  exactly (pinned by ``tests/cluster``).

Failure model: a worker that exits or stops responding surfaces as a typed
:class:`~repro.cluster.errors.ClusterError`
(:class:`~repro.cluster.errors.WorkerCrashedError` names the shard);
errors *inside* a live worker — invalid parameters and friends — are
pickled back and re-raised as themselves. :meth:`close` shuts workers
down cleanly (shutdown frame, join, terminate stragglers) and releases
every shared-memory block.

With a :class:`repro.wal.WalStore` attached (:meth:`attach_wal`), the
failure model upgrades from fail-stop to **restart-on-crash**: every
write chunk is logged and group-committed *before* dispatch, so a dead
worker is respawned from the latest snapshot plus the committed WAL tail
and the round re-fences. Reads retry transparently; an insert whose
worker died is re-applied from the log; a delete whose reply died with
the worker raises :class:`~repro.cluster.errors.WorkerRecoveredError`
(the deletion is durably applied — only the returned values were lost).
A timed-out (poisoned) worker becomes recoverable the same way: its
process is killed and restored instead of being permanently fenced off.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import threading
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import codec
from repro.cluster.errors import (
    ClusterError,
    WorkerCrashedError,
    WorkerRecoveredError,
)
from repro.cluster.shm import (
    DEFAULT_LANE_CAPACITY,
    ShmLane,
    note_teardown_error,
    teardown_errors,
)
from repro.cluster.worker import shard_worker_main
from repro.core.errors import InvalidParameterError, KeyNotFoundError
from repro.core.serialize import _registry
from repro.engine.engine import ShardedEngine
from repro.engine.front import EngineFront
from repro.engine.scatter import (
    gather_lookups,
    split_points,
    split_ranges,
    stitch_ranges,
)
from repro.wal.format import OP_DELETE, OP_INSERT

__all__ = ["ClusterEngine"]

#: ``stats()`` view counters: the views live in the workers.
_NO_VIEWS = dict.fromkeys(
    ("view_hits", "view_builds", "view_patches", "view_full_rebuilds"), 0
)


class _WorkerHandle:
    """Parent-side bookkeeping for one shard worker."""

    __slots__ = ("process", "conn", "req", "resp", "lock", "lo", "hi", "ipc")

    def __init__(self, process, conn, req: ShmLane, resp: ShmLane, lo, hi):
        self.process = process
        self.conn = conn
        self.req = req
        self.resp = resp
        self.lock = threading.Lock()
        self.lo = lo
        self.hi = hi
        #: Transport counters; only ever mutated under ``lock`` (engine
        #: stats sum across workers).
        self.ipc = {"batches": 0, "pickle_fallbacks": 0, "lane_growths": 0}


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
    lane_capacity:
        Initial bytes per shared-memory lane (two per worker); lanes
        grow geometrically on demand.
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
    _retain_tail = True  # a crashed worker is respawned from the tail
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
        lane_capacity: int = DEFAULT_LANE_CAPACITY,
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
            lane_capacity=lane_capacity,
            op_timeout=op_timeout,
            telemetry=telemetry,
        )

    @classmethod
    def from_engine(
        cls,
        engine: ShardedEngine,
        *,
        mp_context: Any = None,
        lane_capacity: int = DEFAULT_LANE_CAPACITY,
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
        mp_context, lane_capacity, op_timeout, telemetry:
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
            lane_capacity=lane_capacity,
            op_timeout=op_timeout,
            telemetry=telemetry,
        )

    @classmethod
    def from_states(
        cls,
        states: Dict[str, Any],
        *,
        mp_context: Any = None,
        lane_capacity: int = DEFAULT_LANE_CAPACITY,
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
        mp_context, lane_capacity, op_timeout, telemetry:
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
            lane_capacity=lane_capacity,
            op_timeout=op_timeout,
            telemetry=telemetry,
        )
        return obj

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _boot(self, states: Dict[str, Any], *, mp_context, lane_capacity,
              op_timeout, telemetry=None) -> None:
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
        self._lane_capacity = int(lane_capacity)
        #: Last-known element count per shard, refreshed from every
        #: worker ``stats`` reply and worker restore — lets a failed
        #: round resync ``_n`` per *live* shard instead of requiring a
        #: full all-shards round (which a single dead worker would veto).
        self._shard_ns: List[int] = [int(s["n"]) for s in shard_states]
        self._n = sum(self._shard_ns)
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
        """Create one shard worker (pipe, two lanes, process).

        On any failure every resource this call created — lanes, pipe
        ends, a started process — is released before re-raising, so a
        partial spawn can never leak (the caller's cleanup only covers
        fully-constructed handles).
        """
        cuts = self.cuts
        lo = float(cuts[sid - 1]) if sid > 0 else None
        hi = float(cuts[sid]) if sid < cuts.size else None
        parent_conn = child_conn = req = resp = process = None
        try:
            parent_conn, child_conn = self._ctx.Pipe()
            req = ShmLane(self._lane_capacity)
            resp = ShmLane(self._lane_capacity)
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
            return _WorkerHandle(process, parent_conn, req, resp, lo, hi)
        except BaseException:
            for lane in (req, resp):
                if lane is not None:
                    lane.close()
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
        after a verb completed and with no worker locks held)."""
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

    def _reap_worker(self, sid: int) -> None:
        """Tear down shard ``sid``'s dead/poisoned worker's resources."""
        worker = self._workers[sid]
        process = worker.process
        if process.is_alive():
            process.terminate()
        process.join(5.0)
        try:
            worker.conn.close()
        except OSError:
            note_teardown_error()
        worker.req.close()
        worker.resp.close()

    def _restore_worker(self, sid: int, *, skip_lsn: Optional[int] = None) -> None:
        """Respawn shard ``sid``'s worker from snapshot + WAL tail.

        The caller holds the worker's lock (or all locks). The dead
        process and its lanes are reaped, a fresh worker is rebuilt from
        the store's snapshot state for this shard, and the committed tail
        records owned by the shard are replayed through the normal verb
        frames — after which the worker is exactly where the crashed one
        durably was.

        Parameters
        ----------
        sid:
            The shard whose worker died.
        skip_lsn:
            A tail record to *exclude* from replay because the caller
            will re-send it as a live frame instead (a delete whose
            reply payload is still wanted).
        """
        if self._wal is None:
            raise self._crash(
                sid, "no durability store attached; cannot restore"
            )
        old = self._workers[sid]
        self._reap_worker(sid)
        state = self._wal.load_shard_state(sid)
        # The snapshot's version stamp may trail the versions the parent
        # already acknowledged; keep the engine-wide barrier monotonic.
        state["version"] = max(int(state["version"]), self._versions[sid])
        handle = self._spawn_worker(sid, state)
        # Callers hold the *old* handle's lock across this restore; the
        # new handle must keep the same lock object so that hold (and
        # every queued waiter) stays meaningful.
        handle.lock = old.lock
        handle.ipc = old.ipc
        self._workers[sid] = handle
        self._poisoned.discard(sid)
        self._await_ready(sid)
        for rec in self._wal.tail_ops(sid, skip_lsn=skip_lsn):
            self._replay_record(sid, rec)
        self._send(sid, ("stats", {}, ()))
        self._shard_ns[sid] = int(self._recv(sid)[0]["result"]["n"])
        self._n = sum(self._shard_ns)

    def _replay_record(self, sid: int, rec: Any) -> None:
        """Re-apply one committed tail record to a restored worker."""
        if rec.op == OP_INSERT:
            self._post(sid, "insert_batch", {}, [rec.keys, rec.values])
            self._recv(sid)
        elif rec.op == OP_DELETE:
            self._post(
                sid, "delete_batch", {"missing": rec.missing},
                [rec.keys], self._points_bytes(rec.keys.size),
            )
            try:
                self._recv(sid)
            except KeyNotFoundError:
                # Deterministic replay of a strict delete that failed
                # the first time fails identically; state matches.
                pass
        else:
            raise ClusterError(
                f"shard {sid} WAL tail holds unreplayable op {rec.op}"
            )

    def _register_sources(self, reg: Any) -> None:
        reg.register_callback(
            "repro_cluster_ipc", self._collect_ipc,
            "Cluster transport counters summed across workers.",
            labels=("counter",),
        )
        reg.register_callback(
            "repro_cluster_size", self._collect_size,
            "Cluster size gauges from parent-side cached state "
            "(no worker round-trip at collection time).",
            labels=("field",),
        )

    def _collect_ipc(self) -> Dict[str, float]:
        out = {
            key: sum(w.ipc[key] for w in self._workers)
            for key in ("batches", "pickle_fallbacks", "lane_growths")
        }
        out["teardown_errors"] = teardown_errors()
        return out

    def _collect_size(self) -> Dict[str, float]:
        return {
            "n": self._n,
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
        closes+unlinks the shared-memory lanes. Idempotent; the engine is
        unusable afterwards (operations raise
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
        for worker in self._workers:
            process = worker.process
            process.join(timeout)
            if process.is_alive():  # pragma: no cover - hung worker path
                process.terminate()
                process.join(timeout)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already closed
                note_teardown_error()
            worker.req.close()
            worker.resp.close()
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
        version stamp is recorded and an ``"err"`` reply re-raised here."""
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
        status, version, meta, descriptors = reply
        if status == "err":
            self._versions[sid] = max(self._versions[sid], int(version))
            raise meta["error"]
        self._versions[sid] = int(version)
        return meta, descriptors

    def _gather(
        self, sids, errors: Optional[Dict[int, BaseException]] = None
    ) -> Dict[int, Tuple]:
        """Collect one reply per shard in ``sids``, draining every pipe.

        Never stops at the first failure: a reply left in flight would be
        mistaken for the *next* operation's answer (one round behind —
        worse than an exception, it acknowledges fences that did not
        happen). All pipes are drained, then the first failure re-raises —
        unless ``errors`` is given, in which case failures are recorded
        per shard there and nothing raises (write rounds and durable
        reads, which settle failed shards themselves).
        """
        replies: Dict[int, Tuple] = {}
        first_exc: Optional[BaseException] = None
        for sid in sids:
            try:
                replies[sid] = self._recv(sid)
            except BaseException as exc:
                if errors is not None:
                    errors[sid] = exc
                elif first_exc is None:
                    first_exc = exc
        if errors is None and first_exc is not None:
            raise first_exc
        return replies

    def _round(
        self, jobs, errors: Optional[Dict[int, BaseException]] = None
    ) -> Dict[int, Tuple]:
        """One fenced dispatch round: run every send thunk, drain every
        reply.

        ``jobs`` is a list of ``(sid, send_thunk)`` pairs. A failure in
        any thunk stops further sends, but replies for frames already on
        the wire are still drained (:meth:`_gather`) before the first
        failure re-raises — the invariant that keeps every worker's pipe
        exactly one request/one reply in step.

        With an ``errors`` dict, the round never raises: every send is
        *attempted* (a crashed shard must not abort its siblings' sends —
        their chunks are already logged and will be fenced), every live
        reply is drained, and per-shard failures land in ``errors``.
        """
        sent: List[int] = []
        send_exc: Optional[BaseException] = None
        for sid, send in jobs:
            try:
                send()
                sent.append(sid)
            except BaseException as exc:
                if errors is not None:
                    errors[sid] = exc
                    continue
                send_exc = exc
                break
        try:
            replies = self._gather(sent, errors)
        except BaseException:
            if send_exc is None:
                raise
            replies = {}
        if send_exc is not None:
            raise send_exc
        return replies

    def _round_durable(self, thunks: Dict[int, Any]) -> Dict[int, Tuple]:
        """A read round that restores crashed workers and retries once.

        ``thunks`` maps shard id → send thunk. Without a WAL this is a
        plain :meth:`_round`. With one, transport failures
        (:class:`ClusterError`) trigger a worker restore from
        snapshot + tail, then the restored shards' thunks re-run in one
        plain retry round — a second failure propagates. Worker-side
        application errors re-raise as themselves either way.
        """
        jobs = sorted(thunks.items())
        if self._wal is None:
            return self._round(jobs)
        errors: Dict[int, BaseException] = {}
        replies = self._round(jobs, errors)
        if not errors:
            return replies
        retry: List[int] = []
        for sid in sorted(errors):
            exc = errors[sid]
            if isinstance(exc, ClusterError):
                self._restore_worker(sid)
                retry.append(sid)
            else:
                raise exc
        replies.update(self._round([(sid, thunks[sid]) for sid in retry]))
        return replies

    def _post(
        self, sid: int, verb: str, meta: Dict[str, Any], arrays,
        resp_bytes: int = 0,
    ) -> None:
        """Send one batch request: ``arrays`` into the request lane (both
        lanes grown first when too small), ``(verb, meta, descriptors)``
        down the pipe with the lane names added to ``meta``."""
        worker = self._workers[sid]
        if worker.req.ensure(codec.packed_size(arrays)):
            worker.ipc["lane_growths"] += 1
        if worker.resp.ensure(resp_bytes):
            worker.ipc["lane_growths"] += 1
        descriptors = worker.req.write(arrays)
        worker.ipc["batches"] += 1
        meta = {"req": worker.req.name, "resp": worker.resp.name, **meta}
        self._send(sid, (verb, meta, descriptors))

    def _points_bytes(self, n: int) -> int:
        """Response-lane bytes a get/delete answer for ``n`` keys can need
        (values + one mask byte each + alignment slack)."""
        return n * (self._values_dtype.itemsize + 1) + 64

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
        return self._n

    def _stats_parts(self) -> Tuple[List[Dict[str, Any]], list, dict, dict]:
        # Live per-worker shard stats, which also refresh the cached sizes.
        per_shard = self._broadcast("stats")
        self._shard_ns = [int(s["n"]) for s in per_shard]
        self._n = sum(self._shard_ns)
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
        self._acquire_all()
        try:
            replies = self._round(
                [
                    (sid, lambda sid=sid: self._send(sid, (verb, {}, ())))
                    for sid in range(self.n_shards)
                ]
            )
            return [
                replies[sid][0].get("result") for sid in range(self.n_shards)
            ]
        finally:
            self._release_all()

    def _acquire_all(self) -> None:
        for worker in self._workers:
            worker.lock.acquire()

    def _release_all(self) -> None:
        for worker in self._workers:
            if worker.lock.locked():
                worker.lock.release()

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
        self._acquire_all()
        try:
            replies = self._round_durable(
                {
                    i: (
                        lambda i=i, idx=idx: self._post(
                            i, "get_batch", meta, [q[idx]],
                            self._points_bytes(idx.size),
                        )
                    )
                    for i, idx in groups
                }
            )
            gather_span = contextlib.nullcontext()
            if tracer is not None:
                for i, _idx in groups:
                    tracer.ingest(replies[i][0].get("spans", ()))
                gather_span = tracer.span("cluster.gather", shards=len(groups))
            # Gather while the locks pin the response lanes (the parts
            # hold zero-copy lane views).
            with gather_span:
                parts = [
                    (idx, *self._read_points(i, replies[i])) for i, idx in groups
                ]
                return gather_lookups(q.size, parts)
        finally:
            self._release_all()

    def _read_points(
        self, sid: int, reply: Tuple
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(values, found)`` of one get/delete reply (``found`` is
        ``None`` when every key hit)."""
        # Returned arrays are zero-copy views of the response lane; the
        # gather into the caller's output array is the one copy they get
        # and happens before the lane is ever reused (ops are strict
        # request/reply rounds under the worker's lock).
        _meta, descriptors = reply
        values, *mask = self._workers[sid].resp.read(descriptors)
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
        self._acquire_all()
        try:
            raw = self._round_durable(
                {
                    sid: (
                        lambda sid=sid, idx=idx: self._post(
                            sid, "range_batch", meta,
                            [bounds[idx, 0], bounds[idx, 1]],
                        )
                    )
                    for sid, idx in jobs
                }
            )
            parts = [
                (idx, self._read_ranges(sid, raw[sid])) for sid, idx in jobs
            ]
        finally:
            self._release_all()
        return stitch_ranges(bounds.shape[0], parts, self._values_dtype)

    def _read_ranges(
        self, sid: int, reply: Tuple
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The per-bound ``(keys, values)`` rows of one range reply."""
        meta, descriptors = reply
        worker = self._workers[sid]
        if meta["via"] == "shm":
            # Copied once out of the lane: the rows outlive the round.
            return codec.split_pairs(
                *(np.array(a) for a in worker.resp.read(descriptors))
            )
        worker.ipc["pickle_fallbacks"] += 1
        # The reply outgrew the response lane — the common case for wide
        # scans — and ``need`` is what would have fit: grow now (the worker
        # re-attaches by name from the next request).
        if meta["need"] is not None and worker.resp.ensure(meta["need"]):
            worker.ipc["lane_growths"] += 1
        return meta["pairs"]

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
            sid: (
                lambda sid=sid, a=a, b=b: self._post(
                    sid, "insert_batch", {}, [keys[a:b], values[a:b]]
                )
            )
            for sid, a, b in jobs
        }
        self._acquire_all()
        try:
            # The fence: every owning worker has replied (i.e. applied its
            # chunk) before this returns — and every reply is drained even
            # on failure, so the pipes never fall a round behind.
            errors: Dict[int, BaseException] = {}
            self._round(sorted(thunks.items()), errors)
            if errors:
                first: Optional[BaseException] = None
                for sid in sorted(errors):
                    exc = errors[sid]
                    if self._wal is not None and isinstance(exc, ClusterError):
                        # The restore replays the full committed tail —
                        # including this round's chunk, so the insert is
                        # applied, not lost.
                        self._restore_worker(sid)
                    elif first is None:
                        first = exc
                # Other chunks applied around the failure (ShardedEngine
                # counts partial applies too — len() must agree).
                self._resync_len()
                if first is not None:
                    raise first
            else:
                for sid, a, b in jobs:
                    self._shard_ns[sid] += b - a
                self._n = sum(self._shard_ns)
        finally:
            self._release_all()

    def _resync_len(self) -> None:
        """Recount ``_n`` from every *live* worker (caller holds every
        worker lock involved in the failed round).

        Queries each live, unpoisoned shard independently so one dead
        worker cannot veto the whole recount (the bug that used to leave
        ``len(engine)`` desynced after a partially-applied round: the
        all-shards round raised on the dead shard and the old count
        survived). Dead/poisoned shards keep their last-known
        ``_shard_ns`` entry — refreshed on restore or the next
        successful :meth:`stats` call."""
        errors: Dict[int, BaseException] = {}
        replies = self._round(
            [
                (sid, lambda sid=sid: self._send(sid, ("stats", {}, ())))
                for sid in range(self.n_shards)
                if sid not in self._poisoned
                and self._workers[sid].process.is_alive()
            ],
            errors,
        )
        for sid, (meta, _) in replies.items():
            self._shard_ns[sid] = int(meta["result"]["n"])
        self._n = sum(self._shard_ns)

    def _delete_sorted(
        self, order: np.ndarray, keys: np.ndarray,
        jobs: List[Tuple[int, int, int]], missing: str, lsns: Dict[int, int],
    ) -> List[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
        """Dispatch and fence one committed delete plan: the
        ``(positions, values, found)`` part of each owning worker's reply,
        copied out of its response lane (a worker whose crash took the
        reply is restored without ``lsns[sid]`` and its chunk re-sent)."""
        thunks = {
            sid: (
                lambda sid=sid, a=a, b=b: self._post(
                    sid, "delete_batch", {"missing": missing},
                    [keys[a:b]], self._points_bytes(b - a),
                )
            )
            for sid, a, b in jobs
        }
        errors: Dict[int, BaseException] = {}
        self._acquire_all()
        try:
            replies = self._round(sorted(thunks.items()), errors)
            first: Optional[BaseException] = None
            for sid in sorted(errors):
                exc = errors[sid]
                if self._wal is not None and isinstance(exc, ClusterError):
                    # The crashed worker took the reply payload (the
                    # deleted values) with it. Restore it *without*
                    # replaying this round's record, then re-send the
                    # chunk live to recover the values too.
                    try:
                        self._restore_worker(sid, skip_lsn=lsns[sid])
                        thunks[sid]()
                        replies[sid] = self._recv(sid)
                        continue
                    except ClusterError:
                        # Crashed again mid-retry: restore with the full
                        # tail (the deletion is durably applied) and
                        # report the lost payload as a typed,
                        # non-retryable error.
                        self._restore_worker(sid)
                        exc = WorkerRecoveredError(
                            sid,
                            detail="deleted values lost in crash; the "
                            "deletions themselves are durably applied — "
                            "do not retry",
                        )
                    except BaseException as retry_exc:
                        exc = retry_exc
                if first is None:
                    first = exc
            if errors:
                # Chunks applied around the failures (their replies were
                # drained); recount from the live workers.
                self._resync_len()
                if first is not None:
                    raise first
            parts = []
            for sid, a, b in jobs:
                values, found = self._read_points(sid, replies[sid])
                if found is not None:
                    found = found.copy()
                parts.append((order[a:b], values.copy(), found))
        finally:
            self._release_all()
        if not errors:
            for (sid, a, b), (_idx, _values, found) in zip(jobs, parts):
                self._shard_ns[sid] -= b - a if found is None else int(found.sum())
            self._n = sum(self._shard_ns)
        return parts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"ClusterEngine(n={self._n}, workers={len(self._workers)}, "
            f"{state})"
        )
