"""ClusterEngine: the ShardedEngine API over multi-process shard workers.

The in-process :class:`~repro.engine.ShardedEngine` is bound by the GIL:
every shard's ``searchsorted``/merge work serializes on one core. The
cluster engine keeps the exact same surface — ``get_batch`` /
``range_batch`` / ``insert_batch`` / ``stats`` / ``warm`` / ``version``
plus the scalar mirrors, so :class:`repro.serve.Server` works over it
unchanged — but each range shard lives in its own worker process
(:mod:`repro.cluster.worker`), rebuilt from a
:meth:`~repro.core.paged_index.PagedIndexBase.to_state` snapshot without
re-segmentation. Batch keys and numeric results cross the process boundary
through shared-memory lanes (:mod:`repro.cluster.shm`); the pipes carry
only small control frames.

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
import math
import multiprocessing as mp
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

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
from repro.core.page import _object_array
from repro.core.serialize import _registry
from repro.engine.engine import ShardedEngine
from repro.engine.scatter import (
    gather_points,
    resolve_values,
    split_points,
    split_ranges,
    split_sorted,
    stitch_ranges,
)
from repro.wal.format import OP_DELETE, OP_INSERT
from repro.wal.store import log_chunks

__all__ = ["ClusterEngine"]


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


class ClusterEngine:
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
        self.telemetry = telemetry
        self._telemetry = telemetry
        self._obs_ops: Optional[Dict[str, Tuple[Any, Any]]] = None
        self._workload: Any = None
        if telemetry is not None:
            self._register_telemetry(telemetry)
        if isinstance(mp_context, str) or mp_context is None:
            method = mp_context or (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
            ctx = mp.get_context(method)
        else:
            ctx = mp_context
        self._ctx = ctx
        self._lane_capacity = int(lane_capacity)
        self.cuts: np.ndarray = states["cuts"]
        if telemetry is not None:
            # The parent-side profiler is the merge target for the
            # per-shard sketch deltas workers ship back in reply frames;
            # registration waits until here because it needs the cuts.
            ensure = getattr(telemetry, "ensure_workload", None)
            if ensure is not None:
                self._workload = ensure(self.cuts)
        self._auto_rowid: bool = states["auto_rowid"]
        self._next_rowid: int = states["next_rowid"]
        shard_states = states["shards"]
        self._values_dtype = (
            np.dtype(shard_states[0]["values_dtype"])
            if shard_states
            else np.dtype(np.int64)
        )
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
        self._wal: Any = None
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

    def attach_wal(self, store: Any) -> None:
        """Attach a :class:`repro.wal.WalStore`; upgrade to restart-on-crash.

        Every write chunk is logged per shard and group-committed *before*
        dispatch (``docs/ARCHITECTURE.md``, the write protocol), and the
        store retains the committed tail in memory so a crashed worker
        can be respawned from its snapshot state plus a replay of its
        tail records. Periodic snapshots are taken at safe points (after
        a verb completes, no locks held) through :meth:`to_states`.

        Parameters
        ----------
        store:
            An open :class:`repro.wal.WalStore`, already ``initialize``-d
            or ``recover``-ed to match this engine's current state.
        """
        if self._values_dtype == np.dtype(object):
            raise InvalidParameterError(
                "durability requires a fixed-width values dtype; object "
                "payloads have no WAL encoding"
            )
        store.set_retain_tail(True)
        store.bind(self.to_states)
        self._wal = store

    def to_states(self) -> Dict[str, Any]:
        """Whole-engine snapshot pulled live from the workers: the shape
        :meth:`ShardedEngine.to_states` returns and both ``from_states``
        constructors (and a bound ``WalStore``) take."""
        return {
            "cuts": self.cuts.copy(),
            "auto_rowid": self._auto_rowid,
            "next_rowid": self._next_rowid,
            "shards": self._broadcast("to_state"),
        }

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
        # Replays must not profile: the original dispatch already
        # recorded this batch, and a crash-restore would double it.
        if rec.op == OP_INSERT:
            self._post(
                sid, "insert_batch", {"profile": False}, [rec.keys, rec.values]
            )
            self._recv(sid)
        elif rec.op == OP_DELETE:
            self._post(
                sid, "delete_batch",
                {"missing": rec.missing, "profile": False},
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

    def _register_telemetry(self, telemetry: Any) -> None:
        """Wire the cluster's counters and pull-based sources into the
        telemetry registry (called once from ``_boot``)."""
        reg = telemetry.registry
        ops = reg.counter(
            "repro_engine_ops_total", "Engine batch-verb calls.",
            labels=("op",),
        )
        keys_fam = reg.counter(
            "repro_engine_keys_total",
            "Keys processed by engine batch verbs.", labels=("op",),
        )
        self._obs_ops = {
            op: (ops.labels(op), keys_fam.labels(op))
            for op in ("get_batch", "range_batch", "insert_batch",
                       "delete_batch")
        }
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

    def _obs_count(self, op: str, n_keys: int) -> None:
        """Bump the op/key counters for one batch verb call (telemetry on)."""
        c_ops, c_keys = self._obs_ops[op]
        c_ops.inc()
        c_keys.inc(n_keys)

    def _merge_deltas(self, replies: Dict[int, Tuple]) -> None:
        """Fold the workers' workload-sketch deltas out of a round's replies
        (``meta["delta"]``, see
        :meth:`repro.obs.ShardWorkloadProfiler.record`; only profiled
        requests are answered with one)."""
        if self._workload is None:
            return
        for sid, (meta, _) in replies.items():
            if "delta" in meta:
                self._workload.merge_delta(sid, meta["delta"])

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
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def __enter__(self) -> "ClusterEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

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
        if self._workload is not None:
            meta.setdefault("profile", True)
        self._send(sid, (verb, meta, descriptors))

    def _points_bytes(self, n: int) -> int:
        """Response-lane bytes a get/delete answer for ``n`` keys can need
        (values + one mask byte each + alignment slack)."""
        return n * (self._values_dtype.itemsize + 1) + 64

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Number of shard workers (== effective shard count)."""
        return len(self._workers)

    @property
    def version(self) -> int:
        """Monotonic engine-wide mutation stamp (sum of shard versions).

        Maintained from the version stamp every worker reply carries, so
        it moves exactly as the in-process engine's
        :attr:`~repro.engine.ShardedEngine.version` would — the serve
        layer's flush barrier works unchanged across the process hop.
        """
        return sum(self._versions)

    def shard_versions(self) -> Tuple[int, ...]:
        """Last-known per-shard version stamps (one per worker)."""
        return tuple(self._versions)

    def __len__(self) -> int:
        return self._n

    def stats(self) -> Dict[str, Any]:
        """Engine-level stats composed from live per-worker shard stats.

        Returns
        -------
        dict
            The backend-independent :meth:`ShardedEngine.stats` schema —
            same top-level keys, pinned by the ``tests/api`` stats-schema
            conformance suite. Aggregates (``n``, ``n_pages``,
            ``buffered_elements``, ``model_bytes``, ``page_rebuilds``)
            sum live worker shard stats exactly as the in-process engine
            sums its shards; ``workers`` (pid/alive per shard) and
            ``ipc`` (batch, pickle-fallback and lane-growth counters)
            are live here instead of the in-process zeros. The flat-view
            cache lives worker-side in this backend, so the parent-level
            ``view_*`` counters report zero.
        """
        self._check_open()
        from repro.obs import stats_sections

        workload, slow_ops = stats_sections(self._telemetry)
        per_shard = self._broadcast("stats")
        self._shard_ns = [int(s["n"]) for s in per_shard]
        self._n = sum(self._shard_ns)
        return {
            "backend": "cluster",
            "n": self._n,
            "n_shards": self.n_shards,
            "cuts": self.cuts.tolist(),
            "model_bytes": sum(s["model_bytes"] for s in per_shard)
            + 8 * self.cuts.size,
            "n_pages": sum(s["n_pages"] for s in per_shard),
            "buffered_elements": sum(s["buffered_elements"] for s in per_shard),
            "page_rebuilds": sum(s["page_rebuilds"] for s in per_shard),
            "view_hits": 0,
            "view_builds": 0,
            "view_hit_rate": 0.0,
            "view_patches": 0,
            "view_full_rebuilds": 0,
            "shards": per_shard,
            "workers": [
                {"pid": w.process.pid, "alive": w.process.is_alive()}
                for w in self._workers
            ],
            "ipc": self._collect_ipc(),
            "wal": None if self._wal is None else self._wal.stats(),
            "workload": workload,
            "slow_ops": slow_ops,
        }

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

    def get(self, key: float, default: Any = None) -> Any:
        """Scalar point lookup (a one-key batch through the owning worker)."""
        out = self.get_batch(np.asarray([key], dtype=np.float64), default)
        return out[0]

    def __contains__(self, key: float) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def get_batch(self, queries, default: Any = None) -> np.ndarray:
        """Vectorized point lookups fanned out across the shard workers.

        The batch is routed with one ``searchsorted`` over the cuts; each
        owning worker receives its whole sub-batch through its
        shared-memory lane, every worker computes concurrently (separate
        interpreters — no GIL serialization), and results scatter back
        into request order. Results are bit-identical to
        :meth:`ShardedEngine.get_batch`.

        Parameters
        ----------
        queries:
            Key batch, any array-like coercible to float64; order is
            preserved in the result.
        default:
            Value stored in the slot of every query with no match
            (parent-side only — it never crosses the process boundary).

        Returns
        -------
        numpy.ndarray
            One value per query: the values dtype when every query hits,
            else an object array with ``default`` in the miss slots.
        """
        self._check_open()
        q = np.ascontiguousarray(queries, dtype=np.float64)
        tel = self._telemetry
        if tel is None:
            return self._get_batch_impl(q, default, None)
        if tel.tracer is None:
            out = self._get_batch_impl(q, default, None)
        else:
            with tel.tracer.span("cluster.get_batch", n=int(q.size)) as sp:
                out = self._get_batch_impl(
                    q, default, (tel.tracer, (sp.trace_id, sp.span_id))
                )
        self._obs_count("get_batch", int(q.size))
        return out

    def _get_batch_impl(
        self, q: np.ndarray, default: Any, trace: Optional[Tuple]
    ) -> np.ndarray:
        """The fenced dispatch round behind :meth:`get_batch`.

        ``trace`` is ``None`` (untraced) or
        ``(tracer, (trace_id, parent_span_id))``: the context rides each
        request's ``meta["trace"]``, worker replies carry back their
        ``worker.compute`` spans in ``meta["spans"]`` for stitching, and
        the parent-side decode/scatter is recorded as a
        ``cluster.gather`` child span.
        """
        if q.size == 0:
            # Matches the in-process engine's view: an empty batch over a
            # populated engine keeps the values dtype.
            return np.empty(0, dtype=self._values_dtype if self._n else object)
        groups = split_points(self.cuts, q)
        meta = {} if trace is None else {"trace": trace[1]}
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
            self._merge_deltas(replies)
            gather_span = contextlib.nullcontext()
            if trace is not None:
                for i, _idx in groups:
                    trace[0].ingest(replies[i][0].get("spans", ()))
                gather_span = trace[0].span("cluster.gather", shards=len(groups))
            # Gather while the locks pin the response lanes (the parts
            # hold zero-copy lane views).
            with gather_span:
                parts = [
                    (idx, *self._read_points(i, replies[i])) for i, idx in groups
                ]
                return gather_points(q.size, parts, default)
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
        meta, descriptors = reply
        worker = self._workers[sid]
        if meta["via"] == "shm":
            values, *mask = worker.resp.read(descriptors)
            return values, (mask[0].view(np.bool_) if mask else None)
        worker.ipc["pickle_fallbacks"] += 1  # object payloads
        return _object_array(meta["values"]), meta["found"]

    # ------------------------------------------------------------------
    # Range scans
    # ------------------------------------------------------------------

    def range_items(
        self,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Iterator[Tuple[float, Any]]:
        """Scalar-compatible range scan stitched across workers in key order."""
        keys, values = self.range_arrays(lo, hi, include_lo, include_hi)
        for k, v in zip(keys, values):
            yield float(k), v

    def range_arrays(
        self,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One range query, answered as ``(keys, values)`` arrays."""
        flo = -math.inf if lo is None else float(lo)
        fhi = math.inf if hi is None else float(hi)
        results = self.range_batch(
            np.asarray([[flo, fhi]]), include_lo, include_hi
        )
        return results[0]

    def range_batch(
        self,
        bounds,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """One ``(keys, values)`` pair per ``[lo, hi]`` row of ``bounds``.

        Each worker receives only the bounds overlapping its cut range
        (through its request lane), scans them against its shard
        concurrently with the others, and replies with its contributions
        (concatenated rows + per-bound counts through the response lane);
        the parent stitches per-bound results in shard order, which is
        key order. Results match :meth:`ShardedEngine.range_batch`.

        Parameters
        ----------
        bounds:
            ``(n, 2)`` array-like of inclusive ``[lo, hi]`` key bounds.
        include_lo, include_hi:
            Bound inclusivity, applied to every scan in the batch.

        Returns
        -------
        list of (numpy.ndarray, numpy.ndarray)
            For each bounds row, the matching ``(keys, values)`` arrays
            in key order.
        """
        self._check_open()
        bounds, jobs = split_ranges(self.cuts, bounds)
        n_bounds = bounds.shape[0]
        if n_bounds == 0:
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
            self._merge_deltas(raw)
            parts = [
                (idx, self._read_ranges(sid, raw[sid])) for sid, idx in jobs
            ]
        finally:
            self._release_all()
        out = stitch_ranges(n_bounds, parts, self._values_dtype)
        if self._telemetry is not None:
            self._obs_count("range_batch", n_bounds)
        return out

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
        # The worker fell back because the reply carried object values or
        # outgrew the response lane — the common case for wide scans, and
        # then ``need`` is what would have fit: grow now (the worker
        # re-attaches by name from the next request).
        if meta["need"] is not None and worker.resp.ensure(meta["need"]):
            worker.ipc["lane_growths"] += 1
        return meta["pairs"]

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def insert(self, key: float, value: Any = None) -> None:
        """Scalar insert (engine-level row id when built without values)."""
        values, self._next_rowid = resolve_values(
            1, None if value is None else [value],
            self._auto_rowid, self._next_rowid,
        )
        _, keys, jobs = split_sorted(
            self.cuts, np.asarray([float(key)], dtype=np.float64)
        )
        self._insert_sorted(keys, values, jobs)

    def insert_batch(self, keys, values=None) -> None:
        """Bulk batch insert: route once, apply per worker under one fence.

        The batch is stable-sorted and cut into one contiguous sub-batch
        per shard exactly as :meth:`ShardedEngine.insert_batch` does; each
        owning worker applies its chunk through the same vectorized
        per-page merge path, and the call returns only after *every*
        owning worker has acknowledged — the per-batch fence that makes a
        subsequent read see the write regardless of which process served
        it. The engine-wide :attr:`version` stamp advances with the
        acknowledgements. Empty batches are a strict no-op.

        Parameters
        ----------
        keys:
            Keys to insert, any order, any array-like coercible to
            float64.
        values:
            Aligned payloads; ``None`` assigns engine-wide auto row ids
            in request order (only on engines built without explicit
            values).
        """
        self._check_open()
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        if keys.size == 0:
            return
        values, self._next_rowid = resolve_values(
            keys.size, values, self._auto_rowid, self._next_rowid
        )
        order, skeys, jobs = split_sorted(self.cuts, keys)
        self._insert_sorted(skeys, values[order], jobs)
        if self._telemetry is not None:
            self._obs_count("insert_batch", int(keys.size))

    def _insert_sorted(
        self, keys: np.ndarray, values: np.ndarray, jobs: List[Tuple[int, int, int]]
    ) -> None:
        """Log, dispatch and fence one :func:`split_sorted` write plan."""
        self._check_open()
        self._commit(keys, jobs, values)
        thunks = {
            sid: (
                lambda sid=sid, a=a, b=b: self._post_insert(
                    sid, keys[a:b], values[a:b]
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
            self._merge_deltas(self._round(sorted(thunks.items()), errors))
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
        self._maybe_snapshot()

    def _commit(self, keys, jobs, values=None, missing="raise") -> Dict[int, int]:
        """Refuse a write plan that lands on a read-only shard, else log
        every chunk under one group commit — BEFORE dispatch: once the
        fsync returns, a worker crash anywhere below replays the chunk
        from the tail instead of losing it. Returns ``{shard: lsn}``."""
        for sid, _a, _b in jobs:
            if self._read_only[sid]:
                raise InvalidParameterError(
                    "index built with buffer_capacity=0 is read-only"
                )
        return log_chunks(
            self._wal, self._next_rowid, keys, jobs, values, missing
        )

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

    def delete(self, key: float) -> Any:
        """Scalar delete (a one-key fenced batch through the owning worker).

        Raises :class:`~repro.core.errors.KeyNotFoundError` when absent,
        exactly as :meth:`ShardedEngine.delete` does.
        """
        out = self.delete_batch(np.asarray([key], dtype=np.float64))
        return out[0]

    def delete_batch(
        self, keys, *, missing: str = "raise", default: Any = None
    ) -> np.ndarray:
        """Bulk batch delete: route once, remove per worker under one fence.

        The batch is stable-sorted and cut into one contiguous sub-batch
        per shard exactly as :meth:`ShardedEngine.delete_batch` does; each
        owning worker removes its chunk through the same vectorized
        per-page splice path and replies with the deleted values (plus a
        found mask under ``missing="ignore"``), and the call returns only
        after *every* owning worker has acknowledged — the same per-batch
        fence as inserts, so a subsequent read cannot see a deleted key.
        Results and post-delete state are bit-identical to the in-process
        engine's. Empty batches are a strict no-op.

        Parameters
        ----------
        keys:
            Keys to delete, any order, any array-like coercible to
            float64; each element removes one occurrence.
        missing:
            ``"raise"`` (default): every owning worker applies its chunk
            (each stops at its own first absent request), then the first
            failing shard's :class:`~repro.core.errors.KeyNotFoundError`
            re-raises; ``"ignore"`` records misses.
        default:
            Value filling the miss slots under ``missing="ignore"``
            (parent-side only — it never crosses the process boundary).

        Returns
        -------
        numpy.ndarray
            One deleted value per request in request order: the values
            dtype when every request hit, else an object array with
            ``default`` in the miss slots.
        """
        self._check_open()
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        if keys.size == 0:
            return np.empty(0, dtype=object)
        order, skeys, jobs = split_sorted(self.cuts, keys)
        lsns = self._commit(skeys, jobs, missing=missing)
        thunks = {
            sid: (
                lambda sid=sid, a=a, b=b: self._post(
                    sid, "delete_batch", {"missing": missing},
                    [skeys[a:b]], self._points_bytes(b - a),
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
            self._merge_deltas(replies)
            parts = [
                (order[a:b], *self._read_points(sid, replies[sid]))
                for sid, a, b in jobs
            ]
            # Gather and count hits while the locks pin the response
            # lanes (the parts hold zero-copy lane views).
            out = gather_points(keys.size, parts, default)
            hits = {
                sid: idx.size if found is None else int(found.sum())
                for (sid, _a, _b), (idx, _values, found) in zip(jobs, parts)
            }
        finally:
            self._release_all()
        if not errors:
            for sid, n_hits in hits.items():
                self._shard_ns[sid] -= n_hits
            self._n = sum(self._shard_ns)
        if self._telemetry is not None:
            self._obs_count("delete_batch", int(keys.size))
        self._maybe_snapshot()
        return out

    def _post_insert(self, sid: int, keys: np.ndarray, values: np.ndarray) -> None:
        if values.dtype == np.dtype(object):
            # No lane form: the object ndarray itself rides the pipe, NOT a
            # list — a list would be re-coerced worker-side (e.g. to a
            # unicode dtype), changing what gets stored vs in-process.
            self._workers[sid].ipc["pickle_fallbacks"] += 1
            self._post(sid, "insert_batch", {"values": values}, [keys])
        else:
            self._post(sid, "insert_batch", {}, [keys, values])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"ClusterEngine(n={self._n}, workers={len(self._workers)}, "
            f"{state})"
        )
