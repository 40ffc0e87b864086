"""Durability store: snapshot generations + WAL lifecycle for one engine.

A :class:`WalStore` owns one durability directory::

    MANIFEST.json            # atomic pointer to the current generation
    wal-000001.log           # WAL for generation 1
    shard-000001-000.npz     # per-shard snapshot, generation 1
    shard-000001-001.npz
    ...

Recovery = load the manifest's snapshots + replay the committed tail of
its WAL file. Snapshot rotation writes the *new* generation's files
first (snapshots ``fsync``\\ ed, fresh WAL created), flips the manifest
atomically last, then best-effort deletes the old generation — so a
crash at any point recovers from a complete generation.

The store also keeps the committed tail *in memory* (when asked to via
:meth:`WalStore.set_retain_tail`): the cluster engine replays it into a
freshly respawned worker to restore a crashed shard without touching
disk, and excludes the in-flight record's LSN when the crashed round
itself will be re-sent.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError, KeyNotFoundError
from repro.core.serialize import load_state, save_state
from repro.wal import format as wf
from repro.wal.format import WalRecord
from repro.wal.log import WalWriter, read_committed
from repro.wal.manifest import (
    MANIFEST_VERSION,
    load_manifest,
    manifest_path,
    write_manifest,
)

#: Durability modes accepted by :class:`WalStore` and ``EngineConfig``.
DURABILITY_MODES = ("off", "wal", "wal+snapshot")

#: Default WAL growth (bytes) that triggers a snapshot rotation in
#: ``wal+snapshot`` mode.
DEFAULT_SNAPSHOT_INTERVAL_BYTES = 4 << 20


@dataclass
class RecoveredState:
    """What :meth:`WalStore.recover` hands back to the engine factory.

    Returns
    -------
    RecoveredState
        ``states`` is the snapshot-generation engine state (the
        ``to_states`` shape: cuts, auto_rowid, next_rowid, one
        ``to_state`` dict per shard); ``ops`` is the committed WAL tail
        to replay on top; ``next_rowid`` is the post-replay rowid
        watermark from the last commit record (or the manifest when the
        tail is empty).
    """

    states: Dict[str, Any]
    ops: List[WalRecord] = field(default_factory=list)
    next_rowid: int = 0


class _SnapshotJob:
    """One in-flight background snapshot: capture point + worker thread.

    Captured at a safe point (no uncommitted records buffered):
    ``start_lsn`` is the first LSN *not* covered by the snapshot states
    and ``copy_from`` the WAL byte offset of that same point, so
    finalization can byte-copy exactly the records logged while the
    thread was serializing.
    """

    __slots__ = (
        "generation", "start_lsn", "copy_from", "meta", "snaps", "thread",
        "error",
    )

    def __init__(self, generation: int, start_lsn: int, copy_from: int,
                 meta: Dict[str, Any]):
        self.generation = generation
        self.start_lsn = start_lsn
        self.copy_from = copy_from
        self.meta = meta
        self.snaps: List[str] = []
        self.thread: Optional[threading.Thread] = None
        self.error: Optional[BaseException] = None


class WalStore:
    """Write-ahead log + snapshot lifecycle over one directory.

    Parameters
    ----------
    root : str
        Durability directory (created if missing).
    durability : str
        ``"wal"`` (log only, snapshot on demand) or ``"wal+snapshot"``
        (rotate a fresh snapshot generation whenever the WAL outgrows
        ``snapshot_interval_bytes``). ``"off"`` is rejected — an engine
        with durability off simply has no store.
    snapshot_interval_bytes : int
        WAL size that arms :meth:`maybe_snapshot` in ``wal+snapshot``
        mode.
    sync : bool
        Fsync on every commit/snapshot (default). Disable only for
        tests and benchmarks.
    background_snapshots : bool
        When True (``"wal+snapshot"`` only), :meth:`maybe_snapshot`
        captures engine states inline (a cheap array copy) but moves the
        expensive part of rotation — serializing and fsyncing every
        shard snapshot — onto a background thread. The generation flip
        happens at the *next* safe point after the thread finishes: the
        committed WAL records logged while it ran are byte-copied into
        the new generation's WAL before the manifest flips, so no
        acknowledged write is ever outside the current generation. A
        crash at any point before the flip recovers from the old
        (complete) generation.
    """

    def __init__(
        self,
        root: str,
        *,
        durability: str = "wal",
        snapshot_interval_bytes: int = DEFAULT_SNAPSHOT_INTERVAL_BYTES,
        sync: bool = True,
        background_snapshots: bool = False,
    ):
        if durability not in ("wal", "wal+snapshot"):
            raise InvalidParameterError(
                f"durability must be 'wal' or 'wal+snapshot', got "
                f"{durability!r}"
            )
        if snapshot_interval_bytes <= 0:
            raise InvalidParameterError(
                "snapshot_interval_bytes must be positive"
            )
        self.root = root
        self.durability = durability
        self._interval = int(snapshot_interval_bytes)
        self._sync = bool(sync)
        os.makedirs(root, exist_ok=True)
        self._writer: Optional[WalWriter] = None
        self._manifest: Optional[Dict[str, Any]] = None
        self._generation = 0
        self._retain_tail = False
        self._tail: List[WalRecord] = []
        self._pending_records: List[WalRecord] = []
        self._state_provider: Optional[Callable[[], Dict[str, Any]]] = None
        self.snapshots_taken = 0
        self.background = bool(background_snapshots)
        self._bg_job: Optional[_SnapshotJob] = None

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def exists(self) -> bool:
        """True when the directory already holds an initialized manifest."""
        return os.path.exists(manifest_path(self.root))

    @property
    def generation(self) -> int:
        """Current snapshot generation (0 before initialize/recover)."""
        return self._generation

    def initialize(self, states: Dict[str, Any]) -> None:
        """Write generation 1 (snapshots + empty WAL + manifest).

        Parameters
        ----------
        states:
            Engine state in the engines' ``to_states`` shape.
        """
        if self.exists:
            raise InvalidParameterError(
                f"durability directory {self.root!r} is already initialized"
            )
        self._write_generation(states, generation=1, start_lsn=0)

    def recover(self) -> RecoveredState:
        """Load the current generation and its committed WAL tail.

        Truncates any torn (uncommitted) WAL tail in place so subsequent
        appends extend the committed prefix, then reopens the writer.

        Returns
        -------
        RecoveredState
            Snapshot states + committed tail ops + rowid watermark.
        """
        manifest = load_manifest(self.root)
        if manifest is None:
            raise InvalidParameterError(
                f"no manifest in durability directory {self.root!r}"
            )
        states = {
            "cuts": np.asarray(manifest["cuts"], dtype=np.float64),
            "auto_rowid": bool(manifest["auto_rowid"]),
            "next_rowid": int(manifest["next_rowid"]),
            "shards": [
                load_state(os.path.join(self.root, name))
                for name in manifest["snapshots"]
            ],
        }
        wal_path = os.path.join(self.root, manifest["wal"])
        ops, next_rowid, next_lsn, committed_end = read_committed(wal_path)
        if next_rowid is None:
            next_rowid = int(manifest["next_rowid"])
            next_lsn = int(manifest["start_lsn"])
        if os.path.getsize(wal_path) > committed_end:
            with open(wal_path, "r+b") as fh:
                fh.truncate(committed_end)
                fh.flush()
                if self._sync:
                    os.fsync(fh.fileno())
        self._manifest = manifest
        self._generation = int(manifest["generation"])
        if self._writer is not None:
            self._writer.close()
        self._writer = WalWriter(wal_path, start_lsn=next_lsn, sync=self._sync)
        self._tail = list(ops)
        self._pending_records = []
        return RecoveredState(states=states, ops=ops, next_rowid=next_rowid)

    def bind(self, state_provider: Callable[[], Dict[str, Any]]) -> None:
        """Register the callable that produces snapshot states on demand."""
        self._state_provider = state_provider

    def set_retain_tail(self, flag: bool) -> None:
        """Keep (or drop) the committed tail in memory for worker restores."""
        self._retain_tail = bool(flag)
        if not flag:
            self._tail = []

    def close(self) -> None:
        """Close the WAL writer (discarding any uncommitted records).

        A finished background snapshot job is finalized first (its work
        is already on disk — flipping the manifest is cheap and makes the
        next recovery replay a shorter tail); an unfinished or failed one
        is discarded, leaving the old generation authoritative.
        """
        if self._bg_job is not None:
            job = self._bg_job
            if job.thread is not None:
                job.thread.join()
            self._bg_job = None
            if (
                job.error is None
                and self._writer is not None
                and not self._writer.pending
            ):
                self._finalize_job(job)
            else:
                self._discard_job_files(job)
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    # ------------------------------------------------------------------
    # logging

    def _require_writer(self) -> WalWriter:
        if self._writer is None:
            raise InvalidParameterError(
                "WalStore is not open; call initialize() or recover() first"
            )
        return self._writer

    def log_insert(self, sid: int, keys: np.ndarray, values: Any) -> int:
        """Buffer an insert record for shard ``sid``; returns its LSN."""
        writer = self._require_writer()
        lsn = writer.append_insert(sid, keys, values)
        if self._retain_tail:
            self._pending_records.append(
                WalRecord(
                    lsn,
                    wf.OP_INSERT,
                    sid,
                    keys=np.ascontiguousarray(keys, dtype=np.float64),
                    values=np.ascontiguousarray(values),
                )
            )
        return lsn

    def log_delete(self, sid: int, keys: np.ndarray, missing: str) -> int:
        """Buffer a delete record for shard ``sid``; returns its LSN."""
        writer = self._require_writer()
        lsn = writer.append_delete(sid, keys, missing)
        if self._retain_tail:
            self._pending_records.append(
                WalRecord(
                    lsn,
                    wf.OP_DELETE,
                    sid,
                    keys=np.ascontiguousarray(keys, dtype=np.float64),
                    missing=missing,
                )
            )
        return lsn

    def commit(self, next_rowid: int) -> bool:
        """Group-commit all buffered records with one write + fsync.

        No-op (returns False) when nothing is buffered.
        """
        writer = self._require_writer()
        wrote = writer.commit(int(next_rowid))
        if wrote and self._retain_tail:
            self._tail.extend(self._pending_records)
        self._pending_records = []
        return wrote

    def discard_pending(self) -> int:
        """Drop buffered-but-uncommitted records; returns how many."""
        self._pending_records = []
        if self._writer is None:
            return 0
        return self._writer.discard_pending()

    def tail_ops(
        self, sid: int, *, skip_lsn: Optional[int] = None
    ) -> List[WalRecord]:
        """Committed tail records for shard ``sid``, oldest first.

        Parameters
        ----------
        sid:
            Shard id to filter on.
        skip_lsn:
            Exclude the record with this LSN — the in-flight record of a
            crashed round that the caller will re-send itself.

        Returns
        -------
        list of WalRecord
            The records to replay into a restored worker.
        """
        return [
            r
            for r in self._tail
            if r.shard == sid and (skip_lsn is None or r.lsn != skip_lsn)
        ]

    # ------------------------------------------------------------------
    # snapshots

    def load_shard_state(self, sid: int) -> Dict[str, Any]:
        """Load shard ``sid``'s snapshot state from the current generation."""
        if self._manifest is None:
            raise InvalidParameterError("WalStore has no loaded manifest")
        name = self._manifest["snapshots"][sid]
        return load_state(os.path.join(self.root, name))

    def maybe_snapshot(self) -> bool:
        """Rotate a snapshot if the WAL outgrew the configured interval.

        Only armed in ``wal+snapshot`` mode, with a bound state provider
        and no uncommitted records buffered. Returns True when a
        rotation happened (with ``background_snapshots``, when one was
        *finalized* — starting the thread returns False, since the
        generation has not flipped yet).
        """
        if (
            self.durability != "wal+snapshot"
            or self._state_provider is None
            or self._writer is None
            or self._writer.pending
        ):
            return False
        if self.background:
            return self._bg_step()
        if self._writer.bytes_written < self._interval:
            return False
        self.snapshot()
        return True

    def _bg_step(self) -> bool:
        """One safe-point decision for the background-snapshot lifecycle:
        finalize a finished job, keep waiting on a live one, or start a
        new one when the WAL has outgrown the interval."""
        job = self._bg_job
        if job is not None:
            if job.thread is not None and job.thread.is_alive():
                return False
            self._bg_job = None
            if job.error is not None:
                self._discard_job_files(job)
                raise job.error
            self._finalize_job(job)
            return True
        if self._writer.bytes_written < self._interval:
            return False
        self._start_job()
        return False

    def _start_job(self) -> None:
        """Capture a safe point and serialize its snapshots off-thread."""
        states = self._state_provider()
        job = _SnapshotJob(
            generation=self._generation + 1,
            start_lsn=self._writer.next_lsn,
            copy_from=self._writer.bytes_written,
            meta={
                "cuts": [float(c) for c in states["cuts"]],
                "auto_rowid": bool(states["auto_rowid"]),
                "next_rowid": int(states["next_rowid"]),
            },
        )

        def work() -> None:
            try:
                for sid, shard_state in enumerate(states["shards"]):
                    name = f"shard-{job.generation:06d}-{sid:03d}.npz"
                    save_state(
                        shard_state,
                        os.path.join(self.root, name),
                        sync=self._sync,
                    )
                    job.snaps.append(name)
            except BaseException as exc:  # surfaced at the next safe point
                job.error = exc

        job.thread = threading.Thread(
            target=work, name="repro-wal-snapshot", daemon=True
        )
        job.thread.start()
        self._bg_job = job

    def _finalize_job(self, job: _SnapshotJob) -> None:
        """Flip to the background-written generation at a safe point.

        The snapshot covers state up to ``job.start_lsn``; everything
        committed since lives in the old WAL at bytes
        ``[job.copy_from:]``. WAL records are position-independent, so
        that committed suffix is byte-copied after the new file's header
        before the manifest flips — the new generation is complete
        (snapshot + carried tail) the instant it becomes authoritative.
        """
        writer = self._require_writer()
        wal_name = f"wal-{job.generation:06d}.log"
        new_path = os.path.join(self.root, wal_name)
        with open(writer.path, "rb") as src:
            src.seek(job.copy_from)
            carried = src.read(writer.bytes_written - job.copy_from)
        with open(new_path, "wb") as dst:
            dst.write(wf.file_header())
            dst.write(carried)
            dst.flush()
            if self._sync:
                os.fsync(dst.fileno())
        manifest = {
            "manifest_version": MANIFEST_VERSION,
            "generation": job.generation,
            "wal": wal_name,
            "snapshots": list(job.snaps),
            "cuts": job.meta["cuts"],
            "auto_rowid": job.meta["auto_rowid"],
            "next_rowid": job.meta["next_rowid"],
            "start_lsn": int(job.start_lsn),
            "durability": self.durability,
        }
        write_manifest(self.root, manifest)
        old = self._manifest
        new_writer = WalWriter(
            new_path, start_lsn=writer.next_lsn, sync=self._sync
        )
        writer.close()
        self._writer = new_writer
        self._manifest = manifest
        self._generation = job.generation
        # Records the snapshot already covers leave the restore tail;
        # the carried suffix (lsn >= start_lsn) must stay replayable.
        self._tail = [r for r in self._tail if r.lsn >= job.start_lsn]
        self.snapshots_taken += 1
        if old is not None:
            for name in [old["wal"]] + list(old["snapshots"]):
                try:
                    os.unlink(os.path.join(self.root, name))
                except OSError:
                    pass  # retired files are garbage, not state

    def _discard_job_files(self, job: _SnapshotJob) -> None:
        """Best-effort removal of an abandoned job's snapshot files."""
        for name in job.snaps:
            try:
                os.unlink(os.path.join(self.root, name))
            except OSError:
                pass

    def snapshot(self, states: Optional[Dict[str, Any]] = None) -> None:
        """Write a new snapshot generation and rotate the WAL.

        Parameters
        ----------
        states:
            Engine states to snapshot; defaults to calling the bound
            state provider. Must be called at a quiesced point — no
            uncommitted records may be buffered.
        """
        writer = self._require_writer()
        if writer.pending:
            raise InvalidParameterError(
                "snapshot with uncommitted WAL records buffered"
            )
        if self._bg_job is not None:
            # A direct snapshot supersedes an in-flight background job:
            # it will capture strictly newer state, so the job's files
            # are stale the moment they finish.
            job = self._bg_job
            self._bg_job = None
            if job.thread is not None:
                job.thread.join()
            self._discard_job_files(job)
        if states is None:
            if self._state_provider is None:
                raise InvalidParameterError(
                    "snapshot needs states or a bound state provider"
                )
            states = self._state_provider()
        self._write_generation(
            states,
            generation=self._generation + 1,
            start_lsn=writer.next_lsn,
        )
        self.snapshots_taken += 1

    def _write_generation(
        self, states: Dict[str, Any], *, generation: int, start_lsn: int
    ) -> None:
        """Write gen files, flip the manifest, retire the old generation."""
        snaps = []
        for sid, shard_state in enumerate(states["shards"]):
            name = f"shard-{generation:06d}-{sid:03d}.npz"
            save_state(
                shard_state, os.path.join(self.root, name), sync=self._sync
            )
            snaps.append(name)
        wal_name = f"wal-{generation:06d}.log"
        new_writer = WalWriter(
            os.path.join(self.root, wal_name),
            start_lsn=start_lsn,
            sync=self._sync,
        )
        manifest = {
            "manifest_version": MANIFEST_VERSION,
            "generation": generation,
            "wal": wal_name,
            "snapshots": snaps,
            "cuts": [float(c) for c in states["cuts"]],
            "auto_rowid": bool(states["auto_rowid"]),
            "next_rowid": int(states["next_rowid"]),
            "start_lsn": int(start_lsn),
            "durability": self.durability,
        }
        write_manifest(self.root, manifest)
        old = self._manifest
        if self._writer is not None:
            self._writer.close()
        self._writer = new_writer
        self._manifest = manifest
        self._generation = generation
        self._tail = []
        self._pending_records = []
        if old is not None:
            for name in [old["wal"]] + list(old["snapshots"]):
                try:
                    os.unlink(os.path.join(self.root, name))
                except OSError:
                    pass  # retired files are garbage, not state

    # ------------------------------------------------------------------
    # introspection

    def stats(self) -> Dict[str, Any]:
        """Counters for the ``stats()["wal"]`` engine field.

        Returns
        -------
        dict
            Durability mode, generation, record/commit/fsync counters,
            WAL size, snapshot count and retained-tail length.
        """
        w = self._writer
        return {
            "durability": self.durability,
            "generation": self._generation,
            "records": 0 if w is None else w.records,
            "commits": 0 if w is None else w.commits,
            "fsyncs": 0 if w is None else w.fsyncs,
            "wal_bytes": 0 if w is None else w.bytes_written,
            "snapshots": self.snapshots_taken,
            "tail_ops": len(self._tail),
            "background": self.background,
            "snapshot_in_flight": self._bg_job is not None,
        }


def log_chunks(
    store: Optional[WalStore], next_rowid: int, keys: np.ndarray,
    slices: List[Tuple[int, int, int]],
    values: Optional[np.ndarray] = None, missing: str = "raise",
) -> Dict[int, int]:
    """Log one routed write, chunk by chunk, under one group commit.

    Steps 3-4 of the write protocol (``docs/ARCHITECTURE.md``), shared
    by every engine: ``keys``/``slices`` are a ``split_sorted`` plan, one
    record per ``(shard, a, b)`` — an insert of ``values[a:b]`` when
    ``values`` is given, else a delete carrying ``missing`` — sealed by
    one commit holding ``next_rowid``. On return every chunk is on disk
    and no shard has applied anything. What the log cannot encode is
    refused before the first record is buffered, so a raise leaves the
    log as it was. ``store=None`` (durability off) is a no-op.

    Returns
    -------
    dict
        ``{shard: lsn}`` of the records written (empty without a store).
    """
    if store is None:
        return {}
    if values is not None:
        values = wf.check_values(values)
    elif missing not in ("raise", "ignore"):
        raise InvalidParameterError(
            f"missing must be 'raise' or 'ignore', got {missing!r}"
        )
    lsns = {}
    for sid, a, b in slices:
        if values is None:
            lsns[sid] = store.log_delete(sid, keys[a:b], missing)
        else:
            lsns[sid] = store.log_insert(sid, keys[a:b], values[a:b])
    store.commit(next_rowid)
    return lsns


def replay_ops(engine: Any, ops: List[WalRecord]) -> None:
    """Replay committed WAL records into a freshly rebuilt engine.

    Applies each record directly to its target shard (routing was fixed
    when the record was logged). Deletes that miss are swallowed — a
    committed strict delete (``missing="raise"``) may legitimately have
    failed partway when originally applied, and replay reproduces that
    same partial application.
    """
    shards = engine.shards
    for rec in ops:
        shard = shards[rec.shard]
        if rec.op == wf.OP_INSERT:
            shard.insert_batch(rec.keys, rec.values)
        elif rec.op == wf.OP_DELETE:
            try:
                shard.delete_batch(rec.keys, missing=rec.missing)
            except KeyNotFoundError:
                pass  # replaying a partially-applied strict delete
        else:
            raise InvalidParameterError(f"cannot replay WAL op {rec.op}")
