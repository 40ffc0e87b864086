"""Durability store: snapshot generations + WAL lifecycle for one engine.

A :class:`WalStore` owns one durability directory::

    MANIFEST.json            # atomic pointer to the current generation
    wal-000001.log           # WAL for generation 1
    shard-000001-000.npz     # per-shard snapshot, generation 1
    shard-000001-001.npz
    ...

Recovery = load the manifest's snapshots + replay the committed tail of
its WAL file. A snapshot rotation captures the engine's states at a safe
point, writes them as the *next* generation's snapshot files
(``fsync``\\ ed), then, at a safe point, writes the new generation's
WAL — the committed records logged since the capture — flips the
manifest atomically and best-effort deletes the old generation, so a
crash at any point recovers from a complete generation.
``background_snapshots`` only moves the middle step onto a thread.

The WAL file is the only copy of the committed tail. A cluster engine
restores a crashed worker from :meth:`WalStore.shard_state`: the shard's
snapshot plus its committed records, replayed in the parent with the
same :func:`apply_record` a reopen uses.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError, KeyNotFoundError
from repro.core.paged_index import check_missing
from repro.core.serialize import index_from_state, load_state, save_state
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


class _Rotation:
    """One snapshot rotation, from its capture point to its flip.

    Captured at a safe point (no uncommitted records buffered):
    ``states`` are the engine states to snapshot, ``start_lsn`` the first
    LSN they do *not* cover and ``copy_from`` the WAL byte offset of that
    same point, so the flip byte-copies exactly the records committed
    since (none, for an inline rotation).
    """

    __slots__ = (
        "generation", "states", "start_lsn", "copy_from", "snaps", "thread",
        "error",
    )

    def __init__(self, generation: int, states: Dict[str, Any],
                 start_lsn: int, copy_from: int):
        self.generation = generation
        self.states = states
        self.start_lsn = start_lsn
        self.copy_from = copy_from
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
        captures engine states inline (a cheap array copy) but writes
        and fsyncs the shard snapshots on a background thread. The
        generation flip happens at the *next* safe point after the
        thread finishes: the committed WAL records logged while it ran
        are byte-copied into the new generation's WAL before the manifest
        flips, so no acknowledged write is ever outside the current
        generation. A crash at any point before the flip recovers from
        the old (complete) generation. Snapshots are written stored, so
        what the thread takes off the write path is the file writes and
        their fsyncs: ~10-15 ms per rotation at 250 k keys over 4 shards on
        a 2-core machine (an inline rotation stalls one write ~25 ms, a
        background one two writes ~7 ms each), not the ~300 ms it was
        under zlib.
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
        self._state_provider: Optional[Callable[[], Dict[str, Any]]] = None
        self.snapshots_taken = 0
        self.background = bool(background_snapshots)
        self._bg_job: Optional[_Rotation] = None

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
        self._rotate(states)

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
        return RecoveredState(states=states, ops=ops, next_rowid=next_rowid)

    def bind(self, state_provider: Callable[[], Dict[str, Any]]) -> None:
        """Register the callable that produces snapshot states on demand."""
        self._state_provider = state_provider

    def close(self) -> None:
        """Close the WAL writer (discarding any uncommitted records).

        A finished background snapshot job is flipped in first (its
        snapshots are already on disk — flipping the manifest is cheap
        and makes the next recovery replay a shorter tail); an unfinished
        or failed one is discarded, leaving the old generation
        authoritative.
        """
        job, self._bg_job = self._bg_job, None
        if job is not None:
            job.thread.join()
            if (
                job.error is None
                and self._writer is not None
                and not self._writer.pending
            ):
                self._flip(job)
            else:
                self._unlink(job.snaps)
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
        return self._require_writer().append_insert(sid, keys, values)

    def log_delete(self, sid: int, keys: np.ndarray, missing: str) -> int:
        """Buffer a delete record for shard ``sid``; returns its LSN."""
        return self._require_writer().append_delete(sid, keys, missing)

    def commit(self, next_rowid: int) -> bool:
        """Group-commit all buffered records with one write + fsync.

        No-op (returns False) when nothing is buffered.
        """
        return self._require_writer().commit(int(next_rowid))

    def discard_pending(self) -> int:
        """Drop buffered-but-uncommitted records; returns how many."""
        if self._writer is None:
            return 0
        return self._writer.discard_pending()

    def shard_state(
        self, sid: int, *, version: int = 0, answer_lsn: Optional[int] = None
    ) -> Tuple[Dict[str, Any], Any]:
        """Shard ``sid``'s committed state, rebuilt from disk alone.

        Loads the current generation's snapshot of the shard, then
        applies the shard's committed records from the current WAL file
        with :func:`apply_record` — the replay a reopen runs.

        Parameters
        ----------
        sid:
            Shard id.
        version:
            Floor for the shard's version stamp, applied *before* the
            records replay (so an applied insert still moves it): the
            stamp its engine already acknowledged, which a snapshot may
            trail.
        answer_lsn:
            LSN of one of the shard's records whose outcome the caller
            wants back — a delete whose reply died with its worker.

        Returns
        -------
        tuple
            ``(state, answer)``: the shard's ``to_state`` after replay,
            and :func:`apply_record`'s outcome for record ``answer_lsn``
            (``None`` when not asked for).
        """
        if self._manifest is None:
            raise InvalidParameterError("WalStore has no loaded manifest")
        state = load_state(
            os.path.join(self.root, self._manifest["snapshots"][sid])
        )
        state["version"] = max(int(state["version"]), int(version))
        index = index_from_state(state)
        answer = None
        ops = read_committed(os.path.join(self.root, self._manifest["wal"]))[0]
        for rec in ops:
            if rec.shard == sid:
                outcome = apply_record(index, rec)
                if rec.lsn == answer_lsn:
                    answer = outcome
        return index.to_state(), answer

    # ------------------------------------------------------------------
    # snapshots

    def maybe_snapshot(self) -> bool:
        """Rotate a snapshot if the WAL outgrew the configured interval.

        Only armed in ``wal+snapshot`` mode, with a bound state provider
        and no uncommitted records buffered. Returns True when a
        rotation happened (with ``background_snapshots``, when one was
        *flipped* — starting the thread returns False, since the
        generation has not flipped yet).
        """
        if (
            self.durability != "wal+snapshot"
            or self._state_provider is None
            or self._writer is None
            or self._writer.pending
        ):
            return False
        job = self._bg_job
        if job is not None:
            if job.thread.is_alive():
                return False
            self._bg_job = None
            self._finish(job)
            return True
        if self._writer.bytes_written < self._interval:
            return False
        self._rotate(self._state_provider(), background=self.background)
        return not self.background

    def snapshot(self, states: Optional[Dict[str, Any]] = None) -> None:
        """Write a new snapshot generation and rotate the WAL, inline.

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
        job, self._bg_job = self._bg_job, None
        if job is not None:
            # A direct snapshot supersedes an in-flight background job:
            # it will capture strictly newer state, so the job's files
            # are stale the moment they finish.
            job.thread.join()
            self._unlink(job.snaps)
        if states is None:
            if self._state_provider is None:
                raise InvalidParameterError(
                    "snapshot needs states or a bound state provider"
                )
            states = self._state_provider()
        self._rotate(states)

    def _rotate(self, states: Dict[str, Any], *, background: bool = False) -> None:
        """Capture a rotation at this safe point and write its snapshots:
        inline and flipped at once, or on a thread and flipped by a later
        :meth:`maybe_snapshot` (or :meth:`close`)."""
        w = self._writer
        rot = _Rotation(
            self._generation + 1, states,
            start_lsn=0 if w is None else w.next_lsn,
            copy_from=0 if w is None else w.bytes_written,
        )
        if not background:
            self._write_snapshots(rot)
            self._finish(rot)
            return
        rot.thread = threading.Thread(
            target=self._write_snapshots, args=(rot,),
            name="repro-wal-snapshot", daemon=True,
        )
        rot.thread.start()
        self._bg_job = rot

    def _write_snapshots(self, rot: _Rotation) -> None:
        """Write and fsync one snapshot file per shard; a failure is kept
        on ``rot.error`` for the flip's safe point to raise. Each name is
        recorded before its file is opened, so a write that fails partway
        (ENOSPC) leaves no file that ``_finish`` does not unlink."""
        try:
            for sid, shard_state in enumerate(rot.states["shards"]):
                name = f"shard-{rot.generation:06d}-{sid:03d}.npz"
                rot.snaps.append(name)
                save_state(
                    shard_state, os.path.join(self.root, name), sync=self._sync
                )
        except BaseException as exc:
            rot.error = exc

    def _finish(self, rot: _Rotation) -> None:
        """Flip a rotation whose snapshots are written, or drop its files
        and raise what stopped them."""
        if rot.error is not None:
            self._unlink(rot.snaps)
            raise rot.error
        self._flip(rot)

    def _flip(self, rot: _Rotation) -> None:
        """Make ``rot`` the current generation, at a safe point.

        The snapshots cover state up to ``rot.start_lsn``; everything
        committed since lives in the current WAL at bytes
        ``[rot.copy_from:]``. WAL records are position-independent, so
        that committed suffix is byte-copied after the new file's header
        before the manifest flips — the new generation is complete
        (snapshot + carried tail) the instant it becomes authoritative.
        The old generation's files are then retired.
        """
        old_writer = self._writer
        carried = b""
        next_lsn = rot.start_lsn
        if old_writer is not None:
            with open(old_writer.path, "rb") as src:
                src.seek(rot.copy_from)
                carried = src.read(old_writer.bytes_written - rot.copy_from)
            next_lsn = old_writer.next_lsn
        wal_name = f"wal-{rot.generation:06d}.log"
        wal_path = os.path.join(self.root, wal_name)
        with open(wal_path, "wb") as dst:
            dst.write(wf.file_header() + carried)
            dst.flush()
            if self._sync:
                os.fsync(dst.fileno())
        writer = WalWriter(wal_path, start_lsn=next_lsn, sync=self._sync)
        states = rot.states
        manifest = {
            "manifest_version": MANIFEST_VERSION,
            "generation": rot.generation,
            "wal": wal_name,
            "snapshots": list(rot.snaps),
            "cuts": [float(c) for c in states["cuts"]],
            "auto_rowid": bool(states["auto_rowid"]),
            "next_rowid": int(states["next_rowid"]),
            "start_lsn": int(rot.start_lsn),
            "durability": self.durability,
        }
        write_manifest(self.root, manifest)
        old = self._manifest
        if old_writer is not None:
            old_writer.close()
        self._writer = writer
        self._manifest = manifest
        self._generation = rot.generation
        if old is not None:
            self.snapshots_taken += 1
            self._unlink([old["wal"]] + list(old["snapshots"]))

    def _unlink(self, names: List[str]) -> None:
        """Best-effort removal of retired or abandoned generation files."""
        for name in names:
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
            WAL size, snapshot count, and whether snapshots run in the
            background and one is in flight.
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
    else:
        check_missing(missing)
    lsns = {}
    for sid, a, b in slices:
        if values is None:
            lsns[sid] = store.log_delete(sid, keys[a:b], missing)
        else:
            lsns[sid] = store.log_insert(sid, keys[a:b], values[a:b])
    store.commit(next_rowid)
    return lsns


def apply_record(index: Any, rec: WalRecord) -> Any:
    """Apply one committed WAL record to its shard's index.

    The one per-record replay, shared by :func:`replay_ops` (a reopen)
    and :meth:`WalStore.shard_state` (a cluster worker restore).

    Returns
    -------
    object
        ``None`` for an insert; for a delete, ``pop_batch``'s
        ``(values, found)``, or the ``KeyNotFoundError`` a strict delete
        raised — swallowed, since a committed strict delete
        (``missing="raise"``) may legitimately have failed partway when
        first applied, and replay reproduces that same partial
        application.
    """
    if rec.op == wf.OP_INSERT:
        index.insert_batch(rec.keys, rec.values)
        return None
    if rec.op == wf.OP_DELETE:
        try:
            return index.pop_batch(rec.keys, missing=rec.missing)
        except KeyNotFoundError as exc:
            return exc
    raise InvalidParameterError(f"cannot replay WAL op {rec.op}")


def replay_ops(engine: Any, ops: List[WalRecord]) -> None:
    """Replay committed WAL records into a freshly rebuilt engine.

    Applies each record directly to its target shard (routing was fixed
    when the record was logged) with :func:`apply_record`.
    """
    shards = engine.shards
    for rec in ops:
        apply_record(shards[rec.shard], rec)
