"""Append-only WAL file writer and committed-prefix reader.

:class:`WalWriter` implements group commit: data records accumulate in a
process-local buffer and :meth:`WalWriter.commit` flushes them plus one
``OP_COMMIT`` seal with a *single* ``write`` + ``fsync``. Engines call
``commit`` once per batch verb, and the serve layer's write fence already
coalesces queued mutations into one engine batch per micro-batch — so
durability costs one fsync per micro-batch, not one per request.

:func:`read_committed` is the recovery-side inverse: it returns only the
records sealed by a trailing commit, tolerating any torn tail the crash
left behind (see :mod:`repro.wal.format` for the exact rules).
"""

from __future__ import annotations

import os
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.wal import format as wf
from repro.wal.format import WalRecord


class WalWriter:
    """Buffered append writer over one WAL file.

    Parameters
    ----------
    path : str
        File to append to. Created (with a file header) if missing or
        empty; otherwise records continue after the existing contents.
    start_lsn : int
        LSN assigned to the next appended record.
    sync : bool
        When True (default) every :meth:`commit` ends with ``fsync``;
        False trades crash durability for speed (tests, benchmarks).
    """

    def __init__(self, path: str, *, start_lsn: int = 0, sync: bool = True):
        self.path = path
        self._sync = bool(sync)
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        self._fh = open(path, "ab")
        if fresh:
            self._fh.write(wf.file_header())
            self._fh.flush()
            if self._sync:
                os.fsync(self._fh.fileno())
        self._lsn = int(start_lsn)
        self._pending: List[bytes] = []
        self.records = 0
        self.commits = 0
        self.fsyncs = 0
        self.bytes_written = self._fh.tell()

    @property
    def next_lsn(self) -> int:
        """LSN the next appended record will carry."""
        return self._lsn

    @property
    def pending(self) -> int:
        """Number of buffered records awaiting the next commit."""
        return len(self._pending)

    def _append(self, encoded: bytes) -> int:
        lsn = self._lsn
        self._pending.append(encoded)
        self._lsn += 1
        self.records += 1
        return lsn

    def append_insert(self, shard: int, keys: np.ndarray, values: Any) -> int:
        """Buffer an insert record; returns its LSN."""
        return self._append(wf.encode_insert(self._lsn, shard, keys, values))

    def append_delete(self, shard: int, keys: np.ndarray, missing: str) -> int:
        """Buffer a delete record; returns its LSN."""
        return self._append(wf.encode_delete(self._lsn, shard, keys, missing))

    def commit(self, next_rowid: int) -> bool:
        """Seal and persist every buffered record (group commit).

        Writes the buffered records plus one ``OP_COMMIT`` with a single
        ``write`` call, then ``flush`` + ``fsync`` (when ``sync``). A
        no-op returning False when nothing is buffered.

        Parameters
        ----------
        next_rowid : int
            Engine rowid watermark recorded in the commit, restored on
            recovery so auto-assigned rowids never repeat.
        """
        if not self._pending:
            return False
        commit = wf.encode_commit(self._lsn, next_rowid)
        self._lsn += 1
        blob = b"".join(self._pending) + commit
        self._pending.clear()
        self._fh.write(blob)
        self._fh.flush()
        if self._sync:
            os.fsync(self._fh.fileno())
            self.fsyncs += 1
        self.commits += 1
        self.bytes_written += len(blob)
        return True

    def discard_pending(self) -> int:
        """Drop buffered-but-uncommitted records; returns how many."""
        n = len(self._pending)
        self._pending.clear()
        return n

    def close(self) -> None:
        """Close the underlying file (pending records are discarded)."""
        self._pending.clear()
        if not self._fh.closed:
            self._fh.close()


def read_committed(path: str) -> Tuple[List[WalRecord], Optional[int], int, int]:
    """Read the committed prefix of a WAL file.

    Parameters
    ----------
    path : str
        WAL file to scan.

    Returns
    -------
    tuple
        ``(ops, next_rowid, next_lsn, committed_end)`` where ``ops`` are
        the data records sealed by a commit (commit records themselves
        are folded into ``next_rowid``), ``next_rowid`` is the watermark
        from the last commit (``None`` if no commit exists), ``next_lsn``
        continues the sequence after the last committed record, and
        ``committed_end`` is the byte offset of the committed prefix —
        the truncation point that discards any torn or unsealed tail.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    ops: List[WalRecord] = []
    group: List[WalRecord] = []
    next_rowid: Optional[int] = None
    next_lsn = 0
    committed_end = wf.FILE_HEADER.size
    for rec, end in wf.iter_records(buf):
        if rec.op == wf.OP_COMMIT:
            ops.extend(group)
            group = []
            next_rowid = rec.next_rowid
            next_lsn = rec.lsn + 1
            committed_end = end
        else:
            group.append(rec)
    return ops, next_rowid, next_lsn, committed_end
