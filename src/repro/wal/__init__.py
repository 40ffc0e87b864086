"""Crash-safe durability: write-ahead log, snapshots, and recovery.

The package follows the classic log-then-absorb design that FITing-Tree's
delta buffers make natural: every mutation is encoded as a CRC32-checked
binary record (:mod:`repro.wal.format`), group-committed with one fsync
per engine batch verb (:mod:`repro.wal.log`), and periodically absorbed
into per-shard ``.npz`` snapshots tied together by an atomic manifest
(:mod:`repro.wal.manifest`). :class:`repro.wal.store.WalStore` owns the
whole lifecycle for one durability directory; recovery is "load the
manifest's snapshots, replay the committed WAL tail".

Engines opt in via ``EngineConfig(durability=..., data_dir=...)`` /
``open_engine`` — see :mod:`repro.api.factory`.
"""

from repro.wal.format import (
    OP_COMMIT,
    OP_DELETE,
    OP_INSERT,
    WalRecord,
)
from repro.wal.log import WalWriter, read_committed
from repro.wal.manifest import load_manifest, manifest_path, write_manifest
from repro.wal.store import (
    DEFAULT_SNAPSHOT_INTERVAL_BYTES,
    DURABILITY_MODES,
    RecoveredState,
    WalStore,
    log_chunks,
    replay_ops,
)

__all__ = [
    "DEFAULT_SNAPSHOT_INTERVAL_BYTES",
    "DURABILITY_MODES",
    "OP_COMMIT",
    "OP_DELETE",
    "OP_INSERT",
    "RecoveredState",
    "WalRecord",
    "WalStore",
    "WalWriter",
    "load_manifest",
    "log_chunks",
    "manifest_path",
    "read_committed",
    "replay_ops",
    "write_manifest",
]
