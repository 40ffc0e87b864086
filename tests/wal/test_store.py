"""WalStore lifecycle: initialize/recover, rotation, tail handling."""

import errno
import os
import zipfile

import numpy as np
import pytest

from repro.api import open_engine
from repro.core.errors import InvalidParameterError
from repro.engine import ShardedEngine
from repro.wal import WalStore, load_manifest, replay_ops
from repro.wal import store as store_mod

KEYS = np.sort(np.random.default_rng(0).uniform(0, 1e6, 4_000))


def _engine():
    return ShardedEngine(KEYS, n_shards=2, error=64.0)


def _fresh(tmp_path, engine, durability="wal", **kw):
    store = WalStore(str(tmp_path), durability=durability, **kw)
    store.initialize(engine.to_states())
    return store


def test_initialize_creates_generation_one(tmp_path):
    engine = _engine()
    store = WalStore(str(tmp_path))
    assert not store.exists
    store.initialize(engine.to_states())
    assert store.exists
    assert store.generation == 1
    manifest = load_manifest(str(tmp_path))
    assert manifest["generation"] == 1
    assert len(manifest["snapshots"]) == 2
    for name in manifest["snapshots"] + [manifest["wal"]]:
        assert os.path.exists(os.path.join(str(tmp_path), name))
    store.close()


def test_double_initialize_is_rejected(tmp_path):
    engine = _engine()
    store = _fresh(tmp_path, engine)
    store.close()
    with pytest.raises(InvalidParameterError):
        WalStore(str(tmp_path)).initialize(engine.to_states())


def test_invalid_durability_mode_is_rejected(tmp_path):
    for mode in ("off", "nope"):
        with pytest.raises(InvalidParameterError):
            WalStore(str(tmp_path), durability=mode)


def test_log_commit_recover_round_trip(tmp_path):
    engine = _engine()
    store = _fresh(tmp_path, engine)
    store.log_insert(0, np.array([1.5]), np.array([7], dtype=np.int64))
    store.log_delete(1, np.array([float(KEYS[-1])]), "raise")
    assert store.commit(next_rowid=4001)
    store.close()

    reopened = WalStore(str(tmp_path))
    rec = reopened.recover()
    assert rec.next_rowid == 4001
    assert [r.op for r in rec.ops] == [1, 2]
    twin = ShardedEngine.from_states(rec.states)
    replay_ops(twin, rec.ops)
    assert twin.get(1.5) == 7
    assert float(KEYS[-1]) not in twin
    reopened.close()


def test_commit_without_pending_is_a_noop(tmp_path):
    store = _fresh(tmp_path, _engine())
    bytes_before = store.stats()["wal_bytes"]
    assert not store.commit(next_rowid=0)
    assert store.stats()["wal_bytes"] == bytes_before
    store.close()


def test_recovery_truncates_torn_tail(tmp_path):
    engine = _engine()
    store = _fresh(tmp_path, engine)
    store.log_insert(0, np.array([1.5]), np.array([7], dtype=np.int64))
    store.commit(next_rowid=4001)
    wal_path = os.path.join(str(tmp_path), load_manifest(str(tmp_path))["wal"])
    store.close()

    committed = os.path.getsize(wal_path)
    with open(wal_path, "ab") as fh:
        fh.write(b"\x13\x37" * 40)  # a torn, garbage tail

    reopened = WalStore(str(tmp_path))
    rec = reopened.recover()
    assert len(rec.ops) == 1
    assert os.path.getsize(wal_path) == committed  # tail cut in place
    # New appends must extend the committed prefix, not the garbage.
    reopened.log_insert(0, np.array([2.5]), np.array([8], dtype=np.int64))
    reopened.commit(next_rowid=4002)
    reopened.close()
    rec2 = WalStore(str(tmp_path)).recover()
    assert [float(r.keys[0]) for r in rec2.ops] == [1.5, 2.5]
    assert rec2.next_rowid == 4002


def test_uncommitted_records_do_not_replay(tmp_path):
    engine = _engine()
    store = _fresh(tmp_path, engine)
    store.log_insert(0, np.array([1.5]), np.array([7], dtype=np.int64))
    store.commit(next_rowid=4001)
    # Logged but never committed: must not survive recovery.
    store.log_insert(0, np.array([2.5]), np.array([8], dtype=np.int64))
    store._writer._fh.flush()
    store.close()
    rec = WalStore(str(tmp_path)).recover()
    assert [float(r.keys[0]) for r in rec.ops] == [1.5]
    assert rec.next_rowid == 4001


def test_snapshot_rotates_generation_and_prunes(tmp_path):
    engine = _engine()
    store = _fresh(tmp_path, engine)
    engine.attach_wal(store)
    engine.insert_batch(np.array([1.5, 2.5]), None)
    old = set(os.listdir(str(tmp_path)))
    store.snapshot(engine.to_states())
    assert store.generation == 2
    manifest = load_manifest(str(tmp_path))
    assert manifest["generation"] == 2
    new = set(os.listdir(str(tmp_path)))
    assert not (old & new) - {"MANIFEST.json"}  # old generation pruned
    engine.close()

    # Recovery from the new generation alone reproduces the dataset.
    rec = WalStore(str(tmp_path)).recover()
    assert rec.ops == []
    twin = ShardedEngine.from_states(rec.states)
    assert twin.get(1.5) is not None
    assert len(twin) == len(KEYS) + 2


def test_snapshot_with_pending_records_is_rejected(tmp_path):
    engine = _engine()
    store = _fresh(tmp_path, engine)
    store.log_insert(0, np.array([1.5]), np.array([7], dtype=np.int64))
    with pytest.raises(InvalidParameterError):
        store.snapshot(engine.to_states())
    store.close()


def test_maybe_snapshot_honors_interval_and_mode(tmp_path):
    engine = _engine()
    # Plain "wal" mode never auto-snapshots.
    store = _fresh(tmp_path, engine, durability="wal",
                   snapshot_interval_bytes=1)
    engine.attach_wal(store)
    engine.insert_batch(np.array([1.5]), None)
    assert store.generation == 1
    assert store.stats()["snapshots"] == 0
    engine.close()

    other = tmp_path / "snap"
    engine2 = _engine()
    store2 = WalStore(str(other), durability="wal+snapshot",
                      snapshot_interval_bytes=1)
    store2.initialize(engine2.to_states())
    engine2.attach_wal(store2)
    engine2.insert_batch(np.array([1.5]), None)  # crosses the 1-byte interval
    assert store2.generation == 2
    assert store2.stats()["snapshots"] == 1
    engine2.close()


def test_stats_schema(tmp_path):
    store = _fresh(tmp_path, _engine())
    stats = store.stats()
    assert {
        "durability", "generation", "records", "commits", "fsyncs",
        "wal_bytes", "snapshots", "background", "snapshot_in_flight",
    } <= set(stats)
    # The WAL file is the only copy of the committed tail: no in-memory
    # mirror, so nothing to count.
    assert "tail_ops" not in stats
    store.close()


def _members(path):
    with zipfile.ZipFile(path) as zf:
        return [m.compress_type for m in zf.infolist()]


def _assert_only_manifest_files(root):
    manifest = load_manifest(root)
    assert set(os.listdir(root)) == {
        "MANIFEST.json", manifest["wal"], *manifest["snapshots"]
    }


def _assert_same_rows(got, want):
    for a, b in zip(got.range_arrays(None, None),
                    want.range_arrays(None, None)):
        assert np.array_equal(a, b)


def _assert_recovers_to(root, engine):
    rec = WalStore(root).recover()
    twin = ShardedEngine.from_states(rec.states)
    replay_ops(twin, rec.ops)
    _assert_same_rows(twin, engine)


def test_rotation_writes_stored_members(tmp_path):
    engine = _engine()
    store = _fresh(tmp_path, engine)
    engine.attach_wal(store)
    engine.insert_batch(np.array([1.5, 2.5]), None)
    store.snapshot()
    root = str(tmp_path)
    names = load_manifest(root)["snapshots"]
    assert len(names) == 2
    for name in names:
        assert set(_members(os.path.join(root, name))) == {zipfile.ZIP_STORED}
    engine.close()


def test_compressed_generation_recovers_and_rotates_stored(tmp_path):
    """A data_dir whose generation-1 snapshots the old writer compressed
    still recovers, takes writes and rotates to a stored generation 2."""
    root = str(tmp_path)
    engine = _engine()
    _fresh(tmp_path, engine).close()
    for name in load_manifest(root)["snapshots"]:
        path = os.path.join(root, name)
        with np.load(path) as archive:
            members = {k: archive[k] for k in archive.files}
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **members)
        assert set(_members(path)) == {zipfile.ZIP_DEFLATED}

    reopened = open_engine(data_dir=root, executor="sharded", n_shards=2,
                           error=64.0, durability="wal")
    try:
        inserts = np.random.default_rng(5).uniform(0, 1e6, 200)
        for target in (reopened, engine):
            target.insert_batch(np.array([1.5, 2.5]), None)
            target.delete_batch(KEYS[10:40].copy())
            target.insert_batch(inserts, None)
        _assert_same_rows(reopened, engine)
        reopened._wal.snapshot()
        assert reopened._wal.generation == 2
        manifest = load_manifest(root)
        for name in manifest["snapshots"]:
            assert name.startswith("shard-000002-")
            assert set(_members(os.path.join(root, name))) == {
                zipfile.ZIP_STORED
            }
        _assert_only_manifest_files(root)
        _assert_same_rows(reopened, engine)
    finally:
        reopened.close()
    _assert_recovers_to(root, engine)


@pytest.mark.parametrize("failing_sid", [0, 1])
@pytest.mark.parametrize("background", [False, True],
                         ids=["inline", "background"])
def test_failed_snapshot_write_leaves_no_orphan(
    tmp_path, monkeypatch, background, failing_sid
):
    """A snapshot write that dies partway (ENOSPC) leaves only the
    manifest's files, and the old generation still recovers."""
    root = str(tmp_path)
    engine = _engine()
    store = _fresh(tmp_path, engine, durability="wal+snapshot",
                   snapshot_interval_bytes=1,
                   background_snapshots=background)
    engine.attach_wal(store)
    real = store_mod.save_state
    calls = []

    def save_then_fail(state, path, *, sync=False):
        calls.append(path)
        if len(calls) <= failing_sid:
            return real(state, path, sync=sync)
        with open(path, "wb") as fh:
            fh.write(b"PK\x03\x04" + bytes(4096))  # a torn archive
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    monkeypatch.setattr(store_mod, "save_state", save_then_fail)
    if background:
        # The write starts the job; the next safe point finds it failed.
        engine.insert_batch(np.array([1.5, 2.5]), None)
        store._bg_job.thread.join()
        with pytest.raises(OSError):
            engine.insert_batch(np.array([3.5]), None)
    else:
        with pytest.raises(OSError):
            engine.insert_batch(np.array([1.5, 2.5]), None)
    assert len(calls) == failing_sid + 1
    assert store.generation == 1
    assert not store.stats()["snapshot_in_flight"]
    _assert_only_manifest_files(root)
    _assert_recovers_to(root, engine)

    # The store keeps working: the next rotation writes generation 2.
    monkeypatch.undo()
    store.snapshot()
    assert store.generation == 2
    _assert_only_manifest_files(root)
    engine.close()
    _assert_recovers_to(root, engine)
