"""Regression tests for the cluster-lifecycle bugfix sweep.

Three previously-silent failure modes, now pinned:

* ``len(engine)`` desyncing when a fenced write round fails partway (the
  old recount did an all-shards round a single dead worker would veto);
* worker-spawn failure during ``__init__`` leaking already-started
  processes and shared-memory lanes;
* a ``spawn`` boot hanging in ``Process.start`` when a worker died
  before reading its shard state (the state now follows over the pipe);
* teardown failures being swallowed by blanket ``except: pass`` blocks
  with no trace (now narrowed and counted);
* a SIGKILLed worker's reply lane outliving it (the worker owns the
  lane, so the parent unlinks the last name it was sent).
"""

import multiprocessing
import os
import signal
import subprocess
import sys
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.cluster.engine as cluster_engine
from repro.cluster import ClusterEngine, ClusterError, teardown_errors
from repro.cluster.shm import ShmLane
from repro.wal import WalStore

KEYS = np.sort(np.random.default_rng(5).uniform(0, 1e6, 4_000))


def _kill_worker(engine, sid):
    os.kill(engine._workers[sid].process.pid, signal.SIGKILL)
    engine._workers[sid].process.join(10)


# ----------------------------------------------------------------------
# Satellite 1: _n resync after a partially-applied round
# ----------------------------------------------------------------------


def test_len_resyncs_after_crash_mid_insert_round():
    engine = ClusterEngine(KEYS, n_shards=2, error=64.0)
    try:
        cut = float(engine.cuts[0])
        _kill_worker(engine, 1)
        batch = np.asarray([cut / 2, cut / 3, cut * 2, cut * 3])
        values = np.asarray([1, 2, 3, 4])
        with pytest.raises(ClusterError):
            engine.insert_batch(batch, values)
        # Shard 0's chunk applied before shard 1's send failed; the old
        # recount raised on the dead worker and left len() stale at the
        # pre-insert count.
        applied = int((batch < cut).sum())
        assert len(engine) == len(KEYS) + applied
        assert engine.get(cut / 2) == 1
    finally:
        engine.close()


def test_len_resyncs_after_crash_mid_delete_round():
    engine = ClusterEngine(KEYS, n_shards=2, error=64.0)
    try:
        cut = float(engine.cuts[0])
        _kill_worker(engine, 1)
        low = KEYS[KEYS < cut][:3]  # shard 0 (applies)
        high = KEYS[KEYS >= cut][:3]  # shard 1 (dead)
        with pytest.raises(ClusterError):
            engine.delete_batch(np.concatenate([low, high]))
        assert len(engine) == len(KEYS) - low.size
        assert float(low[0]) not in engine
    finally:
        engine.close()


def test_stats_refreshes_per_shard_counts():
    engine = ClusterEngine(KEYS, n_shards=2, error=64.0)
    try:
        engine.insert_batch(np.asarray([1.0]), np.asarray([1]))
        stats = engine.stats()
        assert stats["n"] == len(KEYS) + 1
        assert engine._shard_ns == [s["n"] for s in stats["shards"]]
    finally:
        engine.close()


# ----------------------------------------------------------------------
# Satellite 2: failed __init__ must not leak processes or shm lanes
# ----------------------------------------------------------------------


def test_failed_spawn_leaks_no_processes_or_lanes(monkeypatch):
    created = []
    real_lane = cluster_engine.ShmLane
    calls = {"n": 0}

    def flaky_lane():
        calls["n"] += 1
        if calls["n"] == 2:  # second worker's request lane
            raise OSError("synthetic shm exhaustion")
        lane = real_lane()
        created.append(lane.name)
        return lane

    monkeypatch.setattr(cluster_engine, "ShmLane", flaky_lane)
    with pytest.raises(OSError, match="synthetic shm exhaustion"):
        ClusterEngine(KEYS, n_shards=2, error=64.0)

    assert len(created) == 1  # the first worker's lane really was allocated
    for name in created:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
    leaked = [
        p
        for p in multiprocessing.active_children()
        if p.name.startswith("repro-shard-")
    ]
    for p in leaked:  # pragma: no cover - cleanup before failing loudly
        p.terminate()
        p.join(5)
    assert leaked == []


def test_failed_worker_start_cleans_up_partial_spawn(monkeypatch):
    engine = ClusterEngine(KEYS, n_shards=1, error=64.0)
    try:
        created = []
        real_lane = cluster_engine.ShmLane

        def tracking_lane():
            lane = real_lane()
            created.append(lane.name)
            return lane

        class ExplodingProcess:
            def __init__(self, *a, **kw):
                raise RuntimeError("no more processes")

        monkeypatch.setattr(cluster_engine, "ShmLane", tracking_lane)
        monkeypatch.setattr(engine._ctx, "Process", ExplodingProcess)
        with pytest.raises(RuntimeError, match="no more processes"):
            engine._spawn_worker(0, {"index_cls": "unused"})
        assert len(created) == 1
        for name in created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
    finally:
        engine.close()


_SPAWN_DIES_SCRIPT = """
import os, time
if __name__ == "__mp_main__":  # each spawned worker re-runs this file
    os._exit(3)                # ... and dies before it reads anything
import numpy as np
from repro.cluster import ClusterEngine, ClusterError
keys = np.linspace(0.0, 1e6, 60_000)  # ~0.5 MB of state per shard
t0 = time.monotonic()
try:
    ClusterEngine(keys, n_shards=2, mp_context="spawn", op_timeout=20.0)
except ClusterError as exc:
    print(type(exc).__name__, time.monotonic() - t0)
"""


def test_spawn_worker_dead_before_its_state_fails_the_boot(tmp_path):
    """Under ``spawn`` a worker that dies before its state arrives fails
    the boot with a ClusterError within ``op_timeout``. With the state in
    the process args, ``Process.start`` blocks for good writing it into
    the dead child's pipe; the subprocess timeout turns that hang into a
    failure instead of a stalled suite."""
    script = tmp_path / "spawn_dies.py"
    script.write_text(_SPAWN_DIES_SCRIPT)
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    kind, elapsed = proc.stdout.split()
    assert kind == "WorkerCrashedError"
    assert float(elapsed) < 20.0


# ----------------------------------------------------------------------
# Satellite 3: teardown failures are counted, not silently swallowed
# ----------------------------------------------------------------------


def test_teardown_errors_counted_on_close_with_dead_worker():
    engine = ClusterEngine(KEYS, n_shards=2, error=64.0)
    before = teardown_errors()
    _kill_worker(engine, 0)
    engine.close()
    after = teardown_errors()
    # The shutdown send to the SIGKILLed worker hits a broken pipe; the
    # old code swallowed it with a bare ``except: pass``.
    assert after > before


def test_teardown_errors_surface_in_stats():
    engine = ClusterEngine(KEYS, n_shards=1, error=64.0)
    try:
        stats = engine.stats()
        assert stats["ipc"]["teardown_errors"] == teardown_errors()
    finally:
        engine.close()


# ----------------------------------------------------------------------
# A dead worker's reply lane is unlinked by the parent
# ----------------------------------------------------------------------


def _lane_exists(name):
    try:
        shared_memory.SharedMemory(name=name).close()
    except FileNotFoundError:
        return False
    return True


def test_sigkilled_worker_reply_lane_is_unlinked_by_restore(tmp_path):
    engine = ClusterEngine(KEYS, n_shards=2, error=64.0)
    try:
        store = WalStore(str(tmp_path))
        store.initialize(engine.to_states())
        engine.attach_wal(store)
        dead = engine._workers[1].resp
        assert _lane_exists(dead)
        _kill_worker(engine, 1)
        # The read restores the worker, which names a new reply lane.
        assert engine.get_batch(KEYS).tolist() == list(range(KEYS.size))
        assert not _lane_exists(dead)
        assert _lane_exists(engine._workers[1].resp)
    finally:
        engine.close()


def test_sigkilled_worker_reply_lane_is_unlinked_by_close():
    engine = ClusterEngine(KEYS, n_shards=2, error=64.0)
    names = [w.resp for w in engine._workers]
    _kill_worker(engine, 1)
    with pytest.raises(ClusterError):
        engine.get_batch(KEYS)
    engine.close()
    assert not any(_lane_exists(name) for name in names)
