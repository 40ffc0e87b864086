"""Crash recovery end-to-end: SIGKILLed workers and whole processes.

The durability contract under test: after a hard kill (worker process or
the whole engine process) mid-write, restarting from snapshot + committed
WAL tail yields a state **bit-identical** to an in-process twin that
applied the same committed operations and never crashed.
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.api import open_engine
from repro.cluster import ClusterEngine
from repro.core.errors import KeyNotFoundError
from repro.engine import ShardedEngine
from repro.wal import WalStore, load_manifest

BASE = np.sort(np.random.default_rng(7).uniform(0, 1e6, 3_000))


def _assert_states_match(a, b):
    """Bit-identical data arrays (version stamps may differ: replay and
    restore bump a recovered engine's counters independently)."""
    assert a["next_rowid"] == b["next_rowid"]
    assert np.array_equal(a["cuts"], b["cuts"])
    assert len(a["shards"]) == len(b["shards"])
    for sa, sb in zip(a["shards"], b["shards"]):
        for field in sa:
            va = sa[field]
            if isinstance(va, np.ndarray):
                assert np.array_equal(va, sb[field], equal_nan=True), field


def _kill_worker(engine, sid):
    pid = engine._workers[sid].process.pid
    os.kill(pid, signal.SIGKILL)
    engine._workers[sid].process.join(10)


def _durable_cluster(tmp, **kw):
    engine = ClusterEngine(BASE, n_shards=2, error=64.0)
    store = WalStore(str(tmp), **kw)
    store.initialize(engine.to_states())
    engine.attach_wal(store)
    return engine


def test_worker_sigkill_mid_insert_recovers_bit_identical(tmp_path):
    engine = _durable_cluster(tmp_path, durability="wal")
    twin = ShardedEngine(BASE, n_shards=2, error=64.0)
    rng = np.random.default_rng(8)
    try:
        for round_no in range(4):
            keys = rng.uniform(0, 1e6, 64)
            values = rng.integers(0, 1 << 30, 64)
            if round_no % 2 == 0:
                # The worker is dead when the chunk is dispatched: the
                # send/recv fails mid-round and the engine must restore
                # from snapshot + tail, re-applying the logged chunk.
                _kill_worker(engine, round_no % 2)
            engine.insert_batch(keys, values)
            twin.insert_batch(keys, values)
            assert len(engine) == len(twin)
        engine.validate()
        _assert_states_match(engine.to_states(), twin.to_states())
    finally:
        engine.close()


def test_worker_sigkill_mid_delete_recovers_values_or_types(tmp_path):
    engine = _durable_cluster(tmp_path, durability="wal")
    twin = ShardedEngine(BASE, n_shards=2, error=64.0)
    try:
        _kill_worker(engine, 0)
        doomed = BASE[:10].copy()
        got = engine.delete_batch(doomed)
        want = twin.delete_batch(doomed)
        assert list(got) == list(want)
        assert len(engine) == len(twin)
        _assert_states_match(engine.to_states(), twin.to_states())
    finally:
        engine.close()


def test_strict_delete_failing_in_one_shard_replays_to_live_state(tmp_path):
    engine = _durable_cluster(tmp_path, durability="wal")
    twin = ShardedEngine(BASE, n_shards=2, error=64.0)
    # Shard 0's chunk misses (a hair above a live key), shard 1's hits.
    keys = np.asarray([np.nextafter(BASE[5], np.inf), BASE[-5]])
    try:
        for eng in (engine, twin):
            with pytest.raises(KeyNotFoundError):
                eng.delete_batch(keys)
        assert len(engine) == len(twin) == BASE.size - 1
        # Both workers die: each restarts from snapshot + its committed
        # tail, so shard 0's record replays to the same miss and shard
        # 1's to the same removal.
        _kill_worker(engine, 0)
        _kill_worker(engine, 1)
        assert list(engine.get_batch(keys, -1)) == [-1, -1]
        _assert_states_match(engine.to_states(), twin.to_states())
    finally:
        engine.close()
    reopened = open_engine(
        executor="sharded", n_shards=2, error=64.0,
        durability="wal", data_dir=str(tmp_path),
    )
    try:
        _assert_states_match(reopened.to_states(), twin.to_states())
    finally:
        reopened.close()


def test_worker_sigkill_mid_snapshot_keeps_old_generation(tmp_path):
    engine = _durable_cluster(
        tmp_path, durability="wal+snapshot", snapshot_interval_bytes=1
    )
    twin = ShardedEngine(BASE, n_shards=2, error=64.0)
    store = engine._wal
    real_provider = engine.to_states

    def dying_provider():
        # The snapshot pull finds a freshly-killed worker: the pull
        # raises ClusterError mid-snapshot and must leave the previous
        # generation's manifest fully intact.
        _kill_worker(engine, 0)
        return real_provider()

    store.bind(dying_provider)
    keys = np.array([123.25, 456.75])
    values = np.array([1, 2])
    engine.insert_batch(keys, values)  # crosses interval -> snapshot dies
    twin.insert_batch(keys, values)
    assert store.generation == 1
    assert load_manifest(str(tmp_path))["generation"] == 1

    # The engine is still fully usable: the next op restores the worker,
    # and with the real provider back, the snapshot completes.
    store.bind(real_provider)
    engine.insert_batch(np.array([789.5]), np.array([3]))
    twin.insert_batch(np.array([789.5]), np.array([3]))
    assert store.generation > 1
    _assert_states_match(engine.to_states(), twin.to_states())
    engine.close()

    # And recovery from the post-crash generation matches the twin too.
    reopened = open_engine(
        executor="sharded", n_shards=2, error=64.0,
        durability="wal+snapshot", data_dir=str(tmp_path),
    )
    try:
        _assert_states_match(reopened.to_states(), twin.to_states())
    finally:
        reopened.close()


def _crash_loop(data_dir, ready):
    """Child: open a durable engine and insert forever (parent SIGKILLs)."""
    engine = open_engine(
        BASE, executor="sharded", n_shards=1, error=64.0,
        durability="wal", data_dir=data_dir,
    )
    ready.set()
    i = 0
    while True:
        engine.insert_batch(
            np.asarray([2e6 + i], dtype=np.float64),
            np.asarray([i], dtype=np.int64),
        )
        i += 1


def test_whole_process_sigkill_recovers_committed_prefix(tmp_path):
    ctx = multiprocessing.get_context("fork")
    ready = ctx.Event()
    child = ctx.Process(target=_crash_loop, args=(str(tmp_path), ready))
    child.start()
    try:
        assert ready.wait(60), "child never initialized its engine"
        wal_rel = load_manifest(str(tmp_path))["wal"]
        wal_path = os.path.join(str(tmp_path), wal_rel)
        deadline = time.time() + 60
        while os.path.getsize(wal_path) < 4096:  # let some commits land
            assert time.time() < deadline, "child made no progress"
            time.sleep(0.01)
    finally:
        os.kill(child.pid, signal.SIGKILL)
        child.join(10)

    # Count the committed inserts, then check recovery equals the twin
    # that applied exactly that prefix and never crashed.
    probe = WalStore(str(tmp_path))
    ops = probe.recover().ops
    probe.close()
    k = len(ops)
    assert k > 0

    recovered = open_engine(
        executor="sharded", n_shards=1, error=64.0,
        durability="wal", data_dir=str(tmp_path),
    )
    try:
        twin = ShardedEngine(BASE, n_shards=1, error=64.0)
        for i in range(k):
            twin.insert_batch(
                np.asarray([2e6 + i], dtype=np.float64),
                np.asarray([i], dtype=np.int64),
            )
        _assert_states_match(recovered.to_states(), twin.to_states())
        assert recovered.get(2e6 + (k - 1)) == k - 1
        if k < len(ops) + 1:  # the torn (k+1)-th insert must be absent
            assert (2e6 + k) not in recovered
    finally:
        recovered.close()


def test_poisoned_worker_is_restored_on_durable_engine(tmp_path):
    engine = _durable_cluster(tmp_path, durability="wal")
    try:
        # Simulate a timed-out worker: poisoned shards are fenced off on
        # non-durable engines, but a durable engine kills + restores.
        engine._poisoned.add(0)
        with pytest.raises(Exception):
            # Directly exercise the transport guard for coverage.
            engine._send(0, ("stats",))
        out = engine.get_batch(BASE[:32])
        assert list(out) == list(range(32))
        assert 0 not in engine._poisoned
    finally:
        engine.close()
