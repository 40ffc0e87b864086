"""ClusterEngine results are bit-identical to the in-process ShardedEngine.

The acceptance contract of the cluster layer: the same workload driven
through a ClusterEngine and a ShardedEngine twin (identical build, same
operations in the same order) must produce identical batch results and
identical engine-wide version stamps — including mid-batch page splits,
duplicates straddling nothing (cuts), and read-your-writes immediately
after ``insert_batch``. Failure-path behavior (dead workers, use after
close) must surface as typed ``ClusterError``s.
"""

import os
import signal
import time

import numpy as np
import pytest

from helpers import assert_batches_equal, cluster
from repro.cluster import ClusterEngine, ClusterError, WorkerCrashedError
from repro.core.errors import InvalidParameterError
from repro.datasets import get
from repro.engine import ShardedEngine


def twin_pair(keys, **kwargs):
    inproc = ShardedEngine(keys, **kwargs)
    return inproc, ClusterEngine.from_engine(inproc)


@pytest.mark.parametrize("dataset", ["uniform", "iot", "adversarial"])
@pytest.mark.parametrize("n_shards", [1, 3])
class TestReadEquivalence:
    def test_build_only(self, dataset, n_shards):
        keys = get(dataset, n=6_000, seed=0)
        inproc, clustered = twin_pair(keys, n_shards=n_shards, error=64)
        with clustered:
            rng = np.random.default_rng(1)
            queries = np.concatenate([
                keys[rng.integers(0, len(keys), 500)],
                rng.uniform(keys.min() - 10, keys.max() + 10, 300),
                [np.nan, np.inf, -np.inf],
            ])
            assert_batches_equal(
                clustered.get_batch(queries, default=-1),
                inproc.get_batch(queries, default=-1),
                dataset,
            )
            assert clustered.version == inproc.version
            assert len(clustered) == len(inproc)

    def test_post_insert_buffered_state(self, dataset, n_shards):
        keys = get(dataset, n=6_000, seed=0)
        inproc, clustered = twin_pair(
            keys, n_shards=n_shards, error=128, buffer_capacity=32
        )
        with clustered:
            rng = np.random.default_rng(2)
            inserts = rng.uniform(keys.min(), keys.max(), 400)
            inproc.insert_batch(inserts)
            clustered.insert_batch(inserts)
            assert len(clustered) == len(inproc) == len(keys) + 400
            queries = np.concatenate(
                [inserts, keys[rng.integers(0, len(keys), 300)]]
            )
            assert_batches_equal(
                clustered.get_batch(queries),
                inproc.get_batch(queries),
                dataset,
            )
            assert clustered.version == inproc.version
            assert clustered.shard_versions() == inproc.shard_versions()


class TestWriteSemantics:
    def test_mid_batch_splits_match(self):
        """A batch big enough to overflow buffers repeatedly mid-apply
        must leave both engines in the same (re-segmented) state."""
        keys = np.sort(np.random.default_rng(3).uniform(0, 1e4, 3_000))
        inproc, clustered = twin_pair(keys, n_shards=3, error=24,
                                      buffer_capacity=4)
        with clustered:
            stream = np.random.default_rng(4).uniform(0, 1e4, 1_200)
            inproc.insert_batch(stream)
            clustered.insert_batch(stream)
            assert clustered.version == inproc.version
            s_in = inproc.stats()
            s_cl = clustered.stats()
            assert s_cl["n_pages"] == s_in["n_pages"]
            assert s_cl["buffered_elements"] == s_in["buffered_elements"]
            probe = np.concatenate([stream, keys[::5]])
            assert_batches_equal(
                clustered.get_batch(probe), inproc.get_batch(probe)
            )
            clustered.validate()

    def test_read_your_writes_immediately_after_insert_batch(self):
        keys = np.sort(np.random.default_rng(5).uniform(0, 1e6, 4_000))
        with cluster(keys, n_shards=4, error=64, buffer_capacity=16) as eng:
            before = eng.version
            fresh = np.random.default_rng(6).uniform(0, 1e6, 64)
            eng.insert_batch(fresh)
            assert eng.version > before  # the fence moved the barrier stamp
            got = eng.get_batch(fresh)
            assert got.dtype != object  # every single write is visible
            assert got.tolist() == list(
                range(len(keys), len(keys) + len(fresh))
            )

    def test_empty_batch_strict_noop(self):
        keys = np.arange(500, dtype=np.float64)
        with cluster(keys, n_shards=2, error=32) as eng:
            versions = eng.shard_versions()
            rowid = eng._next_rowid
            eng.insert_batch(np.empty(0))
            assert eng.shard_versions() == versions
            assert eng._next_rowid == rowid

    def test_scalar_mirrors(self):
        keys = np.arange(0, 1000, dtype=np.float64)
        inproc, clustered = twin_pair(keys, n_shards=2, error=32,
                                      buffer_capacity=8)
        with clustered:
            inproc.insert(1500.5)
            clustered.insert(1500.5)
            assert clustered.get(1500.5) == inproc.get(1500.5) == 1000
            assert clustered.get(-5.0, "miss") == "miss"
            assert (500.0 in clustered) == (500.0 in inproc) is True
            assert (1e9 in clustered) is False

    def test_duplicate_heavy(self):
        rng = np.random.default_rng(7)
        keys = np.sort(rng.integers(0, 80, 4_000).astype(np.float64))
        inproc, clustered = twin_pair(keys, n_shards=4, error=48,
                                      buffer_capacity=16)
        with clustered:
            extra = rng.integers(0, 80, 150).astype(np.float64)
            inproc.insert_batch(extra)
            clustered.insert_batch(extra)
            queries = np.arange(-5.0, 90.0)
            assert_batches_equal(
                clustered.get_batch(queries, default=None),
                inproc.get_batch(queries, default=None),
            )

    def test_object_payloads_survive_the_hop_untouched(self):
        """Buffered object payloads on a numeric shard — including the
        numeric-parsable string '123' — must come back as exactly what
        the in-process engine stores, never silently coerced to a number
        on either side of the pipe."""
        keys = np.arange(100, dtype=np.float64)
        inproc, clustered = twin_pair(keys, n_shards=2, error=32,
                                      buffer_capacity=8)
        payload = np.empty(3, dtype=object)
        payload[:] = ["123", "4.5", ("a", "b")]
        with clustered:
            inproc.insert_batch(np.asarray([1.5, 2.5, 3.5]), payload)
            clustered.insert_batch(np.asarray([1.5, 2.5, 3.5]), payload)
            probe = np.asarray([1.5, 2.5, 3.5, 10.0, 999.0])
            got = clustered.get_batch(probe, default=None)
            want = inproc.get_batch(probe, default=None)
            for g, w in zip(got, want):
                assert type(g) is type(w), (g, w)
                assert (g is w) or g == w
            assert got[0] == "123" and type(got[0]) is str
            assert got[2] == ("a", "b")

    def test_explicit_values_and_error_parity(self):
        keys = np.asarray([1.0, 2.0, 3.0])
        values = np.asarray([10, 20, 30])
        inproc = ShardedEngine(keys, values=values, n_shards=2)
        with ClusterEngine.from_engine(inproc) as clustered:
            assert clustered.get(2.0) == 20
            with pytest.raises(InvalidParameterError):
                clustered.insert_batch(np.asarray([4.0]))
            with pytest.raises(InvalidParameterError):
                clustered.insert(4.0)
            clustered.insert(4.0, 40)
            assert clustered.get(4.0) == 40


class TestRangeEquivalence:
    @pytest.mark.parametrize("dataset", ["uniform", "iot"])
    def test_range_batch_matches(self, dataset):
        keys = get(dataset, n=5_000, seed=0)
        inproc, clustered = twin_pair(keys, n_shards=4, error=64,
                                      buffer_capacity=16)
        with clustered:
            inserts = np.random.default_rng(8).uniform(
                keys.min(), keys.max(), 200
            )
            inproc.insert_batch(inserts)
            clustered.insert_batch(inserts)
            rng = np.random.default_rng(9)
            los = rng.uniform(keys.min(), keys.max(), 12)
            bounds = np.stack(
                [los, los + (keys.max() - keys.min()) * 0.2], axis=1
            )
            got = clustered.range_batch(bounds)
            want = inproc.range_batch(bounds)
            assert len(got) == len(want) == len(bounds)
            for (gk, gv), (wk, wv) in zip(got, want):
                assert gk.tolist() == wk.tolist()
                assert gv.tolist() == wv.tolist()

    def test_wide_range_grows_lane_out_of_pickle_fallback(self):
        """A range reply that outgrows the response lane pickles once,
        then the lane is grown so the repeat takes the zero-copy path."""
        keys = np.arange(40_000, dtype=np.float64)
        with cluster(keys, n_shards=2, error=64, lane_capacity=4096) as eng:
            bounds = np.asarray([[0.0, 30_000.0]])
            first = eng.range_batch(bounds)
            fallbacks = eng.stats()["ipc"]["pickle_fallbacks"]
            assert fallbacks >= 1
            second = eng.range_batch(bounds)
            assert eng.stats()["ipc"]["pickle_fallbacks"] == fallbacks
            assert first[0][0].tolist() == second[0][0].tolist()
            assert first[0][1].tolist() == second[0][1].tolist()
            assert first[0][0].size == 30_001

    def test_range_arrays_and_items_with_open_bounds(self):
        keys = np.arange(1000, dtype=np.float64)
        inproc, clustered = twin_pair(keys, n_shards=4, error=32)
        with clustered:
            for lo, hi, ilo, ihi in [
                (100.0, 900.0, True, True),
                (100.0, 900.0, False, False),
                (None, 50.0, True, True),
                (950.0, None, True, True),
                (None, None, True, True),
            ]:
                gk, gv = clustered.range_arrays(lo, hi, ilo, ihi)
                wk, wv = inproc.range_arrays(lo, hi, ilo, ihi)
                assert gk.tolist() == wk.tolist()
                assert gv.tolist() == wv.tolist()
            assert list(clustered.range_items(10.0, 13.0)) == list(
                inproc.range_items(10.0, 13.0)
            )


class TestFailureAndLifecycle:
    def test_crashed_worker_raises_typed_error(self):
        keys = np.arange(2_000, dtype=np.float64)
        eng = ClusterEngine(keys, n_shards=2, error=32, op_timeout=20.0)
        try:
            pid = eng.stats()["workers"][0]["pid"]
            os.kill(pid, signal.SIGKILL)
            deadline = time.time() + 10.0
            with pytest.raises(ClusterError):
                while time.time() < deadline:
                    eng.get_batch(keys[:16])
        finally:
            eng.close()

    def test_worker_crash_error_names_shard(self):
        keys = np.arange(2_000, dtype=np.float64)
        eng = ClusterEngine(keys, n_shards=2, error=32, op_timeout=20.0)
        try:
            pid = eng.stats()["workers"][1]["pid"]
            os.kill(pid, signal.SIGKILL)
            time.sleep(0.3)
            with pytest.raises(WorkerCrashedError) as info:
                for _ in range(5):
                    eng.get_batch(keys)  # spans both shards
                    time.sleep(0.1)
            assert info.value.shard == 1
        finally:
            eng.close()

    def test_surviving_shards_stay_in_step_after_crash(self):
        """A failed round must drain every in-flight reply: after shard 0
        dies mid-round, shard 1's pipe may not be left one reply behind —
        subsequent shard-1 reads must still return correct values."""
        keys = np.arange(2_000, dtype=np.float64)
        eng = ClusterEngine(keys, n_shards=2, error=32, op_timeout=20.0)
        try:
            cut = float(eng.cuts[0])
            pid = eng.stats()["workers"][0]["pid"]
            os.kill(pid, signal.SIGKILL)
            time.sleep(0.3)
            with pytest.raises(ClusterError):
                for _ in range(5):
                    eng.get_batch(keys)  # spans both; shard 0 errors first
                    time.sleep(0.1)
            upper = keys[keys >= cut][:100]
            out = eng.get_batch(upper)
            assert out.tolist() == [int(k) for k in upper]
        finally:
            eng.close()

    def test_closed_engine_raises(self):
        keys = np.arange(500, dtype=np.float64)
        eng = ClusterEngine(keys, n_shards=2, error=32)
        eng.close()
        eng.close()  # idempotent
        assert eng.closed
        with pytest.raises(ClusterError, match="closed"):
            eng.get_batch(keys[:4])
        with pytest.raises(ClusterError, match="closed"):
            eng.insert_batch(np.asarray([1.5]))

    def test_close_joins_workers(self):
        keys = np.arange(500, dtype=np.float64)
        eng = ClusterEngine(keys, n_shards=2, error=32)
        processes = [w.process for w in eng._workers]
        eng.close()
        for p in processes:
            assert not p.is_alive()
            assert p.exitcode == 0  # clean shutdown, not terminate()

    def test_from_engine_leaves_source_usable(self):
        keys = np.arange(1_000, dtype=np.float64)
        inproc = ShardedEngine(keys, n_shards=2, error=32, buffer_capacity=8)
        with ClusterEngine.from_engine(inproc) as clustered:
            clustered.insert(5000.5)
            assert 5000.5 in clustered
            assert 5000.5 not in inproc  # twins diverge after the snapshot
        assert inproc.get(500.0) == 500  # and the source outlives the cluster

    def test_worker_error_does_not_kill_worker(self):
        """A per-op failure is pickled back; the worker stays serviceable
        (the serve batcher's per-key fallback relies on this)."""
        keys = np.arange(1_000, dtype=np.float64)
        with cluster(keys, n_shards=2, error=32, buffer_capacity=8) as eng:
            with pytest.raises(InvalidParameterError):
                eng.range_batch(np.zeros((2, 3)))  # bad bounds shape
            assert eng.get(10.0) == 10  # still alive

    def test_stats_shape_and_warm(self):
        keys = np.sort(np.random.default_rng(12).uniform(0, 1e5, 5_000))
        with cluster(keys, n_shards=3, error=64, buffer_capacity=8) as eng:
            eng.warm()
            stats = eng.stats()
            assert stats["n"] == 5_000
            assert stats["n_shards"] == 3 == len(stats["shards"])
            assert stats["n_pages"] == sum(
                s["n_pages"] for s in stats["shards"]
            )
            assert all(w["alive"] for w in stats["workers"])
            assert stats["ipc"]["batches"] >= 0
            twin = ShardedEngine(keys, n_shards=3, error=64, buffer_capacity=8)
            assert stats["model_bytes"] == twin.model_bytes()

    def test_empty_engine_grows_by_inserts(self):
        with cluster(n_shards=4, error=64, buffer_capacity=8) as eng:
            assert len(eng) == 0
            out = eng.get_batch(np.asarray([1.0]), default=-7)
            assert out.tolist() == [-7]
            eng.insert_batch(np.asarray([5.0, 1.0, 9.0]))
            assert len(eng) == 3
            assert eng.get_batch(np.asarray([1.0, 5.0, 9.0])).tolist() == [1, 0, 2]
