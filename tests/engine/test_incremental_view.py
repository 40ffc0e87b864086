"""Engine-view update accounting: one dirty shard, or several.

Regression contract for the engine's read-path cache. The engine keeps one
view over every shard's pages; a read after writes that left every page
directory standing or changed by a rebuild, split or emptied page updates
it (``view_patches``), however many shards were written; only the first
export re-exports every page (``view_full_rebuilds``). Either way its
answers are identical to a freshly built engine's. Which pages an update
re-exports is pinned by ``test_view_refresh.py``.
"""

import numpy as np
import pytest

from repro.engine import ShardedEngine


def drain_grace(engine, queries):
    """A few reads after a write: the first updates the view, the rest
    hit it."""
    for _ in range(5):
        engine.get_batch(queries)


@pytest.fixture
def keys():
    return np.sort(np.random.default_rng(0).uniform(0, 1e6, 30_000))


@pytest.fixture
def engine(keys):
    engine = ShardedEngine(keys, n_shards=4, error=64, buffer_capacity=32)
    engine.warm()
    return engine


def low_shard_inserts(engine, n, seed=1):
    """Keys guaranteed to land on shard 0 only."""
    hi = float(engine.cuts[0]) - 1.0
    return np.random.default_rng(seed).uniform(0.0, hi, n)


def one_shard_inserts(engine, sid, n, seed=1):
    """Keys guaranteed to land on shard ``sid`` only."""
    lo = float(engine.cuts[sid - 1]) if sid > 0 else 0.0
    hi = float(engine.cuts[sid]) - 1.0 if sid < engine.cuts.size else 1e6
    return np.random.default_rng(seed).uniform(lo, hi, n)


class TestPatchPath:
    def test_warm_is_one_full_rebuild(self, engine):
        stats = engine.stats()
        assert stats["view_full_rebuilds"] == 1
        assert stats["view_patches"] == 0

    def test_single_dirty_shard_patches(self, engine, keys):
        engine.insert_batch(low_shard_inserts(engine, 20))
        drain_grace(engine, keys[::101])
        stats = engine.stats()
        assert stats["view_patches"] == 1
        assert stats["view_full_rebuilds"] == 1  # untouched

    def test_multi_dirty_shards_patch_once(self, engine, keys):
        # One key per end of the key space: two shards mutate.
        engine.insert_batch(np.asarray([keys[0] + 0.5, keys[-1] - 0.5]))
        drain_grace(engine, keys[::101])
        stats = engine.stats()
        assert stats["view_patches"] == 1
        assert stats["view_full_rebuilds"] == 1  # untouched

    def test_patched_view_answers_match_fresh_engine(self, engine, keys):
        inserts = low_shard_inserts(engine, 50)
        engine.insert_batch(inserts)
        drain_grace(engine, keys[::97])
        assert engine.stats()["view_patches"] == 1

        twin = ShardedEngine(keys, n_shards=4, error=64, buffer_capacity=32)
        twin.insert_batch(inserts)
        rng = np.random.default_rng(2)
        queries = np.concatenate([
            inserts,
            keys[rng.integers(0, len(keys), 1_500)],
            rng.uniform(-50, 1e6 + 50, 500),
        ])
        got = engine.get_batch(queries, default=-1)
        want = twin.get_batch(queries, default=-1)
        assert got.dtype == want.dtype
        for g, w in zip(got, want):
            assert g == w

    def test_patched_view_range_and_scalar_match(self, engine, keys):
        inserts = low_shard_inserts(engine, 30, seed=3)
        engine.insert_batch(inserts)
        drain_grace(engine, keys[::97])
        sample = inserts[0]
        assert engine.get(sample) == engine.get_batch([sample])[0]
        lo, hi = 0.0, float(engine.cuts[0]) + 10.0
        view_keys, view_values = engine.range_arrays(lo, hi)
        expected = []
        for shard in engine.shards:
            expected.extend(shard.range_items(lo, hi))
        assert [k for k, _ in expected] == view_keys.tolist()
        assert [v for _, v in expected] == view_values.tolist()

    def test_repeated_single_shard_writes_keep_patching(self, engine, keys):
        for round_no in range(3):
            engine.insert_batch(low_shard_inserts(engine, 10, seed=round_no))
            drain_grace(engine, keys[::101])
        stats = engine.stats()
        assert stats["view_patches"] == 3
        assert stats["view_full_rebuilds"] == 1

    def test_page_split_inside_dirty_shard_reexports_once(self, keys):
        """A dirty shard changing its page count is one update, not a
        second full export."""
        engine = ShardedEngine(keys, n_shards=4, error=24, buffer_capacity=4)
        engine.warm()
        pages_before = engine.stats()["shards"][0]["n_pages"]
        # Enough inserts into shard 0 to overflow buffers and re-segment.
        engine.insert_batch(low_shard_inserts(engine, 400, seed=5))
        drain_grace(engine, keys[::101])
        stats = engine.stats()
        assert stats["view_full_rebuilds"] == 1
        assert stats["view_patches"] == 1
        assert stats["shards"][0]["n_pages"] != pages_before
        twin = ShardedEngine(keys, n_shards=4, error=24, buffer_capacity=4)
        twin.insert_batch(low_shard_inserts(engine, 400, seed=5))
        probe = keys[::53]
        assert engine.get_batch(probe).tolist() == twin.get_batch(probe).tolist()

    @pytest.mark.parametrize("sid", [1, 2, 3])
    def test_patching_inner_shards_keeps_cut_routing(self, engine, keys, sid):
        """A patched view must keep shard i>0's first routing key lowered
        to its cut, so queries in [cut, first page start) still route into
        it afterwards."""
        inserts = one_shard_inserts(engine, sid, 40, seed=11)
        engine.insert_batch(inserts)
        drain_grace(engine, keys[::101])
        assert engine.stats()["view_patches"] == 1

        twin = ShardedEngine(keys, n_shards=4, error=64, buffer_capacity=32)
        twin.insert_batch(inserts)
        cuts = engine.cuts
        boundary = np.concatenate(
            [[c - 0.5, c, c + 0.5] for c in cuts.tolist()]
        )
        queries = np.concatenate([inserts, boundary,
                                  keys[::211], [keys[0], keys[-1]]])
        got = engine.get_batch(queries, default=-1)
        want = twin.get_batch(queries, default=-1)
        assert got.dtype == want.dtype
        for q, g, w in zip(queries, got, want):
            assert g == w, (sid, q)
        # And an under-page-start buffered insert routes into the patched
        # shard exactly as the scalar path does.
        probe = float(cuts[sid - 1]) + 1e-4
        engine.insert(probe)
        twin.insert(probe)
        assert engine.get_batch([probe])[0] == twin.get_batch([probe])[0]

    def test_residency_stays_collapsed_after_patch(self, engine, keys):
        engine.insert_batch(low_shard_inserts(engine, 20, seed=7))
        drain_grace(engine, keys[::101])
        assert engine.stats()["view_patches"] == 1
        ratio = engine.residency_report()["residency_ratio"]
        assert ratio < 2.5  # pages + one view, nothing per shard

