"""Snapshot contract: to_state/from_state round trips are bit-identical."""

import numpy as np
import pytest

from repro.baselines import FixedPageIndex
from repro.cluster import index_from_state
from repro.core.serialize import register_index_class
from repro.core.errors import InvalidParameterError
from repro.core.fiting_tree import FITingTree
from repro.engine import ShardedEngine


def assert_same_structure(a, b):
    """Contents, page geometry, buffers, counters — all identical."""
    assert len(a) == len(b)
    assert list(a.items()) == list(b.items())
    pages_a = list(a._tree.items())
    pages_b = list(b._tree.items())
    assert len(pages_a) == len(pages_b)
    for (key_a, page_a), (key_b, page_b) in zip(pages_a, pages_b):
        assert key_a == key_b  # (start, seq) tree keys survive
        assert page_a.slope == page_b.slope
        assert page_a.deletions == page_b.deletions
        # Live rows: a snapshot ships a tombstoned page compacted.
        keys_a, values_a = page_a.live_arrays()
        keys_b, values_b = page_b.live_arrays()
        assert keys_a.tolist() == keys_b.tolist()
        assert values_a.tolist() == values_b.tolist()
        assert page_a.buf_keys == page_b.buf_keys
        assert page_a.buf_values == page_b.buf_values
    assert a.version == b.version
    assert a._next_rowid == b._next_rowid
    assert a._auto_rowid == b._auto_rowid
    assert a._values_dtype == b._values_dtype


class TestIndexRoundTrip:
    def test_fiting_tree_with_buffered_inserts_and_deletes(self, uniform_keys, rng):
        index = FITingTree(uniform_keys, error=48, buffer_capacity=12)
        for k in rng.uniform(0, 1e6, 400):
            index.insert(k)
        for k in uniform_keys[::400]:
            index.delete(k)
        rebuilt = index_from_state(index.to_state())
        rebuilt.validate()
        assert isinstance(rebuilt, FITingTree)
        assert_same_structure(index, rebuilt)

    def test_fixed_page_index_dispatch(self, uniform_keys):
        index = FixedPageIndex(uniform_keys, page_size=96, buffer_capacity=16)
        index.insert(17.5, 9)
        rebuilt = index_from_state(index.to_state())
        rebuilt.validate()
        assert isinstance(rebuilt, FixedPageIndex)
        assert_same_structure(index, rebuilt)

    def test_rebuilt_index_is_independent(self, uniform_keys):
        index = FITingTree(uniform_keys, error=32, buffer_capacity=8)
        rebuilt = FITingTree.from_state(index.to_state())
        rebuilt.insert(2e6, 777)
        assert 2e6 in rebuilt
        assert 2e6 not in index
        assert len(index) == len(uniform_keys)

    def test_no_resegmentation_on_rebuild(self, uniform_keys, monkeypatch):
        """from_state must bulk-load the stored pages, never re-segment."""
        index = FITingTree(uniform_keys, error=64, buffer_capacity=8)
        state = index.to_state()

        def boom(self, keys, values):  # pragma: no cover - would fail test
            if len(keys):
                raise AssertionError("re-segmentation ran during from_state")
            return []

        monkeypatch.setattr(FITingTree, "_make_pages", boom)
        rebuilt = FITingTree.from_state(state)
        assert rebuilt.n_pages == index.n_pages

    def test_version_and_rowid_survive(self, uniform_keys):
        index = FITingTree(uniform_keys, error=64, buffer_capacity=8)
        index.insert(5.0)
        index.insert(6.0)
        rebuilt = FITingTree.from_state(index.to_state())
        assert rebuilt.version == index.version
        rebuilt.insert(7.0)
        assert rebuilt.get(7.0) == len(uniform_keys) + 2

    def test_object_values_rejected(self):
        index = FITingTree(
            np.arange(2.0), np.array(["a", "b"], dtype=object), error=4
        )
        with pytest.raises(InvalidParameterError):
            index.to_state()

    def test_unknown_class_rejected(self, uniform_keys):
        state = FITingTree(uniform_keys[:100], error=16).to_state()
        state["index_cls"] = "NotAnIndex"
        with pytest.raises(InvalidParameterError, match="NotAnIndex"):
            index_from_state(state)

    def test_builtin_classes_load_after_downstream_registration(
        self, uniform_keys, monkeypatch
    ):
        """Registering a downstream class before the first load must not
        suppress the lazy seeding of the built-in classes."""
        from repro.core import serialize

        class EagerIndex(FITingTree):
            pass

        with monkeypatch.context() as m:
            m.setattr(serialize, "_REGISTRY", {})
            register_index_class(EagerIndex)  # registry now non-empty
            state = FITingTree(uniform_keys[:200], error=16).to_state()
            rebuilt = index_from_state(state)
            assert type(rebuilt) is FITingTree

    def test_register_custom_class(self, uniform_keys, tmp_path):
        class TaggedTree(FITingTree):
            pass

        register_index_class(TaggedTree)
        index = TaggedTree(uniform_keys[:200], error=16)
        state = index.to_state()
        assert state["index_cls"] == "TaggedTree"
        assert isinstance(index_from_state(state), TaggedTree)
        # One registry serves both transports: the same registration must
        # also cover the on-disk round trip.
        from repro.core.serialize import load_index, save_index

        path = str(tmp_path / "tagged.npz")
        save_index(index, path)
        loaded = load_index(path)
        assert isinstance(loaded, TaggedTree)
        assert list(loaded.items()) == list(index.items())


class SpawnableTree(FITingTree):
    """Module-level so spawn children can unpickle it (test below)."""


class TestSpawnRegistry:
    def test_custom_class_reaches_spawn_workers(self, uniform_keys):
        """A spawned child re-imports with a fresh registry; the parent
        must ship the resolved index class with each shard snapshot."""
        register_index_class(SpawnableTree)
        engine = ShardedEngine(
            uniform_keys[:2_000],
            n_shards=2,
            index_factory=lambda k, v: SpawnableTree(k, v, error=32),
        )
        from repro.cluster import ClusterEngine

        with ClusterEngine.from_engine(engine, mp_context="spawn") as eng:
            out = eng.get_batch(uniform_keys[:20])
            assert out.tolist() == list(range(20))


class TestEngineStates:
    def test_to_states_shape(self, uniform_keys):
        engine = ShardedEngine(uniform_keys, n_shards=3, error=64)
        states = engine.to_states()
        assert states["cuts"].tolist() == engine.cuts.tolist()
        assert states["next_rowid"] == len(uniform_keys)
        assert states["auto_rowid"] is True
        assert len(states["shards"]) == engine.n_shards
        assert sum(s["n"] for s in states["shards"]) == len(uniform_keys)

    def test_states_are_value_copies(self, uniform_keys):
        engine = ShardedEngine(uniform_keys, n_shards=2, error=64,
                               buffer_capacity=8)
        states = engine.to_states()
        engine.insert(3.25)
        rebuilt = [index_from_state(s) for s in states["shards"]]
        assert sum(len(s) for s in rebuilt) == len(uniform_keys)  # pre-insert
