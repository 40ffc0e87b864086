"""Write-proportional FlatView updates: identity, proportionality, the
buffer probe, snapshots.

``flat_view`` derives a stale index's next snapshot from the cached one by
re-exporting only the pages whose stamp moved since. Four contracts are
pinned here, none of them by timing:

* **bit-identity** — after any op sequence (page rebuilds, splits, emptied
  pages, first-page seeding, tombstoned data deletes, int64 and object
  payloads, a refused payload the values dtype cannot hold) every field of
  the updated view equals ``FlatView(index.flat_arrays())`` in dtype, shape
  and content, on a bare ``FITingTree`` and on a multi-shard
  ``ShardedEngine`` (its one view, and each shard's own view, read in any
  interleaving), and the batch verbs agree with the scalar ones;
* **proportionality** — counted in pages handed to the bulk buffer
  exporter (``export_buffers``) by the view paths, and in array identity:
  a one-key write re-exports one page, and a rebuild only the pages that
  replace the rebuilt one;
* **the buffer probe** — one clamped search over the concatenated
  buffers finds what a per-page ``bisect_left`` finds, and a NaN key
  sorts last in its buffer, so no buffered key is lost around it;
* **snapshot safety** — a view held across writes keeps answering the state
  it was taken at, and its arrays refuse in-place writes.
"""

from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import FITingTree
from repro.core import paged_index
from repro.core.errors import InvalidParameterError
from repro.core.page import export_buffers
from repro.engine import FlatView, ShardedEngine, batch, flat_view
from repro.obs import Telemetry

FIELDS = (
    "starts", "route_starts", "deletions", "offsets",
    "keys", "values", "dead", "buf_offsets", "buf_keys", "buf_values",
)
SHARED_BY_A_BUFFER_WRITE = (
    "starts", "route_starts", "deletions", "offsets", "keys", "values", "dead",
)


def assert_same_view(got, want):
    if want.stamps is not None:
        assert got.stamps == want.stamps
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, (name, a.dtype, b.dtype)
        assert a.shape == b.shape, (name, a.shape, b.shape)
        if a.dtype == object:
            for x, y in zip(a, b):
                assert type(x) is type(y) and x == y, (name, x, y)
        else:
            assert np.array_equal(a, b), name


def full_export(index):
    return FlatView(index.flat_arrays())


def reference_combined(engine):
    """From-scratch engine view: its rules restated over fresh per-shard
    exports (the reference the engine's cached one must equal)."""
    views = [full_export(s) for s in engine.shards]
    route = [v.starts.copy() for v in views]
    for i, rs in enumerate(route):
        if i > 0 and rs.size:
            rs[0] = engine.cuts[i - 1]

    def stacked(name):
        ends = np.cumsum([0] + [int(getattr(v, name)[-1]) for v in views])
        parts = [getattr(v, name)[:-1] + e for v, e in zip(views, ends)]
        return np.concatenate(parts + [ends[-1:]])

    arrays = {
        name: np.concatenate([getattr(v, name) for v in views])
        for name in FIELDS
        if name not in ("route_starts", "offsets", "buf_offsets")
    }
    arrays.update(
        version=-1,
        route_starts=np.concatenate(route),
        offsets=stacked("offsets"),
        buf_offsets=stacked("buf_offsets"),
    )
    return FlatView(arrays)


# ----------------------------------------------------------------------
# Bit-identity under generated op sequences
# ----------------------------------------------------------------------

KEYS = st.integers(min_value=0, max_value=120).map(float)
BATCHES = st.lists(KEYS, min_size=1, max_size=12)
PROBES = np.arange(-1.0, 122.0, 0.5)
SPANS = ((None, None), (-1.0, 30.0), (30.0, 30.0), (40.5, 95.0), (90.0, 200.0))


class RefreshMachine(RuleBasedStateMachine):
    """A tiny ``buffer_capacity`` makes rebuilds, splits, emptied-page
    removal and seq renumbering routine; an empty build seeds the first
    page through an insert. Engines run 2-4 shards, and each shard's own
    view is read between the engine's reads, so a write must reach every
    view over its page."""

    @initialize(
        build=st.lists(KEYS, max_size=60).map(sorted),
        kind=st.sampled_from(["tree", "engine"]),
        n_shards=st.integers(min_value=2, max_value=4),
        payloads=st.sampled_from(["int64", "object"]),
        error=st.integers(min_value=6, max_value=12),
        capacity=st.integers(min_value=2, max_value=5),
    )
    def build(self, build, kind, n_shards, payloads, error, capacity):
        keys = np.asarray(build, dtype=np.float64)
        values = None
        if payloads == "object":  # an empty build keeps its dtype too
            values = np.empty(keys.size, dtype=object)
            values[:] = [("row", i) for i in range(keys.size)]
        self.typed = values is None
        self.serial = keys.size
        if kind == "tree":
            self.target = FITingTree(
                keys, values, error=error, buffer_capacity=capacity
            )
            self.indexes = [self.target]
        else:
            self.target = ShardedEngine(
                keys, values, n_shards=n_shards, error=error,
                buffer_capacity=capacity,
            )
            self.indexes = self.target.shards
        self.live = list(build)
        self.built = list(build)

    def payload(self):
        self.serial += 1
        return self.serial if self.typed else ("row", self.serial)

    @rule(key=KEYS)
    def insert(self, key):
        self.target.insert(key, self.payload())
        self.live.append(key)

    @rule(key=KEYS)
    def insert_unholdable_value(self, key):
        """A float into an int64 index is refused before anything applies;
        an object index holds it."""
        if not self.typed:
            self.target.insert(key, 7.5)
            self.live.append(key)
            return
        version = self.target.version
        with pytest.raises(InvalidParameterError):
            self.target.insert(key, 7.5)
        assert self.target.version == version

    @rule(batch=BATCHES)
    def insert_batch(self, batch):
        values = np.empty(len(batch), dtype=np.int64 if self.typed else object)
        values[:] = [self.payload() for _ in batch]
        self.target.insert_batch(np.asarray(batch), values)
        self.live.extend(batch)

    @rule(data=st.data())
    def delete(self, data):
        if self.live:
            i = data.draw(st.integers(0, len(self.live) - 1))
            self.target.delete(self.live.pop(i))

    @rule(data=st.data())
    def delete_build_key(self, data):
        """A build key no insert duplicated: the delete must tombstone a
        data row."""
        doomed = [k for k in self.built if k in self.live]
        doomed = [k for k in doomed if self.live.count(k) == self.built.count(k)]
        if doomed:
            key = data.draw(st.sampled_from(doomed))
            self.built.remove(key)
            self.live.remove(key)
            self.target.delete(key)

    @rule(data=st.data())
    def delete_batch(self, data):
        if self.live:
            picks = data.draw(
                st.lists(st.integers(0, len(self.live) - 1), min_size=1,
                         max_size=8, unique=True)
            )
            doomed = [self.live[i] for i in picks]
            for i in sorted(picks, reverse=True):
                self.live.pop(i)
            self.target.delete_batch(np.asarray(doomed))

    @rule(batch=BATCHES)
    def read(self, batch):
        self.target.get_batch(np.asarray(batch))

    @rule(batch=BATCHES, data=st.data())
    def read_shard(self, batch, data):
        """A direct shard read updates that shard's own view only."""
        shard = data.draw(st.sampled_from(self.indexes))
        shard.get_batch(np.asarray(batch))
        flat_view(shard)

    @invariant()
    def views_equal_full_exports(self):
        for index in self.indexes:
            assert_same_view(flat_view(index), full_export(index))
        if isinstance(self.target, ShardedEngine):
            view = flat_view(self.target)
            assert_same_view(view, full_export(self.target))
            assert_same_view(view, reference_combined(self.target))

    @invariant()
    def batch_verbs_equal_scalar_verbs(self):
        miss = object()
        got = self.target.get_batch(PROBES, miss)
        for q, g in zip(PROBES.tolist(), got):
            want = self.target.get(q, miss)
            assert g is miss if want is miss else g == want, q
        for lo, hi in SPANS:
            want = [
                item for index in self.indexes
                for item in index.range_items(lo, hi)
            ]
            if isinstance(self.target, ShardedEngine):
                lo_, hi_ = -np.inf if lo is None else lo, np.inf if hi is None else hi
                keys, values = self.target.range_batch([[lo_, hi_]])[0]
            else:
                keys, values = flat_view(self.target).range_arrays(lo, hi)
            assert keys.tolist() == [k for k, _ in want]
            assert values.tolist() == [v for _, v in want]


RefreshMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestRefreshMachine = RefreshMachine.TestCase


@pytest.mark.parametrize("odd", ["tag", 2**70, 7.5])
def test_unholdable_buffered_value_round_trip(odd):
    """A payload the values dtype cannot hold never reaches a buffer: the
    insert is refused, and the cached view stays current and typed."""
    tree = FITingTree(np.arange(200.0) ** 2, error=8, buffer_capacity=4)
    view = flat_view(tree)
    with pytest.raises(InvalidParameterError):
        tree.insert(10.5, odd)  # np.arange(200)**2: many small pages
    assert flat_view(tree) is view
    tree.insert(30_000.5)
    assert flat_view(tree).buf_values.dtype == np.int64
    assert 10.5 not in tree
    assert_same_view(flat_view(tree), full_export(tree))


def test_unholdable_value_in_one_shard_keeps_other_windows_typed():
    keys = np.sort(np.random.default_rng(4).uniform(0, 1e6, 4_000))
    engine = ShardedEngine(keys, n_shards=2, error=16, buffer_capacity=8)
    engine.warm()
    version = engine.version
    with pytest.raises(InvalidParameterError):
        engine.insert(1.5, "tag")
    with pytest.raises(InvalidParameterError):
        engine.insert_batch([1.5, keys[-1] + 1.0], [7, "tag"])
    assert engine.version == version and len(engine) == keys.size
    engine.insert(1.5, 7)
    got = engine.get_batch([1.5, keys[-1]])
    assert got.dtype == np.int64 and got.tolist() == [7, keys.size - 1]
    assert_same_view(flat_view(engine), reference_combined(engine))
    for shard in engine.shards:
        assert_same_view(flat_view(shard), full_export(shard))


def test_shards_differing_only_in_error_share_the_combined_view():
    keys = np.sort(np.random.default_rng(5).uniform(0, 1e6, 4_000))
    errors = iter((8, 64))
    engine = ShardedEngine(
        keys,
        n_shards=2,
        index_factory=lambda k, v: FITingTree(
            k, v, error=next(errors), buffer_capacity=4
        ),
    )
    engine.insert_batch(keys[::40] + 0.25)
    engine.delete_batch(keys[::55])
    q = np.concatenate((keys[::7], keys[::40] + 0.25, [-1.0, 2e6]))
    assert flat_view(engine).values.dtype == np.int64  # one typed view
    combined = engine.get_batch(q, default=-1).tolist()
    assert combined == [engine.get(k, -1) for k in q]
    assert_same_view(flat_view(engine), reference_combined(engine))


def payloads_of(kind, n, base=0):
    if kind == "object":
        out = np.empty(n, dtype=object)
        out[:] = [("row", base + i) for i in range(n)]
        return out
    return (np.arange(n) + base).astype(kind)


@pytest.mark.parametrize("kind", ["int64", "float64", "object"])
def test_many_page_write_batches_update_bit_identically(kind):
    """A 256-key insert batch spread over 100+ pages, then a delete batch
    (each shard's ``pop_batch``) over buffered and data rows: each view
    update gathers every touched page's buffer, and equals a full export."""
    rng = np.random.default_rng(11)
    keys = np.sort(rng.uniform(0, 1e6, 40_000))
    engine = ShardedEngine(
        keys, payloads_of(kind, keys.size), n_shards=4, error=16,
        buffer_capacity=8,
    )
    engine.warm()
    stats = engine._view_stats
    inserted = rng.uniform(0, 1e6, 256)
    engine.insert_batch(inserted, payloads_of(kind, 256, base=10**6))
    exported = stats["view_pages_exported"]
    view = flat_view(engine, stats)  # the engine's view, brought up to date
    assert stats["view_pages_exported"] - exported >= 100
    assert view.buf_values.dtype == np.dtype(kind)
    assert_same_view(view, full_export(engine))
    assert_same_view(view, reference_combined(engine))

    engine.delete_batch(np.concatenate((inserted[::2], keys[::250])))
    view = flat_view(engine)
    assert view.dead.any()
    assert_same_view(view, full_export(engine))
    assert_same_view(view, reference_combined(engine))
    probes = np.concatenate((inserted, keys[::97]))
    miss = object()
    got = engine.get_batch(probes, miss)
    for q, g in zip(probes.tolist(), got):
        want = engine.get(q, miss)
        assert g is miss if want is miss else g == want, q


# ----------------------------------------------------------------------
# The buffer probe: one clamped search over the concatenated buffers
# ----------------------------------------------------------------------


@st.composite
def page_buffers(draw):
    """Sorted buffers cut into pages anywhere, so duplicate runs straddle
    page starts and some pages hold nothing; ±inf sort to the ends."""
    keys = draw(st.lists(
        st.one_of(st.integers(0, 12).map(float),
                  st.sampled_from([-np.inf, np.inf])),
        min_size=1, max_size=40,
    ))
    keys.sort()
    cuts = sorted(draw(st.lists(st.integers(0, len(keys)), max_size=8)))
    bounds = [0, *cuts, len(keys)]
    return [keys[a:b] for a, b in zip(bounds, bounds[1:])]


QUERIES = st.one_of(
    st.integers(-1, 13).map(float),
    st.integers(-1, 13).map(lambda k: k + 0.5),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)


def buffer_only_view(buffers):
    n = len(buffers)
    flat = [k for buf in buffers for k in buf]
    return FlatView({
        "version": 0,
        "starts": np.arange(n, dtype=np.float64),
        "deletions": np.zeros(n),
        "offsets": np.zeros(n + 1, dtype=np.int64),
        "keys": np.empty(0),
        "values": np.empty(0, dtype=np.int64),
        "dead": np.empty(0, dtype=bool),
        "buf_offsets": np.cumsum([0] + [len(b) for b in buffers]),
        "buf_keys": np.asarray(flat, dtype=np.float64),
        "buf_values": np.arange(len(flat)),
    })


@settings(max_examples=300, deadline=None)
@given(buffers=page_buffers(), data=st.data())
def test_buffer_probe_matches_a_per_page_bisect(buffers, data):
    """Any page (the routed one or, walking back, the one before), any
    query: the first occurrence ``bisect_left`` finds in that page's own
    buffer, or a miss — always a miss for NaN and ±inf queries."""
    view = buffer_only_view(buffers)
    probes = data.draw(st.lists(
        st.tuples(QUERIES, st.integers(0, len(buffers) - 1)),
        min_size=1, max_size=30,
    ))
    q = np.asarray([x for x, _ in probes], dtype=np.float64)
    pi = np.asarray([j for _, j in probes])
    slot, hit = view._search_buffers(q, pi)
    for i, (x, j) in enumerate(probes):
        buf = buffers[j]
        at = bisect_left(buf, x)
        want = bool(np.isfinite(x)) and at < len(buf) and buf[at] == x
        assert hit[i] == want, (x, j)
        if want:
            assert slot[i] == view.buf_offsets[j] + at


# ----------------------------------------------------------------------
# Proportionality: counts and identity, never timing
# ----------------------------------------------------------------------


@pytest.fixture
def exports(monkeypatch):
    """The pages the full export and the view update hand to
    ``export_buffers``: one entry per page exported (a rebuild's own
    merge is not a view export, so it is not counted)."""
    calls = []

    def counting(pages, values_dtype):
        calls.extend(pages)
        return export_buffers(pages, values_dtype)

    for module in (paged_index, batch):
        monkeypatch.setattr(module, "export_buffers", counting)
    return calls


def replacement_pages(view, pages):
    """The pages a directory change brought in: those ``view`` lacks."""
    held = {id(page) for page in view.pages}
    return [page for page in pages if id(page) not in held]


@pytest.fixture
def tree():
    keys = np.sort(np.random.default_rng(8).uniform(0, 1e6, 40_000))
    tree = FITingTree(keys, error=16, buffer_capacity=8)
    assert tree.n_pages >= 100
    return tree


class TestProportionality:
    def test_first_build_exports_every_page(self, tree, exports):
        flat_view(tree)
        assert len(exports) == tree.n_pages

    def test_one_key_insert_reexports_one_page(self, tree, exports):
        old = flat_view(tree)
        del exports[:]
        tree.insert(500_000.25)
        new = flat_view(tree)
        assert len(exports) == 1
        for name in SHARED_BY_A_BUFFER_WRITE:
            assert getattr(new, name) is getattr(old, name), name
        assert new.buf_keys.tolist() == [500_000.25]
        assert new.get_batch([500_000.25, old.keys[0]]).dtype == np.int64
        assert_same_view(new, full_export(tree))

    def test_buffered_delete_shares_the_data_arrays(self, tree, exports):
        tree.insert(500_000.25)
        old = flat_view(tree)
        del exports[:]
        tree.delete(500_000.25)
        new = flat_view(tree)
        assert len(exports) == 1
        assert new.keys is old.keys and new.offsets is old.offsets
        assert new.buf_keys.size == 0 and old.buf_keys.size == 1

    def test_one_key_data_delete_reexports_one_page(self, tree, exports):
        old = flat_view(tree)
        doomed = float(old.keys[12_345])
        del exports[:]
        tree.delete(doomed)
        new = flat_view(tree)
        assert len(exports) == 1
        for name in ("starts", "route_starts", "offsets", "keys", "values"):
            assert getattr(new, name) is getattr(old, name), name
        assert new.dead is not old.dead  # a copy, marked in one page
        assert np.flatnonzero(new.dead).tolist() == [12_345]
        assert not old.dead.any()
        assert_same_view(new, full_export(tree))

    def test_buffer_overflow_rebuild_reexports_only_the_replacement_pages(
        self, tree, exports
    ):
        old = flat_view(tree)
        base = float(old.keys[20_000])
        rebuilds = tree.page_rebuilds
        for i in range(tree.buffer_capacity):
            tree.insert(base + 1e-3 * (i + 1))
        assert tree.page_rebuilds == rebuilds + 1
        del exports[:]
        new = flat_view(tree)
        assert new.pages is not old.pages
        assert exports == replacement_pages(old, tree.pages())
        assert 1 <= len(exports) < tree.n_pages // 10
        assert_same_view(new, full_export(tree))

    def test_rebuild_in_one_shard_reexports_only_its_replacement_pages(
        self, exports
    ):
        keys = np.sort(np.random.default_rng(9).uniform(0, 1e6, 40_000))
        engine = ShardedEngine(keys, n_shards=4, error=16, buffer_capacity=8)
        engine.warm()
        old = flat_view(engine)
        shard = engine.shards[2]
        base = float(next(iter(shard.keys()))) + 1e-3
        rebuilds = shard.page_rebuilds
        for i in range(shard.buffer_capacity):
            engine.insert(base + 1e-4 * i)
        assert shard.page_rebuilds == rebuilds + 1
        del exports[:]
        new = flat_view(engine)
        assert exports == replacement_pages(old, shard.pages())
        assert 1 <= len(exports) < shard.n_pages // 10
        assert engine.stats()["view_full_rebuilds"] == 1
        assert_same_view(new, reference_combined(engine))
        assert_same_view(new, full_export(engine))

    def test_writes_between_reads_accumulate(self, tree, exports):
        old = flat_view(tree)
        del exports[:]
        tree.insert_batch(np.asarray([10.5, 400_000.5, 999_000.5]))
        tree.delete(float(old.keys[7]))
        new = flat_view(tree)
        assert 1 <= len(exports) <= 4
        assert len(exports) == len({id(p) for p in exports})
        assert_same_view(new, full_export(tree))

    def test_shard_refresh_survives_a_combined_assembly(self, exports):
        """Stamps are read, never consumed: the engine's view and a shard's
        own view each re-export the one page a write touched."""
        keys = np.sort(np.random.default_rng(9).uniform(0, 1e6, 40_000))
        engine = ShardedEngine(keys, n_shards=4, error=16, buffer_capacity=8)
        engine.warm()
        shard = engine.shards[2]
        own = flat_view(shard)
        exported = engine._view_stats["view_pages_exported"]
        assert exported == engine.stats()["n_pages"]
        del exports[:]
        engine.insert(float(engine.cuts[1]) + 1.0)
        flat_view(engine, engine._view_stats)  # updates the engine's view
        assert len(exports) == 1
        assert engine._view_stats["view_pages_exported"] == exported + 1
        now = flat_view(shard)  # the shard's own view sees the write too
        assert len(exports) == 2 and exports[0] is exports[1]
        assert now.keys is own.keys
        assert_same_view(now, full_export(shard))
        assert_same_view(flat_view(engine), full_export(engine))

    def test_pages_exported_reaches_the_registry_not_stats(self):
        tel = Telemetry(mode="metrics")
        keys = np.sort(np.random.default_rng(9).uniform(0, 1e6, 5_000))
        engine = ShardedEngine(keys, n_shards=2, telemetry=tel)
        engine.warm()
        n_pages = engine.stats()["n_pages"]
        line = f'repro_engine_view_events{{event="view_pages_exported"}} {n_pages}'
        assert line in tel.prometheus().splitlines()
        assert "view_pages_exported" not in engine.stats()


# ----------------------------------------------------------------------
# Snapshot safety
# ----------------------------------------------------------------------


class TestSnapshots:
    def test_held_view_answers_the_pre_write_state(self, tree):
        held = flat_view(tree)
        before = {name: getattr(held, name).copy() for name in FIELDS}
        present = float(held.keys[3_000])
        absent = present + 1e-4
        rowid = held.get_batch([present])[0]

        tree.insert(absent)
        flat_view(tree)  # buffer-only refresh, shares arrays with `held`
        tree.delete(present)
        flat_view(tree)  # data refresh
        for i in range(tree.buffer_capacity):  # overflow: directory changes
            tree.insert(absent + 1e-5 * (i + 1))
        now = flat_view(tree)

        assert held.get_batch([present, absent], default=-1).tolist() == [rowid, -1]
        got = now.get_batch([present, absent], default=-1).tolist()
        assert got[0] == -1 and got[1] != -1
        for name in FIELDS:
            assert np.array_equal(getattr(held, name), before[name]), name

    @pytest.mark.parametrize("name", FIELDS)
    def test_view_arrays_are_read_only(self, tree, name):
        tree.insert(123.5)
        arr = getattr(flat_view(tree), name)
        assert arr.size
        with pytest.raises(ValueError):
            arr[0] = arr[0]

    def test_combined_and_window_arrays_are_read_only(self):
        keys = np.sort(np.random.default_rng(9).uniform(0, 1e6, 5_000))
        engine = ShardedEngine(keys, n_shards=2)
        engine.warm()
        for view in (flat_view(engine), flat_view(engine.shards[1])):
            for name in FIELDS:
                assert not getattr(view, name).flags.writeable, name
