"""The read crossover: a small read against a stale view answers from the
pages, and answers exactly what the view would.

``ShardedEngine`` reads through one cached :class:`FlatView`. When that
view is stale and a read touches at most ``READ_CROSSOVER`` pages (a get
batch one page per key, a range the pages its bounds span), the read is
answered by the shards' own per-page search and the view is left as it
is (``repro.engine.batch.read_view``). Two contracts are pinned here:

* **same answer** — under generated op sequences (int64, float64 and
  object payloads; duplicate runs split across pages; tombstoned data
  rows; keys buffered below a shard's first page start; NaN and ±inf
  queries; ranges across shard cuts, under every bound inclusivity,
  empty ones included) every page-path answer equals the view's, bit for
  bit: the same ``found`` mask, the same keys, the same payloads (the
  same objects, for an object engine) in the same dtype;
* **the rule** — a small read leaves ``view_builds`` where it was and
  counts a ``view_skips``; a read over the crossover brings the view up
  to date.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ShardedEngine
from repro.core.errors import InvalidParameterError
from repro.engine import batch, flat_view

#: Build keys on a coarse grid, so duplicate runs are long enough that an
#: error of 3 splits them across pages.
BUILD = st.lists(st.integers(0, 20).map(lambda k: k * 0.5), max_size=200)
#: Write keys on a finer grid reaching past both ends of the build.
WRITE = st.integers(-8, 50).map(lambda k: k * 0.25)
OPS = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]),
              st.lists(WRITE, min_size=1, max_size=24)),
    max_size=12,
)
PROBES = np.concatenate(
    [np.arange(-2.5, 13.0, 0.25), [np.nan, np.inf, -np.inf]]
)
BOUND = st.one_of(
    WRITE, st.sampled_from([-np.inf, np.inf, -1.0, 0.0, 5.0, 10.0])
)


def payloads(kind, n, base=0):
    if kind == "object":
        out = np.empty(n, dtype=object)
        out[:] = [("row", base + i) for i in range(n)]
        return out
    return (np.arange(n) + base).astype(kind)


def assert_same_values(got, want):
    assert got.dtype == want.dtype, (got.dtype, want.dtype)
    assert got.shape == want.shape
    if got.dtype == object:
        assert all(a is b for a, b in zip(got, want))
    else:
        assert got.tobytes() == want.tobytes()


def stale(engine):
    view = engine._flat_view_cache
    return view is None or view.version != engine.version


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["int64", "float64", "object"]),
    build=BUILD.map(sorted),
    n_shards=st.integers(1, 4),
    warm=st.booleans(),
    ops=OPS,
    tail=st.lists(WRITE, min_size=1, max_size=4),
    bounds=st.lists(st.tuples(BOUND, BOUND), min_size=1, max_size=6),
)
def test_page_path_answers_what_the_view_answers(
    kind, build, n_shards, warm, ops, tail, bounds
):
    keys = np.asarray(build, dtype=np.float64)
    engine = ShardedEngine(
        keys, payloads(kind, keys.size), n_shards=n_shards, error=3,
        buffer_capacity=2,
    )
    if warm:
        engine.warm()
    n = keys.size
    for verb, ks in ops + [("insert", tail)]:
        if verb == "insert":
            engine.insert_batch(ks, payloads(kind, len(ks), base=n))
            n += len(ks)
        else:
            engine.delete_batch(ks, missing="ignore")
    assert stale(engine)

    with patch.object(batch, "READ_CROSSOVER", 10**9):
        skips = engine.stats()["view_skips"]
        got_values, got_found = engine.lookup_batch(PROBES)
        combos = [(lo, hi) for lo, hi in bounds]
        got_ranges = {
            (il, ih): engine.range_batch(combos, il, ih)
            for il in (True, False)
            for ih in (True, False)
        }
        got_open = engine.range_arrays()
        assert engine.stats()["view_skips"] == skips + 6
        assert stale(engine)

    view = flat_view(engine)
    want_values, want_found = view.lookup_batch(PROBES)
    assert got_found.tolist() == want_found.tolist()
    assert_same_values(got_values[got_found], want_values[want_found])
    assert not got_found[-3:].any()  # NaN and ±inf miss
    for (il, ih), pairs in got_ranges.items():
        for (lo, hi), (got_k, got_v) in zip(combos, pairs):
            want_k, want_v = view.range_arrays(lo, hi, il, ih)
            assert_same_values(got_k, want_k)
            assert_same_values(got_v, want_v)
            assert got_k.flags.writeable and got_v.flags.writeable
    for got, want in zip(got_open, view.range_arrays()):
        assert_same_values(got, want)


def test_keys_buffered_below_a_shards_first_start_route_by_cut():
    """A key in ``[cut, first page start)`` is buffered by the shard the
    cut routes it to; both paths find it there and scan it in order."""
    keys = np.arange(100, dtype=np.float64)
    engine = ShardedEngine(keys, n_shards=2, error=3, buffer_capacity=2)
    cut = float(engine.cuts[0])
    engine.delete_batch(np.arange(cut, cut + 6))  # rebuilds the first page
    shard = engine.shards[1]
    assert shard._get_directory()[0][0] > cut + 1
    engine.warm()
    engine.insert_batch([cut + 0.5], [7])
    assert shard._get_directory()[0][0] > cut + 1  # buffered below it
    q = np.asarray([cut - 1, cut + 0.5, cut + 6, cut + 7])
    got_values, got_found = engine.lookup_batch(q)
    got_range = engine.range_arrays(cut - 2, cut + 8)
    assert stale(engine)
    view = flat_view(engine)
    want_values, want_found = view.lookup_batch(q)
    assert got_found.tolist() == want_found.tolist() == [True] * 4
    assert_same_values(got_values, want_values)
    for got, want in zip(got_range, view.range_arrays(cut - 2, cut + 8)):
        assert_same_values(got, want)


def test_a_nan_bound_raises_on_the_page_path():
    keys = np.arange(1000, dtype=np.float64)
    engine = ShardedEngine(keys, n_shards=2)
    engine.warm()
    engine.insert(0.5)
    for lo, hi in ((np.nan, 5.0), (1.0, np.nan)):
        with pytest.raises(InvalidParameterError):
            engine.range_arrays(lo, hi)
        with pytest.raises(InvalidParameterError):
            engine.range_batch([[lo, hi]])
    assert stale(engine)


def test_a_small_read_skips_the_view_and_a_large_one_updates_it():
    keys = np.sort(np.random.default_rng(3).uniform(0, 1e6, 20_000))
    engine = ShardedEngine(keys, n_shards=4, error=16)
    engine.warm()
    engine.insert(keys[10] + 0.5)
    builds = engine.stats()["view_builds"]

    small = keys[: batch.READ_CROSSOVER]
    engine.get_batch(small)
    engine.range_arrays(keys[0], keys[50])
    stats = engine.stats()
    assert stats["view_builds"] == builds and stats["view_skips"] == 2
    assert stale(engine)

    engine.get_batch(keys[: batch.READ_CROSSOVER + 1])
    stats = engine.stats()
    assert stats["view_builds"] == builds + 1 and stats["view_skips"] == 2
    assert not stale(engine)
    engine.get_batch(small)  # a current view answers every read
    assert engine.stats()["view_hits"] == stats["view_hits"] + 1

    engine.insert(keys[20] + 0.5)
    engine.range_arrays()  # every page: over the crossover
    assert engine.stats()["view_builds"] == builds + 2
    assert not stale(engine)
