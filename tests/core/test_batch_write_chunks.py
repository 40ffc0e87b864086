"""Write batches whose per-page chunks straddle the list/bulk crossover.

``PagedIndexBase.insert_batch`` and ``pop_batch`` apply a page's chunk
through the scalar verbs' list primitives below
``paged_index.BATCH_CROSSOVER`` keys and through ``SegmentPage.bulk_insert``
/ ``bulk_delete`` at or above it. Either way the result must be the scalar
loop's, key by key in stable sorted order. Generated batches mix single
keys and dense runs into one page, duplicates across a split run, chunks
that fill a buffer exactly, deletes that hit the buffer and then the data,
a deletion budget that runs out mid-chunk, and ``missing="ignore"`` misses,
on the FITing-Tree and the fixed-page baseline. After every batch the two
twins agree on ``items()``, ``len``, ``page_rebuilds``, every page's
buffer and tombstones, and the answered values; ``version`` only grows and
``validate()`` passes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.fixed_index import FixedPageIndex
from repro.core.errors import KeyNotFoundError
from repro.core.fiting_tree import FITingTree
from repro.core.paged_index import BATCH_CROSSOVER

#: A small key domain: duplicates are common and runs split across pages.
KEYS = st.integers(min_value=0, max_value=150).map(float)


def page_state(index):
    return [
        (
            page.start_key,
            page.keys.tolist(),
            page.values.tolist(),
            list(page.buf_keys),
            [int(v) for v in page.buf_values],
            page.deletions,
            None if page.dead is None else page.dead.tolist(),
        )
        for page in index.pages()
    ]


def assert_twins(batch, scalar):
    assert page_state(batch) == page_state(scalar)
    assert list(batch.items()) == list(scalar.items())
    assert len(batch) == len(scalar)
    assert batch.page_rebuilds == scalar.page_rebuilds
    batch.validate()


@st.composite
def dense_run(draw):
    """Keys packed around one centre: one page's chunk, sized anywhere
    from a single key to past the crossover (duplicates included)."""
    centre = draw(st.integers(min_value=0, max_value=150))
    k = draw(st.integers(min_value=1, max_value=2 * BATCH_CROSSOVER + 4))
    offsets = draw(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=k, max_size=k)
    )
    return [float(centre + o) + 0.5 * (i % 2) for i, o in enumerate(offsets)]


BATCH = st.one_of(
    st.lists(KEYS, min_size=1, max_size=12),
    dense_run(),
    st.tuples(dense_run(), st.lists(KEYS, max_size=6)).map(
        lambda pair: pair[0] + pair[1]
    ),
)


def make(kind, build, capacity):
    keys = np.asarray(sorted(build), dtype=np.float64)
    values = np.arange(keys.size, dtype=np.int64)
    if kind == "fiting":
        return FITingTree(
            keys, values, error=capacity + 6, buffer_capacity=capacity
        )
    return FixedPageIndex(keys, values, page_size=12, buffer_capacity=capacity)


OPS = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "delete_ignore"]), BATCH),
    min_size=1,
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["fiting", "fixed"]),
    build=st.lists(KEYS, max_size=120),
    capacity=st.sampled_from([2, 3, 5, BATCH_CROSSOVER, BATCH_CROSSOVER + 3]),
    ops=OPS,
)
def test_batches_equal_the_scalar_loop(kind, build, capacity, ops):
    batch, scalar = make(kind, build, capacity), make(kind, build, capacity)
    serial = 10_000
    live = sorted(build)
    for verb, keys in ops:
        version = batch.version
        arr = np.asarray(keys, dtype=np.float64)
        order = np.argsort(arr, kind="stable")
        applied = arr.size
        if verb == "insert":
            values = np.arange(serial, serial + arr.size, dtype=np.int64)
            serial += arr.size
            batch.insert_batch(arr, values)
            for i in order.tolist():
                scalar.insert(float(arr[i]), int(values[i]))
            live.extend(keys)
        else:
            if verb == "delete":
                # Strict deletes of present occurrences only: the batch
                # must answer every one.
                pool = list(live)
                arr = np.asarray(
                    [k for k in keys if k in pool and not pool.remove(k)],
                    dtype=np.float64,
                )
                order = np.argsort(arr, kind="stable")
            got, found = batch.pop_batch(
                arr, missing="raise" if verb == "delete" else "ignore"
            )
            want = np.zeros(arr.size, dtype=np.int64)
            hit = np.zeros(arr.size, dtype=bool)
            for i in order.tolist():
                try:
                    want[i] = scalar.delete(float(arr[i]))
                except KeyNotFoundError:
                    continue
                hit[i] = True
                live.remove(float(arr[i]))
            assert got.dtype == np.int64
            assert found.tolist() == hit.tolist()
            assert got[hit].tolist() == want[hit].tolist()
            applied = int(hit.sum())
        assert batch.version > version if applied else batch.version == version
        assert_twins(batch, scalar)
    assert sorted(live) == [k for k, _ in scalar.items()]


def test_strict_delete_stops_where_the_scalar_loop_raises():
    """A sparse chunk's first absent key raises after the keys before it
    are applied, exactly as the scalar loop would."""
    keys = np.arange(0.0, 400.0)
    batch = FITingTree(keys, error=16, buffer_capacity=8)
    scalar = FITingTree(keys, error=16, buffer_capacity=8)
    doomed = np.asarray([5.0, 7.0, 7.5, 9.0])
    try:
        batch.pop_batch(doomed)
    except KeyNotFoundError as exc:
        assert exc.args == (7.5,)
    else:
        raise AssertionError("a strict delete of an absent key must raise")
    for key in (5.0, 7.0):
        scalar.delete(key)
    assert_twins(batch, scalar)


def test_budget_runs_out_mid_chunk():
    """A sparse chunk that spends its page's deletion budget rebuilds the
    page there and routes the rest of the chunk against the new pages."""
    keys = np.arange(0.0, 400.0)
    batch = FITingTree(keys, error=32, buffer_capacity=4)
    scalar = FITingTree(keys, error=32, buffer_capacity=4)
    page = next(iter(batch.pages()))
    doomed = page.keys[1 : 1 + BATCH_CROSSOVER - 1].copy()
    rebuilds = batch.page_rebuilds
    values, found = batch.pop_batch(doomed)
    assert found.all() and values.tolist() == doomed.astype(int).tolist()
    for key in doomed.tolist():
        scalar.delete(key)
    assert batch.page_rebuilds > rebuilds
    assert_twins(batch, scalar)


def test_chunk_filling_the_buffer_exactly_rebuilds_once():
    keys = np.arange(0.0, 4000.0, 10.0)
    for size in (BATCH_CROSSOVER - 1, BATCH_CROSSOVER):
        batch = FITingTree(keys, error=64, buffer_capacity=size)
        scalar = FITingTree(keys, error=64, buffer_capacity=size)
        fresh = 1000.0 + np.arange(size) * 0.25
        batch.insert_batch(fresh, np.arange(size))
        for i, key in enumerate(fresh.tolist()):
            scalar.insert(key, i)
        assert batch.page_rebuilds == scalar.page_rebuilds == 1
        assert_twins(batch, scalar)
