"""FlatView batch reads in key order answer what the request-order reads did.

``FlatView.lookup_batch`` argsorts its queries, searches them sorted and
scatters ``(values, found)`` back to request order; ``FlatView.range_batch``
finds every bound of a batch with one ``searchsorted`` per side and gathers
every row at once. Both are pinned here, bit for bit, against the
request-order implementations they replaced, kept verbatim below as
``reference_lookup`` and ``reference_range`` over generated engines:
int64, float64 and object payloads; duplicate runs split across pages;
tombstoned data rows; keys buffered below a shard's first page start; NaN
and ±inf queries; open, empty and inverted bounds under all four
inclusivities. The answers must not move when the batch is permuted, and
every range row must be a writeable array that shares no memory with the
view.
"""

from typing import Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ShardedEngine
from repro.core.errors import InvalidParameterError
from repro.engine import flat_view

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
QUERY = st.one_of(WRITE, st.sampled_from([np.nan, np.inf, -np.inf, 1e9]))
BOUND = st.one_of(
    WRITE, st.sampled_from([-np.inf, np.inf, -1.0, 0.0, 5.0, 10.0])
)


# ----------------------------------------------------------------------
# The request-order reads, as they stood before the batch was sorted.
# ----------------------------------------------------------------------

def reference_lookup(self, queries) -> Tuple[np.ndarray, np.ndarray]:
    q = np.ascontiguousarray(queries, dtype=np.float64)
    if self.n_pages == 0:
        return (
            np.empty(q.size, dtype=self.values.dtype),
            np.zeros(q.size, dtype=bool),
        )
    pi = self.route_starts.searchsorted(q, side="right") - 1
    np.maximum(pi, 0, out=pi)
    slot, found = _search_data(self, q, pi)
    if self.keys.size:
        out = self.values[slot]
    else:
        out = np.empty(q.size, dtype=self.values.dtype)
    if bool(found.all()):
        return out, found

    miss = np.flatnonzero(~found)
    while True:
        if self.buf_keys.size:
            slot, hit = _search_buffers(self, q[miss], pi[miss])
            if hit.any():
                out[miss[hit]] = self.buf_values[slot[hit]]
                found[miss[hit]] = True
                miss = miss[~hit]
        # Walk back (see module doc).
        miss = miss[(pi[miss] > 0) & (self.starts[pi[miss]] == q[miss])]
        if not miss.size:
            break
        pi[miss] -= 1
        slot, hit = _search_data(self, q[miss], pi[miss])
        out[miss[hit]] = self.values[slot[hit]]
        found[miss[hit]] = True
        miss = miss[~hit]
    return out, found


def _search_data(
    self, q: np.ndarray, pi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    nd = self.keys.size
    if not nd:
        return np.zeros(q.size, dtype=np.int64), np.zeros(q.size, dtype=bool)
    pos = self.keys.searchsorted(q, side="left")
    np.maximum(pos, self.offsets[pi], out=pos)
    end = self.offsets[pi + 1]
    while True:
        slot = np.minimum(pos, nd - 1)
        hit = (pos < end) & (self.keys[slot] == q)
        step = hit & self.dead[slot]
        if not step.any():
            return slot, hit
        pos += step


def _search_buffers(
    self, q: np.ndarray, pi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    pos = self.buf_keys.searchsorted(q, side="left")
    np.maximum(pos, self.buf_offsets[pi], out=pos)
    slot = np.minimum(pos, self.buf_keys.size - 1)
    hit = (pos < self.buf_offsets[pi + 1]) & (self.buf_keys[slot] == q)
    return slot, hit & np.isfinite(q)


def reference_range(
    self,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
    include_lo: bool = True,
    include_hi: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    if lo != lo or hi != hi:
        raise InvalidParameterError("a range bound cannot be NaN")
    span = (lo, hi, include_lo, include_hi)
    a, b = _span(self.keys, *span)
    keys, values = self.keys[a:b], self.values[a:b]
    dead = np.flatnonzero(self.dead[a:b])
    if dead.size:
        live = np.ones(b - a, dtype=bool)
        live[dead] = False
        keys, values = keys[live], values[live]
    c, d = _span(self.buf_keys, *span)
    if c == d:
        return keys, values
    bk, bv = self.buf_keys[c:d], self.buf_values[c:d]
    next_page = self.buf_offsets.searchsorted(np.arange(c, d), side="right")
    at = np.minimum(
        self.offsets[next_page], self.keys.searchsorted(bk, "right")
    )
    np.maximum(at, self.keys.searchsorted(bk, "left"), out=at)
    at -= a
    at -= dead.searchsorted(at)  # ranks among the live rows
    at += np.arange(at.size)  # slots in the merged output
    is_data = np.ones(keys.size + at.size, dtype=bool)
    is_data[at] = False
    out_keys = np.empty(is_data.size, dtype=keys.dtype)
    out_values = np.empty(is_data.size, dtype=np.result_type(values, bv))
    out_keys[is_data], out_keys[at] = keys, bk
    out_values[is_data], out_values[at] = values, bv
    return out_keys, out_values


def _span(arr, lo, hi, include_lo, include_hi) -> Tuple[int, int]:
    a = 0
    b = arr.size
    if lo is not None:
        a = int(arr.searchsorted(lo, side="left" if include_lo else "right"))
    if hi is not None:
        b = int(arr.searchsorted(hi, side="right" if include_hi else "left"))
    return a, max(a, b)


# ----------------------------------------------------------------------


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


def assert_same_lookup(got, want):
    (got_values, got_found), (want_values, want_found) = got, want
    assert got_found.tolist() == want_found.tolist()
    assert_same_values(got_values[got_found], want_values[want_found])


def owned(arr, view):
    """``arr`` is the caller's: writeable, and no view array under it."""
    return arr.flags.writeable and not any(
        np.shares_memory(arr, getattr(view, name))
        for name in ("keys", "values", "buf_keys", "buf_values")
    )


def written_engine(kind, build, n_shards, ops):
    keys = np.asarray(build, dtype=np.float64)
    engine = ShardedEngine(
        keys, payloads(kind, keys.size), n_shards=n_shards, error=3,
        buffer_capacity=2,
    )
    engine.warm()  # the reads below derive their views from this one
    n = keys.size
    for verb, ks in ops:
        if verb == "insert":
            engine.insert_batch(ks, payloads(kind, len(ks), base=n))
            n += len(ks)
        else:
            engine.delete_batch(ks, missing="ignore")
    return engine


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["int64", "float64", "object"]),
    build=BUILD.map(sorted),
    n_shards=st.integers(1, 4),
    ops=OPS,
    queries=st.lists(QUERY, max_size=60),
    bounds=st.lists(st.tuples(BOUND, BOUND), max_size=8),
    data=st.data(),
)
def test_sorted_reads_answer_what_request_order_reads_did(
    kind, build, n_shards, ops, queries, bounds, data
):
    engine = written_engine(kind, build, n_shards, ops)
    q = np.asarray(queries, dtype=np.float64)
    perm = np.asarray(data.draw(st.permutations(range(q.size))), dtype=int)
    rows = np.asarray(bounds, dtype=np.float64).reshape(-1, 2)
    flip = np.asarray(data.draw(st.permutations(range(len(rows)))), dtype=int)
    # The engine's view spans every shard; each shard's own view buffers
    # its under-first-start keys on its first page.
    for view in [flat_view(engine)] + [flat_view(s) for s in engine.shards]:
        want = reference_lookup(view, q)
        assert_same_lookup(view.lookup_batch(q), want)
        values, found = view.lookup_batch(q[perm])
        assert_same_lookup((values, found), (want[0][perm], want[1][perm]))
        for il in (True, False):
            for ih in (True, False):
                got = view.range_batch(rows, il, ih)
                assert len(got) == len(rows)
                for (lo, hi), (k, v) in zip(rows.tolist(), got):
                    want_k, want_v = reference_range(
                        view,
                        None if lo == -np.inf else lo,
                        None if hi == np.inf else hi,
                        il,
                        ih,
                    )
                    assert_same_values(k, want_k)
                    assert_same_values(v, want_v)
                    assert owned(k, view) and owned(v, view)
                flipped = view.range_batch(rows[flip], il, ih)
                for (k, v), (fk, fv) in zip([got[i] for i in flip], flipped):
                    assert_same_values(fk, k)
                    assert_same_values(fv, v)
        for got, want in zip(view.range_arrays(), reference_range(view)):
            assert_same_values(got, want)


def test_range_batch_of_no_rows_and_a_nan_bound():
    engine = ShardedEngine(np.arange(100.0), n_shards=2, error=3)
    view = flat_view(engine)
    assert view.range_batch(np.empty((0, 2))) == []
    for lo, hi in ((np.nan, 5.0), (1.0, np.nan)):
        with pytest.raises(InvalidParameterError):
            view.range_batch([(0.0, 1.0), (lo, hi)])
        with pytest.raises(InvalidParameterError):
            view.range_arrays(lo, hi)
