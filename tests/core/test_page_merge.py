"""A page's merges place the buffer exactly where ``np.insert`` would.

``SegmentPage.merged_arrays`` (what a rebuild re-segments) and
``SegmentPage.range_arrays`` splice the sorted buffer into the live data
rows with one ``searchsorted`` placement shared by keys and values. Each
is pinned bit for bit against the two-``np.insert`` merge it replaced,
kept here as the reference: buffered keys equal to data keys, duplicate
runs on both sides, tombstoned rows, an empty buffer, and ``int64``,
``float64`` and ``object`` values (object payloads compared by identity).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.page import SegmentPage, export_buffers

# Few distinct keys, so data/buffer ties and duplicate runs are common.
key_st = st.integers(min_value=0, max_value=12).map(float)
DTYPES = ("int64", "float64", "object")


def payload(dtype, i):
    if dtype == "int64":
        return i
    if dtype == "float64":
        return i + 0.25
    return ("payload", i)  # a fresh object per row: identity is checkable


def make_page(dtype, data_keys, buffered, dead):
    keys = np.asarray(sorted(data_keys), dtype=np.float64)
    values = np.empty(keys.size, dtype=dtype)
    for i in range(keys.size):
        values[i] = payload(dtype, i)
    page = SegmentPage(keys[0] if keys.size else 0.0, 0.0, keys, values)
    for j, k in enumerate(buffered):
        page.insert_into_buffer(k, payload(dtype, 1000 + j))
    for i in sorted(set(i for i in dead if i < keys.size)):
        page.delete_at_data(i)
    return page


def reference_merged(page):
    """The two-``np.insert`` merge ``merged_arrays`` replaced."""
    keys, values = page.live_arrays()
    if not page.buf_keys:
        return keys, values
    buf_k, buf_v, _ = export_buffers([page], page.values.dtype)
    positions = np.searchsorted(keys, buf_k, side="left")
    return np.insert(keys, positions, buf_k), np.insert(values, positions, buf_v)


def reference_range(page, lo, hi, include_lo, include_hi):
    """The two-``np.insert`` splice ``range_arrays`` replaced."""
    keys, values = page.live_arrays()
    lo_ok = keys >= lo if include_lo else keys > lo
    hi_ok = keys <= hi if include_hi else keys < hi
    data_keys, data_values = keys[lo_ok & hi_ok], values[lo_ok & hi_ok]
    buf = [
        (k, v)
        for k, v in zip(page.buf_keys, page.buf_values)
        if (k >= lo if include_lo else k > lo) and (k <= hi if include_hi else k < hi)
    ]
    if not buf:
        return data_keys, data_values
    bk = np.asarray([k for k, _ in buf], dtype=np.float64)
    bv = np.fromiter((v for _, v in buf), page.values.dtype, len(buf))
    at = data_keys.searchsorted(bk, side="right")
    return np.insert(data_keys, at, bk), np.insert(data_values, at, bv)


def assert_bit_equal(got, want):
    (gk, gv), (wk, wv) = got, want
    assert gk.dtype == wk.dtype == np.float64
    assert gk.tobytes() == wk.tobytes()
    assert gv.dtype == wv.dtype
    if gv.dtype == object:
        assert len(gv) == len(wv)
        assert all(a is b for a, b in zip(gv, wv))
    else:
        assert gv.tobytes() == wv.tobytes()


page_st = st.tuples(
    st.sampled_from(DTYPES),
    st.lists(key_st, min_size=1, max_size=40),
    st.lists(key_st, max_size=20),
    st.lists(st.integers(min_value=0, max_value=39), max_size=10),
)


@given(page=page_st)
@settings(max_examples=200, deadline=None)
def test_merged_arrays_matches_two_inserts(page):
    page = make_page(*page)
    assert_bit_equal(page.merged_arrays(), reference_merged(page))


@given(
    page=page_st,
    bounds=st.tuples(key_st, key_st).map(sorted),
    include=st.tuples(st.booleans(), st.booleans()),
)
@settings(max_examples=200, deadline=None)
def test_range_arrays_matches_two_inserts(page, bounds, include):
    page = make_page(*page)
    lo, hi = bounds
    got = page.range_arrays(lo, hi, *include)
    assert_bit_equal(got, reference_range(page, lo, hi, *include))


def test_buffered_key_lands_before_equal_data_rows():
    for dtype in DTYPES:
        page = make_page(dtype, [1.0, 2.0, 2.0, 3.0], [2.0, 2.0, 0.5, 3.0], [])
        keys, values = page.merged_arrays()
        assert keys.tolist() == [0.5, 1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0]
        # Buffered 2.0s (arrival order reversed by bisect_left) come first.
        expect = [page.buf_values[0], page.values[0], page.buf_values[1],
                  page.buf_values[2], page.values[1], page.values[2],
                  page.buf_values[3], page.values[3]]
        assert all(a is b or a == b for a, b in zip(values, expect))
        assert_bit_equal((keys, values), reference_merged(page))


def test_tombstoned_rows_are_dropped_and_empty_buffer_is_the_live_rows():
    for dtype in DTYPES:
        page = make_page(dtype, [1.0, 2.0, 3.0, 4.0], [], [1, 3])
        keys, values = page.merged_arrays()
        assert keys.tolist() == [1.0, 3.0]
        assert_bit_equal((keys, values), reference_merged(page))
        page.insert_into_buffer(3.0, payload(dtype, 99))
        keys, _ = page.merged_arrays()
        assert keys.tolist() == [1.0, 3.0, 3.0]
        assert_bit_equal(page.merged_arrays(), reference_merged(page))


def test_all_rows_dead_leaves_only_the_buffer():
    page = make_page("int64", [1.0, 2.0], [5.0, 0.0], [0, 1])
    keys, values = page.merged_arrays()
    assert keys.tolist() == [0.0, 5.0]
    assert values.tolist() == [1001, 1000]
    assert_bit_equal((keys, values), reference_merged(page))
