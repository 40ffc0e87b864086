"""A page's insert buffer is two C arrays where ``array`` holds the dtype.

``SegmentPage.buf_keys`` is an ``array.array("d")``; ``buf_values`` is an
``array.array`` in the page's values dtype when that dtype is a
native-order integer or float whose ``char`` is an ``array`` typecode of
the same itemsize, and a list otherwise (``buffer_typecode``). Pinned here:

* the container rule over a dtype matrix;
* ``export_buffers`` equals the ``np.fromiter``-over-a-list reference in
  dtype, shape and content, and its arrays own their memory;
* typed buffers round-trip bit-identically through pickle, deepcopy,
  ``to_state``/``from_state`` and ``core.serialize`` save/load;
* a page whose buffer was exported, ranged or merged still inserts and
  deletes (a live NumPy view of an ``array.array`` would make it raise
  ``BufferError``).
"""

import copy
import pickle
from array import array
from itertools import chain

import numpy as np
import pytest

from repro.core.fiting_tree import FITingTree
from repro.core.page import SegmentPage, buffer_typecode, export_buffers
from repro.core.serialize import load_index, save_index

BIG = 2**63 + 12345  # above int64: only uint64 holds it

#: dtype -> (the buffer's typecode or None for a list, payloads to buffer).
MATRIX = {
    "int64": (np.dtype(np.int64).char, [7, -(2**62), 3, 0]),
    "float64": ("d", [0.5, -1e300, 2.25, 7.0]),
    "float32": ("f", [0.5, -3.25, 1024.0, 7.0]),
    "int32": ("i", [7, -(2**31), 2**31 - 1, 0]),
    "uint64": (np.dtype(np.uint64).char, [BIG, 0, 2**64 - 1, 5]),
    "bool": (None, [True, False, True, True]),
    "object": (None, [(1, "a"), (2,), ("x", None), ()]),
    "<U3": (None, ["ab", "", "xyz", "q"]),
    ">i8": (None, [7, -5, 2**40, 0]),
}

BUF_KEYS = [4.5, 1.5, 8.5, 4.5]


def _values(dtype, payloads):
    out = np.empty(len(payloads), dtype=dtype)
    for i, v in enumerate(payloads):  # element-wise: tuples stay opaque
        out[i] = v
    return out


def buffered_page(dtype, payloads, lo=0.0):
    """A page over keys ``lo .. lo+9`` with ``payloads`` buffered: half
    by scalar inserts, half by one ``bulk_insert``."""
    dtype = np.dtype(dtype)
    keys = np.arange(10, dtype=np.float64) + lo
    page = SegmentPage(lo, 1.0, keys, _values(dtype, payloads * 3)[:10])
    for k, v in zip(BUF_KEYS[:2], payloads[:2]):
        page.insert_into_buffer(k + lo, v)
    order = np.argsort(BUF_KEYS[2:], kind="stable")
    page.bulk_insert(
        np.asarray(BUF_KEYS[2:])[order] + lo,
        _values(dtype, payloads[2:])[order],
    )
    return page


def assert_same_buffer(a, b):
    """Same container type, typecode and bytes (or list items)."""
    for x, y in ((a.buf_keys, b.buf_keys), (a.buf_values, b.buf_values)):
        assert type(x) is type(y)
        if isinstance(x, array):
            assert x.typecode == y.typecode
            assert x.tobytes() == y.tobytes()
        else:
            assert [(type(v), v) for v in x] == [(type(v), v) for v in y]


@pytest.mark.parametrize("name", MATRIX)
def test_container_rule(name):
    code, payloads = MATRIX[name]
    dtype = np.dtype(name)
    assert buffer_typecode(dtype) == code
    page = buffered_page(dtype, payloads)
    assert type(page.buf_keys) is array and page.buf_keys.typecode == "d"
    if code is None:
        assert type(page.buf_values) is list
    else:
        assert type(page.buf_values) is array
        assert page.buf_values.typecode == code
        assert page.buf_values.itemsize == dtype.itemsize
    assert list(page.buf_keys) == sorted(page.buf_keys)


@pytest.mark.parametrize("name", ["float16", "complex128", "M8[ns]", ">f8"])
def test_other_dtypes_buffer_in_lists(name):
    assert buffer_typecode(np.dtype(name)) is None


@pytest.mark.parametrize("name", MATRIX)
def test_export_matches_the_fromiter_reference(name):
    code, payloads = MATRIX[name]
    dtype = np.dtype(name)
    pages = [
        buffered_page(dtype, payloads, lo)
        for lo in (0.0, 20.0, 40.0)
    ]
    pages.insert(1, SegmentPage(15.0, 1.0, np.arange(15.0, 18.0),
                                _values(dtype, payloads[:3])))
    # A typed dtype exports through the join of its C arrays.
    typed = [type(p.buf_values) is array for p in pages]
    assert typed == [code is not None] * len(pages)
    keys, values, lengths = export_buffers(pages, dtype)
    n = sum(lengths)
    assert lengths == [4, 0, 4, 4]
    ref_keys = np.fromiter(
        chain.from_iterable(list(p.buf_keys) for p in pages), np.float64, n
    )
    ref_values = np.fromiter(
        chain.from_iterable(list(p.buf_values) for p in pages), dtype, n
    )
    for got, ref in ((keys, ref_keys), (values, ref_values)):
        assert got.dtype == ref.dtype and got.shape == ref.shape == (n,)
        assert got.base is None and got.flags.owndata
    assert keys.tobytes() == ref_keys.tobytes()
    if dtype == object:
        assert [(type(v), v) for v in values] == [
            (type(v), v) for v in ref_values
        ]
    else:
        assert values.tobytes() == ref_values.tobytes()
    if name == "uint64":
        assert BIG in values.tolist()


@pytest.mark.parametrize("name", ["int64", "float32", "uint64", "int32"])
def test_typed_page_pickles_and_copies_bit_identically(name):
    _, payloads = MATRIX[name]
    page = buffered_page(name, payloads)
    for twin in (pickle.loads(pickle.dumps(page)), copy.deepcopy(page)):
        assert_same_buffer(page, twin)
        assert twin.buf_keys is not page.buf_keys
        twin.insert_into_buffer(3.5, payloads[0])  # its own arrays
        assert page.n_buffer == 4


def _buffered_index(name, payloads):
    dtype = np.dtype(name)
    keys = np.arange(0.0, 400.0)
    values = _values(dtype, (payloads * 100)[:400])
    index = FITingTree(keys, values, error=32, buffer_capacity=16)
    for i, k in enumerate(np.linspace(0.25, 399.25, 40)):
        index.insert(float(k), payloads[i % len(payloads)])
    assert sum(p.n_buffer for p in index.pages()) > 0
    return index


@pytest.mark.parametrize("name", ["int64", "float64", "float32", "uint64"])
def test_typed_index_round_trips_through_state_and_disk(name, tmp_path):
    _, payloads = MATRIX[name]
    index = _buffered_index(name, payloads)
    path = str(tmp_path / "index.npz")
    save_index(index, path)
    for twin in (FITingTree.from_state(index.to_state()), load_index(path)):
        assert twin.n_pages == index.n_pages
        for a, b in zip(index.pages(), twin.pages()):
            assert_same_buffer(a, b)
        twin.validate()


@pytest.mark.parametrize("name", ["int64", "float64", "object", "uint64"])
def test_reads_leave_the_buffer_resizable(name):
    _, payloads = MATRIX[name]
    page = buffered_page(name, payloads)
    # Every bulk reader, its result held alive across the writes below.
    held = [
        export_buffers([page], page.values.dtype),
        page.range_arrays(0.0, 100.0, True, True),
        page.merged_arrays(),
        [page.min_key(), page.max_key()],
        list(page.iter_items(2.0)),
    ]
    page.insert_into_buffer(6.5, payloads[0])
    page.delete_at_buffer(0)
    page.bulk_insert(np.asarray([2.5, 2.5]), _values(name, payloads[:2]))
    n, _ = page.bulk_delete(np.asarray([2.5, 6.5]))
    assert n == 2
    assert page.n_buffer == 4 and held


@pytest.mark.parametrize(
    "name, payload, error",
    [("int64", 1.5, TypeError), ("uint64", -1, OverflowError)],
)
def test_typed_page_refuses_a_payload_its_typecode_cannot_take(
    name, payload, error
):
    page = buffered_page(name, MATRIX[name][1])
    before = (page.buf_keys.tobytes(), page.buf_values.tobytes())
    with pytest.raises(error):
        page.insert_into_buffer(3.5, payload)
    assert (page.buf_keys.tobytes(), page.buf_values.tobytes()) == before
