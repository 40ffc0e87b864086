"""Property test: save/load round trips are invisible to the index.

The satellite contract for the persistence layer: for ANY build + insert
history, serializing and reloading mid-history leaves the index bit-
identical to a twin that never touched disk — same contents, same page
geometry, same buffered entries, same row-id counter, and identical
behavior under FURTHER inserts after the reload (the part the happy-path
suite never covered) — and the same modeled size and height, which a
reload that re-shaped the paper's tree by its split history would change.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fiting_tree import FITingTree
from repro.core.serialize import load_index, save_index

key_st = st.integers(min_value=0, max_value=400).map(float)
build_st = st.lists(key_st, max_size=120).map(sorted)
inserts_st = st.lists(key_st, max_size=60)
error_st = st.integers(min_value=4, max_value=64)

# Many splits: 3000 uniform keys, then 1500 inserts at error 4 (buffer 1).
_rng = np.random.default_rng(7)
SPLIT_HEAVY = {
    "build": np.sort(_rng.uniform(0, 1e4, 3000)).tolist(),
    "first": _rng.uniform(0, 1e4, 1500).tolist(),
    "second": [],
    "error": 4,
}


def assert_twins(a: FITingTree, b: FITingTree) -> None:
    """Bit-identical state: geometry, contents, buffers, counters."""
    assert len(a) == len(b)
    assert a.n_pages == b.n_pages
    assert a.model_bytes() == b.model_bytes()
    assert a.height == b.height
    assert a._next_rowid == b._next_rowid
    assert list(a.items()) == list(b.items())
    for pa, pb in zip(a.pages(), b.pages()):
        assert pa.start_key == pb.start_key
        assert pa.slope == pb.slope
        assert pa.deletions == pb.deletions
        assert pa.keys.tolist() == pb.keys.tolist()
        assert pa.values.tolist() == pb.values.tolist()
        assert pa.buf_keys == pb.buf_keys
        assert pa.buf_values == pb.buf_values


@given(
    build=build_st,
    first=inserts_st,
    second=inserts_st,
    error=error_st,
)
@example(**SPLIT_HEAVY)
@settings(max_examples=80, deadline=None)
def test_roundtrip_mid_history_is_invisible(tmp_path_factory, build, first,
                                            second, error):
    path = str(tmp_path_factory.mktemp("ser") / "index.npz")
    buffer_capacity = max(1, error // 3)
    keys = np.asarray(build, dtype=np.float64)

    disk = FITingTree(keys, error=error, buffer_capacity=buffer_capacity)
    twin = FITingTree(keys, error=error, buffer_capacity=buffer_capacity)
    for k in first:
        disk.insert(k)
        twin.insert(k)

    save_index(disk, path)
    loaded = load_index(path)
    loaded.validate()
    assert_twins(loaded, twin)

    # The reloaded index must keep behaving identically — later inserts
    # land in the same buffers, trigger the same splits, assign the same
    # row ids.
    for k in second:
        loaded.insert(k)
        twin.insert(k)
    loaded.validate()
    twin.validate()
    assert_twins(loaded, twin)
    probe = np.asarray(
        sorted(set(build + first + second + [401.0])), dtype=np.float64
    )
    sentinel = object()
    for q in probe:
        got = loaded.get(q, sentinel)
        want = twin.get(q, sentinel)
        assert (got is sentinel) == (want is sentinel)
        if got is not sentinel:
            assert got == want
