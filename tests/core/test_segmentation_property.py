"""Hypothesis property tests for the segmentation algorithms."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segment import verify_segments
from repro.core.segmentation import (
    _FIRST_PASS,
    max_segments_bound,
    shrinking_cone,
    shrinking_cone_reference,
)

# Sorted float arrays with duplicates, moderate sizes, finite values.
sorted_keys_st = (
    st.lists(
        st.floats(
            min_value=-1e6,
            max_value=1e6,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=1,
        max_size=300,
    )
    .map(sorted)
    .map(lambda xs: np.asarray(xs, dtype=np.float64))
)

error_st = st.one_of(
    st.integers(min_value=1, max_value=100).map(float),
    st.floats(min_value=0.5, max_value=100.0, allow_nan=False),
)

accept_st = st.sampled_from(["paper", "exact"])


@given(keys=sorted_keys_st, error=error_st, accept=accept_st)
@settings(max_examples=200, deadline=None)
def test_segments_cover_and_respect_error(keys, error, accept):
    segs = shrinking_cone(keys, error, accept=accept)
    verify_segments(keys, segs, error)


@given(
    keys=sorted_keys_st,
    error=error_st,
    accept=accept_st,
    chunk=st.integers(min_value=2, max_value=64),
)
@settings(max_examples=150, deadline=None)
def test_vectorized_equals_reference(keys, error, accept, chunk):
    fast = shrinking_cone(keys, error, accept=accept, chunk=chunk)
    ref = shrinking_cone_reference(keys, error, accept=accept)
    assert fast == ref


@given(keys=sorted_keys_st, error=error_st)
@settings(max_examples=150, deadline=None)
def test_exact_accept_never_worse(keys, error):
    paper = shrinking_cone(keys, error, accept="paper")
    exact = shrinking_cone(keys, error, accept="exact")
    assert len(exact) <= len(paper)


@given(keys=sorted_keys_st, error=st.integers(min_value=1, max_value=50))
@settings(max_examples=150, deadline=None)
def test_segment_count_within_element_bound(keys, error):
    # For integer errors every non-final segment covers >= error+1 slots
    # (Theorem 3.1 for distinct keys; duplicate-run splitting by
    # construction), so |D|/(error+1) + 1 bounds the count even for
    # duplicate-heavy inputs where the paper's |keys|/2 term fails
    # (see max_segments_bound docstring).
    segs = shrinking_cone(keys, float(error))
    assert len(segs) <= len(keys) / (error + 1.0) + 1
    for seg in segs[:-1]:
        assert seg.length >= error + 1


@given(keys=sorted_keys_st, error=st.integers(min_value=1, max_value=50))
@settings(max_examples=100, deadline=None)
def test_paper_bound_holds_without_long_duplicate_runs(keys, error):
    _, counts = np.unique(keys, return_counts=True)
    if counts.max() > error + 1:
        return  # paper bound's precondition violated; covered above
    segs = shrinking_cone(keys, float(error))
    bound = max_segments_bound(len(counts), len(keys), float(error))
    # +1 slack: a point exactly on the cone boundary can split one segment
    # more than the real-arithmetic bound predicts (float rounding of
    # s + err/d vs (y+err-y0)/d differs by an ulp).
    assert len(segs) <= max(1.0, np.ceil(bound)) + 1


@given(keys=sorted_keys_st, error=error_st)
@settings(max_examples=100, deadline=None)
def test_monotone_in_error(keys, error):
    few = shrinking_cone(keys, error * 4)
    many = shrinking_cone(keys, error)
    assert len(few) <= len(many)


@given(keys=sorted_keys_st, error=error_st)
@settings(max_examples=100, deadline=None)
def test_segment_starts_strictly_increase_positions(keys, error):
    segs = shrinking_cone(keys, error)
    positions = [s.start_pos for s in segs]
    assert positions == sorted(set(positions))
    lengths = sum(s.length for s in segs)
    assert lengths == len(keys)


# ----------------------------------------------------------------------
# The vectorized scan across its pass boundaries
# ----------------------------------------------------------------------

# Segment lengths that end a segment on, or one short of, a pass edge at
# the default ``chunk``: passes cover 256, 512, 1024, 2048, then 4096 keys
# after the origin, so the edges fall at offsets 256, 768, 1792 and 3840.
_EDGES = [_FIRST_PASS * (2**p - 1) for p in range(1, 5)]
_EDGE_LENGTHS = [e + d for e in _EDGES for d in (0, 1)]

_piece_st = st.tuples(
    st.sampled_from(["linear", "dups"]),
    st.one_of(st.sampled_from(_EDGE_LENGTHS), st.integers(1, 600)),
)
_tiny_gap_st = st.sampled_from([5e-324, 1e-320, 1e-310, 1e-308, 1e-306, 1e-300])


def _piecewise_keys(tiny, pieces, max_keys=5_000):
    """Sorted keys from ``pieces`` of (kind, length): a linear run of exactly
    spaced keys or a run of one repeated key. Each piece starts after a wide
    jump, so it usually opens a segment of its own (a dup run then is the
    origin's duplicates). ``tiny`` = (gap, length) first lays keys a
    near-subnormal gap apart from 0.0, where their slope can overflow."""
    parts = []
    if tiny is not None:
        gap, length = tiny
        parts.append(gap * np.arange(length, dtype=np.float64))
    x = 1.0
    for i, (kind, length) in enumerate(pieces):
        gap = 2.0 ** (i % 5)
        run = x + gap * np.arange(length) if kind == "linear" else np.full(length, x)
        parts.append(run)
        x = float(run[-1]) + 1_000.0 * gap
    return np.sort(np.concatenate(parts))[:max_keys]


@given(
    tiny=st.none() | st.tuples(_tiny_gap_st, st.integers(2, 300)),
    pieces=st.lists(_piece_st, min_size=1, max_size=8),
    error=st.sampled_from([1.0, 4.0, 8.0, 16.5, 64.0, 300.0, 1000.0]),
    accept=accept_st,
)
@settings(max_examples=60, deadline=None)
def test_vectorized_equals_reference_across_pass_edges(tiny, pieces, error, accept):
    keys = _piecewise_keys(tiny, pieces)
    if keys.size < 200:
        keys = np.concatenate([keys, keys[-1] + 1.0 + np.arange(200.0)])
    fast = shrinking_cone(keys, error, accept=accept)
    assert fast == shrinking_cone_reference(keys, error, accept=accept)


def test_segments_end_on_every_pass_edge():
    for length in _EDGE_LENGTHS:
        keys = _piecewise_keys(None, [("linear", length), ("linear", 300)])
        for accept in ("paper", "exact"):
            fast = shrinking_cone(keys, 4.0, accept=accept)
            assert fast[0].length == length  # the case really is on the edge
            assert fast == shrinking_cone_reference(keys, 4.0, accept=accept)


def test_origin_duplicates_straddling_pass_edges():
    # Runs longer than the first pass, accepted whole (error above the run)
    # or split at error + 1 in a later pass.
    for run in (_FIRST_PASS, _FIRST_PASS + 1, 300, 800, 1_900):
        keys = _piecewise_keys(None, [("dups", run), ("linear", 500)])
        for error in (4.0, 280.0, 1_000.0, 2_000.0):
            for accept in ("paper", "exact"):
                fast = shrinking_cone(keys, error, accept=accept)
                assert fast == shrinking_cone_reference(keys, error, accept=accept)


def test_overflowing_slopes_take_the_masking_branch():
    # Gaps so small that y / d overflows float64 (5e-324 and 1e-310), or
    # only the pass's bound does (1e-306): every point is an origin
    # duplicate in the first case, a finite slope in the last.
    for gap in (5e-324, 1e-310, 1e-306):
        keys = _piecewise_keys((gap, 400), [("linear", 300)])
        with np.errstate(over="ignore"):
            assert not np.isfinite(400 / (keys[1] - keys[0]))
        for error in (8.0, 16.5, 300.0):
            for accept in ("paper", "exact"):
                fast = shrinking_cone(keys, error, accept=accept)
                assert fast == shrinking_cone_reference(keys, error, accept=accept)
