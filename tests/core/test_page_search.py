"""The scalar page search against the float-array search it replaced.

``SegmentPage`` reads its data keys through a memoryview with ``bisect``
and computes the ±error window with float arithmetic. ``ReferencePage``
below keeps the previous implementation verbatim (NumPy slices,
``searchsorted`` and ``math.floor``/``math.ceil``), and every property here
checks the live page against it on generated pages: sorted float64 keys
with duplicate runs, ``-0.0`` beside ``0.0`` and magnitudes up to 1e300,
slopes from real segmentation plus ``0.0``, tombstoned rows and deletion
counts that widen the window. Probes are drawn from the page, between its
keys and around it.
"""

import copy
import math
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FITingTree
from repro.core.page import SegmentPage
from repro.memsim import AccessCounter

MODES = ("binary", "linear", "exponential")
COUNTS = (
    "tree_nodes", "segment_probes", "buffer_probes", "segment_line_misses",
    "buffer_line_misses", "data_moves", "splits", "ops",
)


class ReferencePage(SegmentPage):
    """The search as it was before the memoryview, kept as the oracle."""

    def window(self, key, search_error):
        n = len(self.keys)
        if n == 0:
            return 0, 0
        if math.isinf(search_error):
            return 0, n  # fixed-page mode: binary-search the whole page
        err = search_error + self.deletions
        predicted = (key - self.start_key) * self.slope
        lo = int(max(0.0, math.floor(predicted - err)))
        hi = int(min(n, math.ceil(predicted + err) + 1))
        if lo >= hi:  # prediction clamped entirely outside the array
            if predicted < 0:
                lo, hi = 0, min(n, 1)
            else:
                lo, hi = max(0, n - 1), n
        return lo, hi

    def find_in_data(self, key, search_error, counter=None, mode="binary"):
        if mode == "binary":
            lo, hi = self.window(key, search_error)
            if counter is not None:
                counter.segment_binary_search(hi - lo)
            i = lo + int(self.keys[lo:hi].searchsorted(key, "left"))
            if i < hi and self.keys[i] == key:
                if self.dead is None or not self.dead[i]:
                    return i
                return self._first_live(i, key)
            return -1
        if mode == "linear":
            return self._find_linear(key, search_error, counter)
        return self._find_exponential(key, search_error, counter)

    def _start_probe(self, key, search_error):
        lo, hi = self.window(key, search_error)
        if lo >= hi:
            return lo, hi, lo
        predicted = (key - self.start_key) * self.slope
        start = int(round(predicted))
        return lo, hi, min(max(start, lo), hi - 1)

    def _first_occurrence(self, i, key, probes, counter):
        while i > 0 and self.keys[i - 1] == key:
            i -= 1
            probes += 1
        if counter is not None:
            counter.segment_probe(probes)
        return self._first_live(i, key)

    def _first_live(self, i, key):
        dead = self.dead
        if dead is not None:
            keys = self.keys
            while dead[i]:
                i += 1
                if i == len(keys) or keys[i] != key:
                    return -1
        return i

    def _find_linear(self, key, search_error, counter):
        lo, hi, i = self._start_probe(key, search_error)
        if lo >= hi:
            return -1
        probes = 1
        keys = self.keys
        if keys[i] < key:
            while keys[i] < key:
                i += 1
                probes += 1
                if i >= hi:
                    self._count_probes(probes, counter)
                    return -1
        else:
            while i > lo and keys[i - 1] >= key:
                i -= 1
                probes += 1
        if keys[i] == key:
            return self._first_occurrence(i, key, probes, counter)
        self._count_probes(probes, counter)
        return -1

    def _find_exponential(self, key, search_error, counter):
        lo, hi, start = self._start_probe(key, search_error)
        if lo >= hi:
            return -1
        keys = self.keys
        probes = 1
        if keys[start] == key:
            return self._first_occurrence(start, key, probes, counter)
        if keys[start] < key:
            step = 1
            while start + step < hi and keys[start + step] < key:
                probes += 1
                step *= 2
            bracket_lo = start + step // 2 + 1
            bracket_hi = min(start + step + 1, hi)
        else:
            step = 1
            while start - step >= lo and keys[start - step] > key:
                probes += 1
                step *= 2
            bracket_lo = max(start - step, lo)
            bracket_hi = start - step // 2
        if counter is not None:
            counter.segment_probe(probes)
            counter.segment_binary_search(max(0, bracket_hi - bracket_lo))
        i = bracket_lo + int(
            np.searchsorted(keys[bracket_lo:bracket_hi], key, side="left")
        )
        if i < bracket_hi and keys[i] == key:
            return self._first_occurrence(i, key, 0, counter)
        return -1


VALUE = st.one_of(
    st.floats(-1e300, 1e300),
    st.floats(-1e3, 1e3),
    st.integers(-50, 50).map(float),
    st.sampled_from([0.0, -0.0, 1e300, -1e300]),
)
RUNS = st.lists(st.tuples(VALUE, st.integers(1, 5)), min_size=1, max_size=60)


@st.composite
def sorted_keys(draw):
    """Scattered values, or a near-linear grid (long segments, so windows
    sit inside the page), each value repeated into a duplicate run."""
    if draw(st.booleans()):
        values = [v for v, r in draw(RUNS) for _ in range(r)]
    else:
        scale = draw(st.sampled_from([1.0, 1e-3, 1e290]))
        step = draw(st.floats(0.5, 4.0)) * scale
        base = draw(st.floats(-1e3, 1e3)) * scale
        reps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=300))
        jitter = draw(st.floats(0.0, 0.4))
        values = [
            base + step * (i + jitter * ((i * 7919) % 5 - 2) / 2)
            for i, r in enumerate(reps)
            for _ in range(r)
        ]
    return np.sort(np.asarray(values, dtype=np.float64))


@st.composite
def pages(draw):
    """A live page and its reference twin, sharing keys and tombstones,
    plus the search error to probe with."""
    keys = draw(sorted_keys())
    error = draw(st.sampled_from([1.0, 2.0, 4.0, 16.0]))
    tree = FITingTree(keys, error=error, buffer_capacity=0)
    src = draw(st.sampled_from(list(tree.pages())))
    slope = draw(st.sampled_from([src.slope, 0.0]))
    search_error = draw(st.sampled_from([tree.page_search_error, math.inf]))
    live = SegmentPage(src.start_key, slope, src.keys, src.values)
    ref = ReferencePage(src.start_key, slope, src.keys, src.values)
    n = len(src.keys)
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)):
        live.delete_at_data(i)
        ref.delete_at_data(i)
    # A restored page's deletions outnumber its tombstones.
    extra = draw(st.integers(0, 3))
    live.deletions += extra
    ref.deletions += extra
    return live, ref, search_error


def probes(draw, keys):
    """Keys on the page, between its keys, around it and far away."""
    k = keys.tolist()
    near = [np.nextafter(x, d) for x in k for d in (-np.inf, np.inf)]
    mids = [(a + b) / 2 for a, b in zip(k, k[1:])]
    around = [k[0] - 1.0, k[-1] + 1.0, 0.0, -0.0, 1e300, -1e300, 1.7e308]
    pool = k + [float(x) for x in near] + mids + around
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40)) + [
        draw(VALUE)
    ]


def counts(counter):
    return tuple(getattr(counter, name) for name in COUNTS)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_window_and_every_search_mode_match_the_reference(data):
    live, ref, error = data.draw(pages())
    for key in probes(data.draw, live.keys):
        predicted = (key - live.start_key) * live.slope
        if not math.isfinite(predicted):
            # The reference raised here; the window is empty and misses.
            assert live.window(key, error) == (0, 0), key
            for mode in MODES:
                assert live.find_in_data(key, error, mode=mode) == -1
            continue
        assert live.window(key, error) == ref.window(key, error), key
        for mode in MODES:
            got, want = AccessCounter(), AccessCounter()
            assert live.find_in_data(key, error, got, mode) == (
                ref.find_in_data(key, error, want, mode)
            ), (key, mode)
            assert counts(got) == counts(want), (key, mode)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_iter_items_is_a_sorted_merge_of_live_data_and_buffer(data):
    live, _ref, _error = data.draw(pages())
    for j, key in enumerate(probes(data.draw, live.keys)[:12]):
        live.insert_into_buffer(key, 10_000 + j)
    # Sorted by key; on ties data before buffer, each in its own order.
    keys, values = live.live_arrays()
    rows = [(k, 0, i, v) for i, (k, v) in enumerate(zip(keys.tolist(),
                                                       values.tolist()))]
    rows += [(k, 1, i, v) for i, (k, v) in enumerate(zip(live.buf_keys,
                                                        live.buf_values))]
    merged = [(k, v) for k, _, _, v in sorted(rows, key=lambda r: r[:3])]
    for lo in [None] + probes(data.draw, live.keys):
        got = list(live.iter_items(lo))
        want = [(k, v) for k, v in merged if lo is None or k >= lo]
        assert all(type(k) is float for k, _ in got)
        assert [(repr(k), int(v)) for k, v in got] == [
            (repr(k), v) for k, v in want
        ], lo


def test_an_index_pickles_and_copies_with_its_key_views_rebuilt():
    """A memoryview does not pickle: each page rebuilds its own over the
    keys it restores, so the copy searches its own arrays."""
    tree = FITingTree(np.arange(2000.0), error=16.0)
    tree.insert(10.5, 7)
    tree.delete(20.0)
    for twin in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree)):
        twin.validate()
        for page, orig in zip(twin.pages(), tree.pages()):
            assert page.key_view.obj is page.keys is not orig.keys
        assert [twin.get(k, -1) for k in (10.5, 20.0, 1999.0)] == [7, -1, 1999]
        assert list(twin.items()) == list(tree.items())
