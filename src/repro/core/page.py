"""SegmentPage: the mutable table page behind one FITing-Tree segment.

A clustered FITing-Tree stores one :class:`SegmentPage` per segment: the
sorted key slice (plus aligned values), the fitted slope for interpolation
search, and the paper's fixed-size sorted insert buffer (Section 5). The
page enforces the bounded-search contract:

* lookups probe only ``[predicted - e, predicted + e]`` in the data array
  (``e`` = segmentation error, widened by 1 per deletion since the last
  rebuild) plus the whole buffer;
* inserts go to the buffer; the owning index merges and re-segments when
  the buffer reaches capacity;
* a data delete never moves the data: it marks the row dead in a per-page
  tombstone mask, every reader skips dead rows, and the rebuild the owning
  index forces after ``buffer_capacity`` deletions compacts them away. Live
  rows keep their positions, so the window widening matters only for pages
  restored from a snapshot, which ships live rows only (a restored page's
  rows did shift).

The scalar searches read the data keys through one memoryview built with
the page (:attr:`SegmentPage.key_view`), so a probe of the window is a
C-level ``bisect`` over Python floats with no NumPy call, and the window
itself is float arithmetic. The view is safe because a page's ``keys``
array is never reassigned or written once the page exists. Tombstones
are read the same way, through :attr:`SegmentPage.dead_view`. Keys are
finite: every build and insert verb refuses NaN and ±inf
(:func:`check_finite`), and the window of a non-finite prediction is
empty, so a read or delete of such a key misses.

The insert buffer is two C arrays, not two lists of boxed scalars:
``buf_keys`` is an ``array.array("d")``, and ``buf_values`` is an
``array.array`` in the page's values dtype whenever ``array`` holds that
dtype exactly — a native-order integer or float dtype whose ``char`` is an
``array`` typecode of the same itemsize (int64, uint64, int32, float64,
float32, …; :func:`buffer_typecode` decides). Any other dtype (object,
bool, str, datetime, float16, complex, a non-native byte order) keeps its
values in a list. The scalar verbs ``bisect``, insert and delete on the
arrays as they did on lists, and a typed buffer refuses a payload its
typecode cannot take at insert time. Every bulk reader copies: a NumPy
view of a buffer would make the page's next insert or delete raise
``BufferError`` (an ``array.array`` cannot resize while it exports its
memory), so buffers are read through ``np.array`` copies and
:func:`export_buffers`' joins only.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import chain
from math import ceil, floor, inf, isfinite
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError, InvariantViolationError

__all__ = [
    "SegmentPage",
    "aligned_value_array",
    "as_value_array",
    "buffer_typecode",
    "check_finite",
    "check_sorted_finite",
    "exact_typed_array",
    "export_buffers",
    "finite_key",
    "held_value",
    "typed_values",
]


def _object_array(items: List[Any]) -> np.ndarray:
    """1-D object array holding ``items`` verbatim.

    ``np.asarray(..., dtype=object)`` recurses into sequence payloads
    (equal-length tuples become a 2-D array); filling element-wise keeps
    every payload an opaque scalar.
    """
    out = np.empty(len(items), dtype=object)
    for i, v in enumerate(items):
        out[i] = v
    return out


def as_value_array(values) -> np.ndarray:
    """Coerce a batch of payloads to a 1-D array without recursing.

    The batch-insert equivalent of handing each payload to a scalar
    ``insert``: sequence payloads (tuples, lists — even ragged ones)
    stay opaque elements of an object array instead of becoming extra
    array dimensions or a ``ValueError``.
    """
    if isinstance(values, np.ndarray):
        return values
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged sequence payloads
        return _object_array(list(values))
    if arr.ndim != 1:
        return _object_array(list(values))
    return arr


def exact_typed_array(items: np.ndarray, dtype) -> Optional[np.ndarray]:
    """``items`` as a ``dtype`` array iff the cast preserves every value.

    The rule deciding which payloads a typed index or engine stores
    (:func:`typed_values`): a payload the target dtype cannot represent
    exactly — the cast does not round-trip — yields ``None`` rather than a
    silently coerced array. NaN payloads cast to NaN count as preserved;
    a string never becomes a number, even one that parses. The round trip
    is one vectorized pass; only slots that compare unequal (NaN
    candidates) are re-examined per element.
    """
    if items.dtype.kind in "US" and dtype.kind not in "US":
        return None
    out = np.empty(len(items), dtype=dtype)
    try:
        with np.errstate(invalid="ignore", over="ignore"):  # judged below
            out[:] = items
            neq = np.asarray(out.astype(items.dtype) != items, dtype=bool)
    except (ValueError, TypeError, OverflowError):
        return None
    for i in np.flatnonzero(neq):
        a, b = out[i], items[i]
        try:
            if not (a != a and b != b):  # anything but NaN -> NaN
                return None
        except (ValueError, TypeError):
            return None
    return out


def typed_values(values: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``values`` as the array a ``dtype`` index stores, or
    :class:`InvalidParameterError` when one payload cannot be held
    exactly (:func:`exact_typed_array`). Every insert verb checks here
    before it logs or applies anything; an ``object`` index holds any
    payload, and an array already in ``dtype`` costs one comparison."""
    if values.dtype != dtype and dtype != object:
        values = exact_typed_array(values, dtype)
        if values is None:
            raise InvalidParameterError(
                f"{dtype} values cannot hold these payloads exactly"
            )
    return values


_NOT_FINITE = "keys must be finite (no NaN or ±inf)"


def check_finite(keys: np.ndarray) -> None:
    """Refuse a float64 key array holding NaN or ±inf with
    :class:`InvalidParameterError`. No search can place such a key (a NaN
    is unordered, an infinite key's prediction is not finite), so every
    build and insert verb refuses it before it logs or applies anything."""
    if not np.isfinite(keys).all():
        raise InvalidParameterError(_NOT_FINITE)


def check_sorted_finite(keys: np.ndarray) -> None:
    """:func:`check_finite` for a sorted, non-empty key array in two
    scalar comparisons: a sort puts -inf first and +inf, then NaN, last."""
    if not (-inf < keys[0] and keys[-1] < inf):
        raise InvalidParameterError(_NOT_FINITE)


def finite_key(key: Any) -> float:
    """One insert key as a float, refused like :func:`check_finite`."""
    key = float(key)
    if not isfinite(key):
        raise InvalidParameterError(_NOT_FINITE)
    return key


_INT64, _FLOAT64, _OBJECT = map(np.dtype, (np.int64, np.float64, object))


def held_value(value: Any, dtype: np.dtype) -> Any:
    """One payload as a ``dtype`` index stores it (:func:`typed_values`).
    A Python ``int`` bound for int64 or ``float`` bound for float64 — every
    row id, and the common payloads — skips the NumPy cast."""
    kind = type(value)
    if (
        (kind is int and dtype == _INT64 and -(2**63) <= value < 2**63)
        or (kind is float and dtype == _FLOAT64)
        or kind is dtype.type
        or dtype == _OBJECT
    ):
        return value
    return typed_values(_object_array([value]), dtype)[0]


def aligned_value_array(n_keys: int, values) -> np.ndarray:
    """Explicit batch payloads as a 1-D array aligned with ``n_keys`` keys.

    The shared explicit-values half of every batch resolver (the
    index's ``_resolve_batch_values`` and the engines'
    ``repro.engine.scatter.resolve_values``); the auto-rowid policies
    stay with their owners.
    """
    values = as_value_array(values)
    if len(values) != n_keys:
        raise InvalidParameterError(
            f"values length {len(values)} != keys length {n_keys}"
        )
    return values


@lru_cache(maxsize=None)
def buffer_typecode(dtype: np.dtype) -> Optional[str]:
    """The ``array`` typecode a ``dtype`` page buffers its values in, or
    ``None`` for a list: a native-order integer or float dtype whose
    ``char`` is a typecode of the same itemsize is held exactly by
    ``array``; object, bool, str, datetime, float16, complex and swapped
    byte orders are not."""
    code = dtype.char
    if (
        dtype.kind in "iuf"
        and dtype.isnative
        and code in _EMPTY
        and _EMPTY[code].itemsize == dtype.itemsize
    ):
        return code
    return None


#: One empty array per numeric typecode: a page copies its empty buffers
#: from these (a copy costs less than a constructor call, and a build
#: makes two per page).
_EMPTY = {code: array(code) for code in "bBhHiIlLqQfd"}


def export_buffers(
    pages: Sequence[SegmentPage], values_dtype: Any
) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """The insert buffers of ``pages``, concatenated in order, as aligned
    ``(keys, values)`` arrays, plus each page's buffer length.

    The read snapshot's buffer export (``paged_index.export_pages`` and
    the view update in :mod:`repro.engine.batch`), ``to_state`` and a
    rebuild's merge. Each page's keys are a C array of float64, so the
    keys export as one ``b"".join`` of every page's buffer and one copy
    into an array that owns its memory; values whose dtype the pages
    buffer in C arrays (:func:`buffer_typecode`) do the same, and list
    buffers (object, bool, str, …) take one ``np.fromiter`` pass, which
    keeps each object payload verbatim. Values are ``values_dtype``,
    which holds every buffered payload exactly (:func:`held_value`).
    """
    keys = [p.buf_keys for p in pages]
    lengths = list(map(len, keys))
    values = [p.buf_values for p in pages]
    if buffer_typecode(values_dtype) is None:
        out = np.fromiter(chain.from_iterable(values), values_dtype, sum(lengths))
    else:
        out = np.frombuffer(b"".join(values), values_dtype).copy()
    return np.frombuffer(b"".join(keys), np.float64).copy(), out, lengths


def _splice_slots(pos: np.ndarray, n_old: int) -> Tuple[np.ndarray, np.ndarray]:
    """Where ``np.insert`` puts ``new``'s rows into ``old`` at nondecreasing
    ``pos`` (a ``searchsorted`` of sorted new keys): ``new[i]`` lands in
    slot ``pos[i] + i``, and ``old`` fills the slots the mask keeps, in
    order. One placement serves every aligned array (:func:`_spliced`),
    where each ``np.insert`` would sort the positions again."""
    slots = pos + np.arange(pos.size)
    keep = np.ones(n_old + pos.size, dtype=bool)
    keep[slots] = False
    return slots, keep


def _spliced(
    old: np.ndarray, new: np.ndarray, slots: np.ndarray, keep: np.ndarray
) -> np.ndarray:
    """``old`` with ``new`` placed by :func:`_splice_slots`: two scatters."""
    out = np.empty(keep.size, dtype=old.dtype)
    out[keep] = old
    out[slots] = new
    return out


class SegmentPage:
    """One variable-sized table page: sorted data + sorted insert buffer."""

    __slots__ = (
        "start_key",
        "slope",
        "keys",
        "key_view",
        "values",
        "buf_keys",
        "buf_values",
        "deletions",
        "dead",
        "dead_view",
        "n_dead",
        "stamp",
    )

    def __init__(
        self,
        start_key: float,
        slope: float,
        keys: np.ndarray,
        values: np.ndarray,
    ) -> None:
        self.start_key = float(start_key)
        self.slope = float(slope)
        self.keys = keys
        #: ``keys`` as a memoryview: the scalar searches read Python floats
        #: from it with ``bisect`` and plain indexing, no NumPy call per
        #: probe. It cannot go stale: ``keys`` is never reassigned or
        #: written after construction (a delete sets a tombstone, a rebuild
        #: makes new pages).
        self.key_view = memoryview(keys)
        self.values = values
        #: The sorted insert buffer: C arrays (see the module doc).
        self.buf_keys: array = _EMPTY["d"].__copy__()
        code = buffer_typecode(values.dtype)
        self.buf_values = _EMPTY[code].__copy__() if code else []
        #: Data deletions since the last (re)build: the owning index
        #: rebuilds the page once they reach its buffer capacity, and each
        #: widens the search window by one slot (see the module doc).
        self.deletions = 0
        #: Tombstones aligned with ``keys`` (``None`` until the first data
        #: delete) and how many are set. ``dead_view`` is ``dead`` as a
        #: memoryview, read like :attr:`key_view`: it shares the array's
        #: buffer, so it sees every tombstone set after it was built.
        self.dead: Optional[np.ndarray] = None
        self.dead_view: Optional[memoryview] = None
        self.n_dead = 0
        #: Bumped by every mutator below. A read snapshot records the stamps
        #: it was cut from and re-exports only the pages whose stamp moved
        #: (:func:`repro.engine.batch.flat_view`).
        self.stamp = 0

    def __getstate__(self) -> dict:
        """Pickle and copy without :attr:`key_view` and :attr:`dead_view`
        (a memoryview does not pickle); :meth:`__setstate__` rebuilds them
        over the restored arrays."""
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in ("key_view", "dead_view")
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self.key_view = memoryview(self.keys)
        self.dead_view = None if self.dead is None else memoryview(self.dead)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_data(self) -> int:
        return len(self.keys) - self.n_dead

    @property
    def n_buffer(self) -> int:
        return len(self.buf_keys)

    @property
    def n_total(self) -> int:
        return self.n_data + len(self.buf_keys)

    def live_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The live data rows as ``(keys, values)`` — the page's own arrays
        while nothing is dead, compacted copies after a data delete."""
        if self.dead is None:
            return self.keys, self.values
        live = ~self.dead
        return self.keys[live], self.values[live]

    def min_key(self) -> float:
        """Smallest key on the page (data or buffer)."""
        keys, _ = self.live_arrays()
        return min(keys[:1].tolist() + self.buf_keys[:1].tolist())

    def max_key(self) -> float:
        """Largest key on the page (data or buffer)."""
        keys, _ = self.live_arrays()
        return max(keys[-1:].tolist() + self.buf_keys[-1:].tolist())

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def window(self, key: float, search_error: float) -> Tuple[int, int]:
        """The ``[lo, hi)`` data-array range interpolation search may probe:
        ``[floor(p - e), ceil(p + e)]`` around the prediction ``p`` (``e``
        widened by the deletions), clamped to the array; a prediction wholly
        outside it probes the nearest end row. A non-finite prediction (a
        NaN or infinite key, or a product that overflows) is empty: every
        data row predicts within ``n + e``. An infinite ``search_error``
        (fixed-page mode) spans the whole page."""
        n = len(self.key_view)
        p = (key - self.start_key) * self.slope
        if not isfinite(p):
            return 0, 0
        err = search_error + self.deletions
        below, above = p - err, p + err
        if below >= n:
            return (n - 1, n) if n else (0, 0)
        if above <= -1.0:
            return (0, 1) if n else (0, 0)
        return (
            floor(below) if below > 0.0 else 0,
            n if above >= n - 1 else ceil(above) + 1,
        )

    def find_in_data(
        self,
        key: float,
        search_error: float,
        counter: Any = None,
        mode: str = "binary",
    ) -> int:
        """Index of the first live occurrence of ``key`` in the data slice,
        or -1.

        Probes only the interpolation window; correctness relies on the
        segmentation error bound (every occurrence lies inside the window).
        Keys are read through :attr:`key_view`, so a probe is a C-level
        ``bisect`` over Python floats with no NumPy call: ~0.3 us against
        ~0.9 us for a NumPy search of a window slice (2-core x86 box,
        Python 3.11, NumPy 2.4). An attached ``counter`` is charged the
        paper's model of the search, which the memoryview does not change.

        ``mode`` selects the local search strategy (paper Section 4.1.2:
        "it is possible to utilize any well-known search algorithm,
        including linear search, binary search, or exponential search"):

        * ``"binary"`` — binary search over the window (the paper's default);
        * ``"linear"`` — scan outward from the predicted position; cheaper
          than binary for very small errors (the paper's remark);
        * ``"exponential"`` — gallop from the predicted position, then
          binary-search the bracket; probes scale with the *actual*
          prediction miss rather than the worst-case window.
        """
        if mode == "binary":
            lo, hi = self.window(key, search_error)
            if counter is not None:
                counter.segment_binary_search(hi - lo)
            keys = self.key_view
            i = bisect_left(keys, key, lo, hi)
            if i < hi and keys[i] == key:
                dead = self.dead_view
                if dead is None or not dead[i]:
                    return i
                return self._first_live(i, key)
            return -1
        if mode == "linear":
            return self._find_linear(key, search_error, counter)
        if mode == "exponential":
            return self._find_exponential(key, search_error, counter)
        raise InvalidParameterError(
            f"unknown search mode {mode!r}; use binary | linear | exponential"
        )

    def _start_probe(self, key: float, search_error: float) -> Tuple[int, int, int]:
        """Clamped predicted index plus the window it must stay within."""
        lo, hi = self.window(key, search_error)
        if lo >= hi:
            return lo, hi, lo
        predicted = (key - self.start_key) * self.slope
        start = int(round(predicted))
        return lo, hi, min(max(start, lo), hi - 1)

    def _first_occurrence(self, i: int, key: float, probes: int, counter: Any) -> int:
        keys = self.key_view
        while i > 0 and keys[i - 1] == key:
            i -= 1
            probes += 1
        if counter is not None:
            counter.segment_probe(probes)
        return self._first_live(i, key)

    def _first_live(self, i: int, key: float) -> int:
        """The first live slot of the run of ``key`` starting at ``i``, or
        -1 when every occurrence is dead."""
        dead = self.dead_view
        if dead is not None:
            keys = self.key_view
            while dead[i]:
                i += 1
                if i == len(keys) or keys[i] != key:
                    return -1
        return i

    def _find_linear(self, key: float, search_error: float, counter: Any) -> int:
        lo, hi, i = self._start_probe(key, search_error)
        if lo >= hi:
            return -1
        probes = 1
        keys = self.key_view
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

    def _find_exponential(
        self, key: float, search_error: float, counter: Any
    ) -> int:
        lo, hi, start = self._start_probe(key, search_error)
        if lo >= hi:
            return -1
        keys = self.key_view
        probes = 1
        if keys[start] == key:
            return self._first_occurrence(start, key, probes, counter)
        if keys[start] < key:
            # Gallop right: bracket (start + step/2, start + step].
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
        i = bisect_left(keys, key, bracket_lo, bracket_hi)
        if i < bracket_hi and keys[i] == key:
            return self._first_occurrence(i, key, 0, counter)
        return -1

    @staticmethod
    def _count_probes(probes: int, counter: Any) -> None:
        if counter is not None:
            counter.segment_probe(probes)

    def find_in_buffer(self, key: float, counter: Any = None) -> int:
        """Index of the first occurrence of ``key`` in the buffer, or -1."""
        if counter is not None:
            counter.buffer_binary_search(len(self.buf_keys))
        i = bisect_left(self.buf_keys, key)
        if i < len(self.buf_keys) and self.buf_keys[i] == key:
            return i
        return -1

    def get(
        self,
        key: float,
        search_error: float,
        counter: Any = None,
        default: Any = None,
        mode: str = "binary",
    ) -> Any:
        """Value of the first occurrence of ``key`` on this page."""
        i = self.find_in_data(key, search_error, counter, mode)
        if i >= 0:
            return self.values[i]
        j = self.find_in_buffer(key, counter)
        if j >= 0:
            return self.buf_values[j]
        return default

    def collect_matches(
        self, key: float, search_error: float, out: List[Any]
    ) -> None:
        """Append the values of *every* live occurrence of ``key`` to ``out``."""
        i = self.find_in_data(key, search_error)
        if i >= 0:
            keys, dead = self.key_view, self.dead_view
            n = len(keys)
            while i < n and keys[i] == key:
                if dead is None or not dead[i]:
                    out.append(self.values[i])
                i += 1
        j = self.find_in_buffer(key)
        if j >= 0:
            while j < len(self.buf_keys) and self.buf_keys[j] == key:
                out.append(self.buf_values[j])
                j += 1

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert_into_buffer(self, key: float, value: Any, counter: Any = None) -> None:
        """Insert ``key -> value`` into the sorted buffer (paper Section 5)."""
        i = bisect_left(self.buf_keys, key)
        if counter is not None:
            counter.buffer_binary_search(len(self.buf_keys))
            counter.data_move(len(self.buf_keys) - i)
        # The value first: a typed buffer refuses what its typecode cannot
        # take, and then neither array has moved.
        self.buf_values.insert(i, value)
        self.buf_keys.insert(i, key)
        self.stamp += 1

    def bulk_insert(self, keys, values) -> None:
        """Sort-merge a whole sorted batch into the buffer in one pass.

        ``keys`` must be sorted ascending (float64-coercible); ``values``
        is an aligned array. The resulting buffer is exactly what a
        loop of :meth:`insert_into_buffer` over the batch (in the given
        order) produces — including the subtlety that repeated
        ``bisect_left`` insertion stacks equal keys in *reverse* arrival
        order, ahead of previously buffered equals — but costs one
        ``searchsorted`` plus one splice instead of a bisect-and-shift per
        key: a fixed per-call cost of a few NumPy passes, so the owning
        index sends only dense chunks here and inserts a sparse one key by
        key (``repro.core.paged_index.BATCH_CROSSOVER``). No access
        counter is charged: the paper's access model lives on the scalar
        verbs.
        """
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        n_new = keys.size
        if n_new == 0:
            return
        self.stamp += 1
        # The permutation reversing each run of equal keys (the
        # bisect_left tie order).
        idx = np.arange(n_new, dtype=np.int64)
        if n_new > 1:
            run_starts = np.flatnonzero(np.diff(keys) != 0) + 1
            bounds = np.concatenate(([0], run_starts, [n_new]))
            run_id = np.zeros(n_new, dtype=np.int64)
            run_id[run_starts] = 1
            np.cumsum(run_id, out=run_id)
            order = bounds[run_id] + bounds[run_id + 1] - 1 - idx
        else:
            order = np.zeros(1, dtype=np.int64)
        reordered = values[order]

        if not self.buf_keys:
            self.fill_buffer(keys, reordered)
            return
        buf_k = np.array(self.buf_keys)
        slots, keep = _splice_slots(buf_k.searchsorted(keys), buf_k.size)
        if self.buf_values_typecode is None:
            # Scatter values around the splice points; buffers are bounded
            # by the owner's capacity, so these list passes stay tiny.
            merged: Any = [None] * keep.size
            for p, v in zip(np.flatnonzero(keep).tolist(), self.buf_values):
                merged[p] = v
            for p, v in zip(slots.tolist(), reordered):
                merged[p] = v
        else:
            merged = _spliced(
                np.array(self.buf_values), self._typed(reordered), slots, keep
            )
        self.fill_buffer(_spliced(buf_k, keys, slots, keep), merged)

    @property
    def buf_values_typecode(self) -> Optional[str]:
        """``buf_values``' typecode, ``None`` while it is a list."""
        buf = self.buf_values
        return None if type(buf) is list else buf.typecode

    def _typed(self, values: np.ndarray) -> np.ndarray:
        """``values`` in the dtype of this page's typed buffer. A payload
        of another dtype passes through ``array`` first, which refuses
        what its typecode cannot take, as a scalar insert does."""
        dtype = self.values.dtype
        if values.dtype == dtype:
            return values
        return np.array(array(self.buf_values.typecode, values.tolist()), dtype)

    def fill_buffer(self, keys: np.ndarray, values) -> None:
        """Replace the buffer with sorted ``keys`` (float64) and aligned
        ``values``: an array, or a list for a list buffer. A typed buffer
        takes each array's bytes."""
        self.buf_keys = array("d", np.asarray(keys, np.float64).tobytes())
        code = self.buf_values_typecode
        if code is None:
            self.buf_values = list(values)
        else:
            self.buf_values = array(code, self._typed(values).tobytes())

    def delete_at_data(self, i: int) -> Any:
        """Tombstone live data row ``i`` and return its value.

        Nothing moves, so no ``data_move`` is charged; the deletion still
        counts toward the rebuild that compacts the page.
        """
        value = self.values[i]
        self._kill(i, 1)
        return value

    def _kill(self, slots, n: int) -> None:
        """Mark the ``n`` data rows ``slots`` (an index or an index array)
        dead."""
        if self.dead is None:
            self.dead = np.zeros(len(self.keys), dtype=bool)
            self.dead_view = memoryview(self.dead)
        self.dead[slots] = True
        self.n_dead += n
        self.deletions += n
        self.stamp += 1

    def delete_at_buffer(self, i: int, counter: Any = None) -> Any:
        """Remove buffer entry ``i``; charges the list shift like inserts do."""
        value = self.buf_values[i]
        if counter is not None:
            counter.data_move(len(self.buf_keys) - i - 1)
        del self.buf_keys[i]
        del self.buf_values[i]
        self.stamp += 1
        return value

    def bulk_delete(
        self, keys, max_data: Optional[int] = None
    ) -> Tuple[int, List[Any]]:
        """Delete one occurrence per requested key in one vectorized pass.

        ``keys`` must be sorted ascending (float64-coercible); each element
        is one deletion request. Requests are satisfied exactly as a loop
        of scalar deletes over the batch would satisfy them on this page:
        for every key, buffered occurrences go first (leftmost first), then
        live data occurrences (leftmost first, each tombstoned). The pass
        stops early at the first request with no remaining occurrence on
        this page — the owning index resolves it through the scalar
        multi-page fallback — or once ``max_data`` data deletions have been
        applied (the index's rebuild-budget chunking, mirroring
        ``insert_batch``'s capacity-aware chunking). All surviving removals
        are applied with one buffer rebuild plus one tombstone pass
        (data) instead of one shift per key. Like :meth:`bulk_insert` this
        costs per call, not per key, so the owning index uses it for dense
        chunks only. No access counter is charged (see :meth:`bulk_insert`).

        Parameters
        ----------
        keys:
            Sorted deletion requests (duplicates delete multiple
            occurrences).
        max_data:
            Inclusive cap on data deletions this call may apply; ``None``
            means unbounded.

        Returns
        -------
        tuple
            ``(n_applied, values)`` — the number of leading requests
            satisfied and their deleted values in request order.
        """
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        n = keys.size
        if n == 0:
            return 0, []
        # Per-request run decomposition (as in bulk_insert): run_id names
        # each request's distinct key, ``within`` its rank in that run.
        idx = np.arange(n, dtype=np.int64)
        if n > 1:
            run_starts = np.flatnonzero(np.diff(keys) != 0) + 1
            bounds = np.concatenate(([0], run_starts, [n]))
            run_id = np.zeros(n, dtype=np.int64)
            run_id[run_starts] = 1
            np.cumsum(run_id, out=run_id)
        else:
            bounds = np.asarray([0, 1], dtype=np.int64)
            run_id = np.zeros(1, dtype=np.int64)
        within = idx - bounds[run_id]
        uk = keys[bounds[:-1]]
        counts = np.diff(bounds)

        buf_k = np.array(self.buf_keys)
        b_lo = np.searchsorted(buf_k, uk, side="left")
        b_avail = np.searchsorted(buf_k, uk, side="right") - b_lo
        # Data positions are ranks among the live rows, mapped back to
        # slots of ``keys`` once the removals are chosen.
        live = None if self.dead is None else np.flatnonzero(~self.dead)
        live_keys = self.keys if live is None else self.keys[live]
        d_lo = np.searchsorted(live_keys, uk, side="left")
        d_avail = np.searchsorted(live_keys, uk, side="right") - d_lo
        take_b = np.minimum(counts, b_avail)
        take_d = np.minimum(counts - take_b, d_avail)

        is_buf = within < take_b[run_id]
        is_data = ~is_buf & (within < (take_b + take_d)[run_id])
        # Stop at the first request this page cannot satisfy, then at the
        # data-removal budget (the request that exhausts it is included,
        # exactly where the scalar loop triggers the rebuild).
        satisfied = is_buf | is_data
        n_applied = int(np.argmin(satisfied)) if not satisfied.all() else n
        if max_data is not None:
            data_rank = np.cumsum(is_data[:n_applied])
            over = np.flatnonzero(data_rank >= max_data)
            if over.size:
                n_applied = int(over[0]) + 1
        if n_applied == 0:
            return 0, []
        self.stamp += 1

        is_buf = is_buf[:n_applied]
        is_data = is_data[:n_applied]
        # Original-array positions of each removal; deleting them in one
        # pass equals the scalar one-at-a-time removals.
        buf_req = np.flatnonzero(is_buf)
        data_req = np.flatnonzero(is_data)
        buf_pos = (b_lo[run_id] + within)[buf_req]
        data_pos = (d_lo[run_id] + within - take_b[run_id])[data_req]
        if live is not None:
            data_pos = live[data_pos]

        values: List[Any] = [None] * n_applied
        for t, p in zip(buf_req.tolist(), buf_pos.tolist()):
            values[t] = self.buf_values[p]
        for t, p in zip(data_req.tolist(), data_pos.tolist()):
            values[t] = self.values[p]

        if buf_pos.size:
            keep = np.ones(buf_k.size, dtype=bool)
            keep[buf_pos] = False
            if self.buf_values_typecode is None:
                left: Any = [v for v, f in zip(self.buf_values, keep) if f]
            else:
                left = np.array(self.buf_values)[keep]
            self.fill_buffer(buf_k[keep], left)
        if data_pos.size:
            self._kill(data_pos, data_pos.size)
        return n_applied, values

    def merged_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Live data and buffer merged into one sorted (keys, values) pair
        (what a rebuild re-segments, dropping the tombstoned rows)."""
        keys, values = self.live_arrays()
        if not self.buf_keys:
            return keys, values
        buf_k, buf_v, _ = export_buffers([self], self.values.dtype)
        # A buffered key lands before the data rows equal to it.
        slots, keep = _splice_slots(
            np.searchsorted(keys, buf_k, side="left"), keys.size
        )
        return (
            _spliced(keys, buf_k, slots, keep),
            _spliced(values, buf_v, slots, keep),
        )

    # ------------------------------------------------------------------
    # Iteration and validation
    # ------------------------------------------------------------------

    def iter_items(
        self, lo: Optional[float] = None
    ) -> Iterator[Tuple[float, Any]]:
        """Yield ``(key, value)`` pairs of data+buffer in sorted key order.

        With ``lo`` set, iteration starts at the first key ``>= lo`` (the
        skip uses binary search, so range scans do not pay for the part of
        the page below the range).
        """
        keys, values = self.key_view, self.values
        buf_keys, buf_values = self.buf_keys, self.buf_values
        if lo is None:
            di = bi = 0
        else:
            di = bisect_left(keys, lo)
            bi = bisect_left(buf_keys, lo)
        if self.dead is not None:  # drop the tombstones from ``di`` on
            live = ~self.dead[di:]
            keys = memoryview(self.keys[di:][live])
            values, di = values[di:][live], 0
        nd, nb = len(keys), len(buf_keys)
        while di < nd and bi < nb:
            if keys[di] <= buf_keys[bi]:
                yield keys[di], values[di]
                di += 1
            else:
                yield buf_keys[bi], buf_values[bi]
                bi += 1
        # At most one side is left.
        yield from zip(keys[di:], values[di:])
        yield from zip(buf_keys[bi:], buf_values[bi:])

    def range_arrays(
        self, lo: float, hi: float, include_lo: bool, include_hi: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The live rows with ``lo <= key <= hi`` (a bound exclusive when
        its flag is off) as ``(keys, values)`` arrays, in exactly the order
        :meth:`iter_items` yields them: a buffered key after the data rows
        holding it. Both bounds are floats (``±inf`` for an open end).

        The data rows are one slice found by two ``bisect`` s over
        :attr:`key_view`, so a wide range costs a C-level copy, not a
        Python step per row; buffered rows in range are merged in with one
        ``searchsorted``.
        """
        keys, buf_keys = self.key_view, self.buf_keys
        first = bisect_left if include_lo else bisect_right
        last = bisect_right if include_hi else bisect_left
        a, c = first(keys, lo), first(buf_keys, lo)
        b, d = max(a, last(keys, hi)), max(c, last(buf_keys, hi))
        data_keys, data_values = self.keys[a:b], self.values[a:b]
        if self.dead is not None:
            live = ~self.dead[a:b]
            data_keys, data_values = data_keys[live], data_values[live]
        if c == d:
            return data_keys, data_values
        # The slices are copies, so the views below pin no page buffer.
        bk = np.frombuffer(buf_keys[c:d], np.float64)
        dtype, bv = self.values.dtype, self.buf_values[c:d]
        if type(bv) is list:
            bv = np.fromiter(bv, dtype, d - c)
        else:
            bv = np.frombuffer(bv, dtype)
        slots, keep = _splice_slots(
            data_keys.searchsorted(bk, side="right"), data_keys.size
        )
        return (
            _spliced(data_keys, bk, slots, keep),
            _spliced(data_values, bv, slots, keep),
        )

    def validate(self, search_error: float, buffer_capacity: int) -> None:
        """Check page invariants; raise :class:`InvariantViolationError`."""
        if len(self.keys) != len(self.values):
            raise InvariantViolationError("keys/values length mismatch")
        if len(self.buf_keys) != len(self.buf_values):
            raise InvariantViolationError("buffer keys/values length mismatch")
        if self.dead is not None and (
            self.dead.shape != self.keys.shape
            or int(self.dead.sum()) != self.n_dead
        ):
            raise InvariantViolationError("tombstones out of step with data")
        if np.any(self.keys[1:] < self.keys[:-1]):
            raise InvariantViolationError("page data not sorted")
        if any(a > b for a, b in zip(self.buf_keys, self.buf_keys[1:])):
            raise InvariantViolationError("page buffer not sorted")
        if buffer_capacity and len(self.buf_keys) >= buffer_capacity:
            raise InvariantViolationError("buffer at/over capacity")
        if len(self.keys):
            predicted = (self.keys - self.start_key) * self.slope
            deviation = float(
                np.max(np.abs(predicted - np.arange(len(self.keys))))
            )
            allowed = search_error + self.deletions + 1e-6
            # A NaN deviation (an infinite slope) fails too.
            if not deviation <= allowed:
                raise InvariantViolationError(
                    f"page deviation {deviation} exceeds {allowed}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SegmentPage(start={self.start_key}, n={self.n_data}, "
            f"buf={self.n_buffer}, slope={self.slope:.4g})"
        )
