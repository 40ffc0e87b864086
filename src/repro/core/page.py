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
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError, InvariantViolationError

__all__ = [
    "SegmentPage",
    "aligned_value_array",
    "as_value_array",
    "exact_typed_array",
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


def exact_typed_array(items, dtype) -> Optional[np.ndarray]:
    """``items`` as a ``dtype`` array iff the cast preserves every value.

    The one lossless-cast rule shared by buffer exports
    (:meth:`SegmentPage.buffer_arrays`), worker get/delete replies and
    bulk-delete results: a payload the target dtype cannot represent
    exactly yields ``None`` (callers fall back to an object array or a
    pickled reply) rather than a silently coerced array. NaN payloads
    cast to NaN count as preserved. The comparison is one vectorized
    pass (for Python payloads, first one C-level list comparison); only
    slots that compare unequal (NaN candidates) are re-examined per
    element.
    """
    out = np.empty(len(items), dtype=dtype)
    try:
        out[:] = items
        if isinstance(items, np.ndarray) and items.dtype != np.dtype(object):
            src = items
        elif out.tolist() == list(items):
            return out
        else:
            src = _object_array(list(items))
        neq = np.asarray(out != src, dtype=bool)
    except (ValueError, TypeError, OverflowError):
        return None
    if neq.any():
        for i in np.flatnonzero(neq):
            a, b = out[i], src[i]
            try:
                if not (a != a and b != b):  # anything but NaN -> NaN
                    return None
            except (ValueError, TypeError):
                return None
    return out


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


#: The key half of every empty buffer export (shared, hence read-only).
_NO_KEYS = np.empty(0, dtype=np.float64)
_NO_KEYS.setflags(write=False)


class SegmentPage:
    """One variable-sized table page: sorted data + sorted insert buffer."""

    __slots__ = (
        "start_key",
        "slope",
        "keys",
        "values",
        "buf_keys",
        "buf_values",
        "deletions",
        "dead",
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
        self.values = values
        self.buf_keys: List[float] = []
        self.buf_values: List[Any] = []
        #: Data deletions since the last (re)build: the owning index
        #: rebuilds the page once they reach its buffer capacity, and each
        #: widens the search window by one slot (see the module doc).
        self.deletions = 0
        #: Tombstones aligned with ``keys`` (``None`` until the first data
        #: delete) and how many are set.
        self.dead: Optional[np.ndarray] = None
        self.n_dead = 0
        #: Bumped by every mutator below. A read snapshot records the stamps
        #: it was cut from and re-exports only the pages whose stamp moved
        #: (:func:`repro.engine.batch.flat_view`).
        self.stamp = 0

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
        return min(keys[:1].tolist() + self.buf_keys[:1])

    def max_key(self) -> float:
        """Largest key on the page (data or buffer)."""
        keys, _ = self.live_arrays()
        return max(keys[-1:].tolist() + self.buf_keys[-1:])

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def window(self, key: float, search_error: float) -> Tuple[int, int]:
        """The ``[lo, hi)`` data-array range interpolation search may probe."""
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
            i = lo + int(np.searchsorted(self.keys[lo:hi], key, side="left"))
            if i < hi and self.keys[i] == key:
                if self.dead is None or not self.dead[i]:
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
        while i > 0 and self.keys[i - 1] == key:
            i -= 1
            probes += 1
        if counter is not None:
            counter.segment_probe(probes)
        return self._first_live(i, key)

    def _first_live(self, i: int, key: float) -> int:
        """The first live slot of the run of ``key`` starting at ``i``, or
        -1 when every occurrence is dead."""
        dead = self.dead
        if dead is not None:
            keys = self.keys
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

    def _find_exponential(
        self, key: float, search_error: float, counter: Any
    ) -> int:
        lo, hi, start = self._start_probe(key, search_error)
        if lo >= hi:
            return -1
        keys = self.keys
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
        i = bracket_lo + int(
            np.searchsorted(keys[bracket_lo:bracket_hi], key, side="left")
        )
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
            n = len(self.keys)
            while i < n and self.keys[i] == key:
                if self.dead is None or not self.dead[i]:
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
        self.buf_keys.insert(i, key)
        self.buf_values.insert(i, value)
        self.stamp += 1

    def bulk_insert(self, keys, values) -> None:
        """Sort-merge a whole sorted batch into the buffer in one pass.

        ``keys`` must be sorted ascending (float64-coercible); ``values``
        is an aligned array-like. The resulting buffer is exactly what a
        loop of :meth:`insert_into_buffer` over the batch (in the given
        order) produces — including the subtlety that repeated
        ``bisect_left`` insertion stacks equal keys in *reverse* arrival
        order, ahead of previously buffered equals — but costs one
        ``searchsorted`` plus one splice instead of a bisect-and-shift per
        key. No access counter is charged: the paper's access model lives
        on the scalar verbs.
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
        if isinstance(values, np.ndarray):
            # list() yields the same scalars a zip over the array would.
            reordered = list(values[order])
        else:
            reordered = [values[i] for i in order.tolist()]

        b0 = len(self.buf_keys)
        if b0 == 0:
            self.buf_keys = keys.tolist()
            self.buf_values = reordered
        else:
            buf_k = np.asarray(self.buf_keys, dtype=np.float64)
            pos = np.searchsorted(buf_k, keys, side="left")
            self.buf_keys = np.insert(buf_k, pos, keys).tolist()
            # Scatter values around the splice points; buffers are bounded
            # by the owner's capacity, so these list passes stay tiny.
            tgt = pos + idx
            merged: List[Any] = [None] * (b0 + n_new)
            keep = np.ones(b0 + n_new, dtype=bool)
            keep[tgt] = False
            for p, v in zip(np.flatnonzero(keep).tolist(), self.buf_values):
                merged[p] = v
            for p, v in zip(tgt.tolist(), reordered):
                merged[p] = v
            self.buf_values = merged

    def delete_at_data(self, i: int) -> Any:
        """Tombstone live data row ``i`` and return its value.

        Nothing moves, so no ``data_move`` is charged; the deletion still
        counts toward the rebuild that compacts the page.
        """
        value = self.values[i]
        self._kill(i)
        return value

    def _kill(self, slots) -> None:
        """Mark data rows ``slots`` (an index or an index array) dead."""
        if self.dead is None:
            self.dead = np.zeros(len(self.keys), dtype=bool)
        self.dead[slots] = True
        n = int(np.size(slots))
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
    ) -> Tuple[int, List[Any], int]:
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
        are applied with one list rebuild (buffer) plus one tombstone pass
        (data) instead of one shift per key. No access counter is charged
        (see :meth:`bulk_insert`).

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
            ``(n_applied, values, n_data_deleted)`` — the number of leading
            requests satisfied, their deleted values in request order, and
            how many of them were data deletions.
        """
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        n = keys.size
        if n == 0:
            return 0, [], 0
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

        buf_k = np.asarray(self.buf_keys, dtype=np.float64)
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
            return 0, [], 0
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
            keep = np.ones(len(self.buf_keys), dtype=bool)
            keep[buf_pos] = False
            self.buf_keys = [k for k, f in zip(self.buf_keys, keep) if f]
            self.buf_values = [v for v, f in zip(self.buf_values, keep) if f]
        if data_pos.size:
            self._kill(data_pos)
        return n_applied, values, int(data_pos.size)

    def buffer_arrays(self, values_dtype=None) -> Tuple[np.ndarray, np.ndarray]:
        """The insert buffer as aligned ``(keys, values)`` NumPy arrays.

        The key array is always float64; values use ``values_dtype`` (or
        this page's data dtype) so per-page exports concatenate cleanly in
        :meth:`repro.core.paged_index.PagedIndexBase.flat_arrays`. Buffered
        payloads that the target dtype cannot represent losslessly (the
        buffer is a plain Python list, so inserts may hold anything) fall
        back to an object array — never silently coerced.
        """
        dtype = self.values.dtype if values_dtype is None else values_dtype
        if not self.buf_keys:
            # Most pages, most of the time: skip the list conversions.
            return _NO_KEYS, np.empty(0, dtype=dtype)
        keys = np.asarray(self.buf_keys, dtype=np.float64)
        if dtype == np.dtype(object):
            return keys, _object_array(self.buf_values)
        values = exact_typed_array(self.buf_values, dtype)
        if values is None:
            values = _object_array(self.buf_values)
        return keys, values

    def merged_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Live data and buffer merged into one sorted (keys, values) pair
        (what a rebuild re-segments, dropping the tombstoned rows)."""
        keys, values = self.live_arrays()
        if not self.buf_keys:
            return keys, values
        buf_k = np.asarray(self.buf_keys, dtype=keys.dtype)
        positions = np.searchsorted(keys, buf_k, side="left")
        merged_keys = np.insert(keys, positions, buf_k)
        if values.dtype == np.dtype(object):
            buf_v = _object_array(self.buf_values)
        else:
            buf_v = np.asarray(self.buf_values, dtype=values.dtype)
        merged_values = np.insert(values, positions, buf_v)
        return merged_keys, merged_values

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
        keys, values = self.keys, self.values
        if lo is None:
            di, bi = 0, 0
        else:
            di = int(np.searchsorted(keys, lo, side="left"))
            bi = bisect_left(self.buf_keys, lo)
        if self.dead is not None:  # drop the tombstones from ``di`` on
            live = ~self.dead[di:]
            keys, values, di = keys[di:][live], values[di:][live], 0
        nd, nb = len(keys), len(self.buf_keys)
        while di < nd and bi < nb:
            if keys[di] <= self.buf_keys[bi]:
                yield float(keys[di]), values[di]
                di += 1
            else:
                yield self.buf_keys[bi], self.buf_values[bi]
                bi += 1
        while di < nd:
            yield float(keys[di]), values[di]
            di += 1
        while bi < nb:
            yield self.buf_keys[bi], self.buf_values[bi]
            bi += 1

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
        if len(self.keys) and np.any(np.diff(self.keys) < 0):
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
            if deviation > allowed:
                raise InvariantViolationError(
                    f"page deviation {deviation} exceeds {allowed}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SegmentPage(start={self.start_key}, n={self.n_data}, "
            f"buf={self.n_buffer}, slope={self.slope:.4g})"
        )
