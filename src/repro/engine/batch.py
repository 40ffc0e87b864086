"""Array-native batch read path over a paged index's flattened snapshot.

A :class:`FlatView` freezes one paged index — a
:class:`~repro.core.paged_index.PagedIndexBase`, or a
:class:`~repro.engine.ShardedEngine`, whose page list is every shard's
pages in key order — into contiguous NumPy arrays (via ``flat_arrays``):
per-page start keys, deletion counts and offsets, plus the concatenation of
every page's sorted data (globally sorted, since pages are emitted in key
order) with its tombstone mask, and of every page's insert buffer. Values
and buffered values share the index's one values dtype, which refuses any
payload it cannot hold exactly, so a view never needs an object
fallback. A batch
of K point lookups then costs a handful of whole-batch array passes instead
of K independent B+-tree descents:

1. **route** — one ``np.searchsorted`` over the page start keys finds every
   query's owning page (the predecessor pass);
2. **search** — one ``np.searchsorted`` over the globally sorted data,
   ``O(K log n)``, finds every query's leftmost slot, clamped into its
   routed page, and steps past the tombstoned slots of its run;
3. **buffer probe** — queries that miss in the data run one lock-step
   bounded binary search (`_bounded_leftmost`) over their page's buffer
   slice, at most ``buffer_capacity`` wide;
4. **walk back** — a query that misses on a page starting at its own key
   retries on the page before, as scalar ``get`` does: a duplicate run
   split across pages keeps there the copies its last page lost.

This is not the paper's Alg. 2 vectorised. Interpolating every query into
its ±error window and resolving the windows in lock step is ``O(K log
error)`` on paper; in NumPy it took 149 µs against 99 µs for the one
C-level search on a 256-key batch over 250 k uniform keys (and won, 353 µs
against 541 µs, at 1024 keys over 1 M), and it only ever ran when a counter
was attached, which no serving path does — so it is gone. Alg. 2 is the
scalar ``FITingTree.get`` / ``bulk_lookup``; those carry the access counter
the paper's figures and cost model read, and the batch verbs carry none.

Results are exactly those of per-key ``PagedIndexBase.get`` for every
finite query — the pinned equivalence tests cover duplicates, misses,
buffered inserts and deletes. Non-finite queries (NaN, ±inf), which the
scalar path cannot evaluate at all (it raises inside
``SegmentPage.window``), are answered as clean misses.

Views are immutable snapshots, cached on the index and keyed by its
monotonic ``version`` counter (see :func:`flat_view`). A write costs the
next read only the pages it touched: a delete marks, a rebuild compacts;
the engine reads one view. Every ``SegmentPage`` mutator bumps its page's
``stamp``, and a view records the stamps it was cut from. As long as the
page directory is the one the view was cut from, the next read derives the
new view from the old one and re-exports only the pages whose stamp moved.
Under an unchanged directory no data row moves — inserts go to buffers and
data deletes set tombstones — so the new view shares ``keys``/``values``/
``offsets`` and the per-page routing arrays with the old one by identity
and re-splices just the small buffer arrays (plus, after a data delete,
the deletion counts and a copy of the ``dead`` mask). Only a directory
change (page rebuild — where tombstones are compacted —, split or removal)
pays the full ``flat_arrays`` export. Stamps are read, never cleared, so
any number of views over the same pages (a shard's own and its engine's)
each stay current. Every array a view exposes is read-only, because
consecutive snapshots share them: a held view keeps answering the state it
was taken at.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.engine.scatter import fill_default

__all__ = ["FlatView", "flat_view"]


def _bounded_leftmost(
    keys: np.ndarray, q: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Leftmost insertion point of each ``q[i]`` within ``keys[lo[i]:hi[i]]``.

    A lock-step vectorized binary search: every iteration halves all still-
    active windows at once, so a whole batch resolves in
    ``ceil(log2(max window))`` array passes. ``keys`` must be non-empty;
    ``lo``/``hi`` are only rebound locally (never mutated), so callers may
    pass their own arrays.
    """
    active = lo < hi
    while active.any():
        mid = (lo + hi) >> 1
        km = keys[np.where(active, mid, 0)]
        less = active & (km < q)
        lo = np.where(less, mid + 1, lo)
        hi = np.where(active & ~less, mid, hi)
        active = lo < hi
    return lo


_ARRAY_FIELDS = (
    "starts",
    "route_starts",
    "deletions",
    "offsets",
    "keys",
    "values",
    "dead",
    "buf_offsets",
    "buf_keys",
    "buf_values",
)


class FlatView:
    """Immutable flattened snapshot of one paged index (see module doc)."""

    __slots__ = ("version", "pages", "stamps") + _ARRAY_FIELDS

    def __init__(self, arrays: Dict[str, Any]) -> None:
        self.version = arrays["version"]
        #: The page list these arrays were cut from and each page's stamp
        #: at that moment: what lets :func:`flat_view` derive the next
        #: snapshot from this one.
        self.pages = arrays.get("pages")
        self.stamps = arrays.get("stamps")
        self.starts = arrays["starts"]
        #: Routing keys for the predecessor pass. Usually the page starts
        #: themselves; an engine's view lowers each later shard's first
        #: entry to the shard's cut so under-shard-min queries route into
        #: the shard that buffers them (mirroring scalar engine routing).
        self.route_starts = arrays.get("route_starts", arrays["starts"])
        self.deletions = arrays["deletions"]
        self.offsets = arrays["offsets"]
        self.keys = arrays["keys"]
        self.values = arrays["values"]
        #: Tombstones aligned with ``keys``: rows deleted since their
        #: page's last rebuild, skipped by every read.
        self.dead = arrays["dead"]
        self.buf_offsets = arrays["buf_offsets"]
        self.buf_keys = arrays["buf_keys"]
        self.buf_values = arrays["buf_values"]
        # Snapshots share arrays with their successors, so an in-place
        # write must raise, not leak.
        for name in _ARRAY_FIELDS:
            getattr(self, name).flags.writeable = False

    # ------------------------------------------------------------------

    def nbytes_owned(self) -> int:
        """Bytes of array memory this view *owns*, for residency accounting.

        Slices borrowing another array's buffer count zero, and an array
        held under two names (``route_starts`` aliasing ``starts``) counts
        once.
        """
        seen = set()
        total = 0
        for name in self.__slots__:
            arr = getattr(self, name, None)
            if (
                isinstance(arr, np.ndarray)
                and arr.base is None
                and id(arr) not in seen
            ):
                seen.add(id(arr))
                total += arr.nbytes
        return total

    @property
    def n_pages(self) -> int:
        """Number of pages frozen into this snapshot."""
        return self.starts.size

    # ------------------------------------------------------------------
    # Point lookups
    # ------------------------------------------------------------------

    def get_batch(self, queries, default: Any = None) -> np.ndarray:
        """One value per query, exactly matching per-key ``index.get``
        (finite queries; non-finite ones miss cleanly — see module doc).

        Parameters
        ----------
        queries:
            Key batch, any array-like coercible to float64.
        default:
            Value placed in the slot of every query with no match.

        Returns
        -------
        numpy.ndarray
            :meth:`lookup_batch`'s values when every query hits;
            otherwise an object array with ``default`` filling the misses.
        """
        return fill_default(*self.lookup_batch(queries), default)

    def lookup_batch(self, queries) -> Tuple[np.ndarray, np.ndarray]:
        """Per query, its value and whether it hit: ``(values, found)``.

        The hits are exactly per-key ``index.get``'s answers (finite
        queries; non-finite ones miss cleanly — see module doc); a miss's
        value slot is unspecified. Cost for K queries: O(K log n_pages)
        routing, one O(K log n) predecessor search over the globally
        sorted data and a bounded buffer probe for the misses, all
        whole-batch NumPy operations. No access counter is charged (see
        module doc).
        """
        q = np.ascontiguousarray(queries, dtype=np.float64)
        if self.n_pages == 0:
            return (
                np.empty(q.size, dtype=self.values.dtype),
                np.zeros(q.size, dtype=bool),
            )
        pi = self.route_starts.searchsorted(q, side="right") - 1
        np.maximum(pi, 0, out=pi)
        slot, found = self._search_data(q, pi)
        if self.keys.size:
            out = self.values[slot]
        else:
            out = np.empty(q.size, dtype=self.values.dtype)
        if bool(found.all()):
            return out, found

        miss = np.flatnonzero(~found)
        while True:
            if self.buf_keys.size:
                slot, hit = self._search_buffers(q[miss], pi[miss])
                if hit.any():
                    out[miss[hit]] = self.buf_values[slot[hit]]
                    found[miss[hit]] = True
                    miss = miss[~hit]
            # Walk back (see module doc).
            miss = miss[(pi[miss] > 0) & (self.starts[pi[miss]] == q[miss])]
            if not miss.size:
                break
            pi[miss] -= 1
            slot, hit = self._search_data(q[miss], pi[miss])
            out[miss[hit]] = self.values[slot[hit]]
            found[miss[hit]] = True
            miss = miss[~hit]
        return out, found

    def _search_data(
        self, q: np.ndarray, pi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per query, the slot of its first live occurrence in page ``pi``'s
        data and whether there is one (the slot is clamped in range)."""
        nd = self.keys.size
        if not nd:
            return np.zeros(q.size, dtype=np.int64), np.zeros(q.size, dtype=bool)
        # The concatenated data is globally sorted, and any present key
        # provably lives in its routed page (pages partition the sorted key
        # space), so one C-level predecessor search answers the whole
        # batch. Leftmost-in-page position = max(global leftmost, page
        # start), which is exactly the occurrence the scalar window search
        # returns; from there, step past tombstones.
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
        """Per query, the slot of its first occurrence in page ``pi``'s
        buffer and whether there is one (needs a non-empty buffer array)."""
        blo = self.buf_offsets[pi]
        bhi = self.buf_offsets[pi + 1]
        non_finite = ~np.isfinite(q)
        if non_finite.any():  # unanswerable queries skip buffers too
            blo = np.where(non_finite, 0, blo)
            bhi = np.where(non_finite, 0, bhi)
        pos = _bounded_leftmost(self.buf_keys, q, blo, bhi)
        slot = np.minimum(pos, self.buf_keys.size - 1)
        return slot, (pos < bhi) & (self.buf_keys[slot] == q)

    # ------------------------------------------------------------------
    # Range queries
    # ------------------------------------------------------------------

    def range_arrays(
        self,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """All live ``(keys, values)`` with ``lo <= key <= hi``, in exactly
        the order ``PagedIndexBase.range_items`` yields them.

        Data rows come from one slice of the globally sorted concatenated
        array, tombstones dropped. Buffers concatenated in page order are
        globally sorted too (a page buffers only keys routed to it), so
        the in-range buffered rows are one slice as well; each is placed
        after the data rows with a smaller key and those with its key on
        its own page or an earlier one — the scalar page-by-page merge
        order, including duplicate runs that span pages.
        """
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


def _span(
    arr: np.ndarray,
    lo: Optional[float],
    hi: Optional[float],
    include_lo: bool,
    include_hi: bool,
) -> Tuple[int, int]:
    """The ``[a, b)`` slice of sorted ``arr`` inside the range bounds."""
    a = 0
    b = arr.size
    if lo is not None:
        a = int(arr.searchsorted(lo, side="left" if include_lo else "right"))
    if hi is not None:
        b = int(arr.searchsorted(hi, side="right" if include_hi else "left"))
    return a, max(a, b)


def _splice(
    old: np.ndarray,
    offsets: np.ndarray,
    stale: Sequence[int],
    parts: Sequence[np.ndarray],
) -> np.ndarray:
    """``old`` with each stale page's window replaced by its new part;
    the runs of current pages in between are windows of ``old``."""
    pieces = []
    prev = 0
    for i, part in zip(stale, parts):
        pieces.append(old[offsets[prev] : offsets[i]])
        pieces.append(part)
        prev = i + 1
    pieces.append(old[offsets[prev] :])
    return np.concatenate(pieces)


def _reoffset(
    offsets: np.ndarray, stale: Sequence[int], lengths: Sequence[int]
) -> np.ndarray:
    """``offsets`` after the stale pages changed to ``lengths``."""
    out = offsets.copy()
    for i, n in zip(stale, lengths):
        out[i + 1 :] += n - (offsets[i + 1] - offsets[i])
    return out


def _updated(old: FlatView, version: Any) -> Tuple[FlatView, int]:
    """The snapshot at ``version``, derived from ``old`` over the same
    page directory.

    Bit-identical to a full ``flat_arrays`` export (dtype, shape and
    content of every field). Returns the view and how many pages it
    re-exported.
    """
    pages = old.pages
    stale = [
        i for i, (page, stamp) in enumerate(zip(pages, old.stamps))
        if page.stamp != stamp
    ]
    arrays = {name: getattr(old, name) for name in _ARRAY_FIELDS}
    arrays.update(version=version, pages=pages, stamps=list(old.stamps))
    if stale:
        bufs = [pages[i].buffer_arrays(old.values.dtype) for i in stale]
        arrays["buf_keys"] = _splice(
            old.buf_keys, old.buf_offsets, stale, [k for k, _ in bufs]
        )
        arrays["buf_values"] = _splice(
            old.buf_values, old.buf_offsets, stale, [v for _, v in bufs]
        )
        arrays["buf_offsets"] = _reoffset(
            old.buf_offsets, stale, [k.size for k, _ in bufs]
        )
        for i in stale:
            arrays["stamps"][i] = pages[i].stamp
    # Data rows never move under an unchanged directory: a data delete
    # only sets tombstones, and each one bumps ``deletions``.
    data = [i for i in stale if pages[i].deletions != old.deletions[i]]
    if data:
        dead = old.dead.copy()
        for i in data:
            dead[old.offsets[i] : old.offsets[i + 1]] = pages[i].dead
        deletions = old.deletions.copy()
        deletions[data] = [pages[i].deletions for i in data]
        arrays.update(dead=dead, deletions=deletions)
    return FlatView(arrays), len(stale)


def flat_view(index: Any, stats: Optional[Dict[str, int]] = None) -> FlatView:
    """The index's cached :class:`FlatView`, brought up to date when stale.

    ``index`` is anything with a monotonic ``version``, a
    ``_get_directory()`` returning ``(starts, pages)`` and a
    ``flat_arrays()`` export of those pages: a paged index, or a
    ``ShardedEngine`` over all its shards. The cache key is ``version``, so
    buffered inserts, deletes and page rebuilds all invalidate it. A stale
    view whose page directory still stands is updated from the pages
    written to since (:func:`_updated`); a changed directory takes the
    full ``flat_arrays`` export. ``stats`` (a
    dict with ``"view_hits"``/``"view_builds"``) lets callers — the
    engine's cache-hit-rate stat — observe reuse without a second API; a
    caller that also keeps ``"view_patches"`` / ``"view_full_rebuilds"``
    entries gets each build counted as an update or a full export, and one
    that keeps ``"view_pages_exported"`` gets the pages re-exported per
    build summed into it (read-cache write amplification).
    """
    cached = getattr(index, "_flat_view_cache", None)
    version = index.version
    if cached is not None and cached.version == version:
        if stats is not None:
            stats["view_hits"] = stats.get("view_hits", 0) + 1
        return cached
    if cached is not None and cached.pages is index._get_directory()[1]:
        view, n_exported = _updated(cached, version)
        event = "view_patches"
    else:
        view = FlatView(index.flat_arrays())
        n_exported = view.n_pages
        event = "view_full_rebuilds"
    index._flat_view_cache = view
    if stats is not None:
        stats["view_builds"] = stats.get("view_builds", 0) + 1
        for name, n in ((event, 1), ("view_pages_exported", n_exported)):
            if name in stats:
                stats[name] += n
    return view
