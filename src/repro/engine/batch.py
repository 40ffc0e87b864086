"""Array-native batch read path over a paged index's flattened snapshot.

A :class:`FlatView` freezes one paged index — a
:class:`~repro.core.paged_index.PagedIndexBase`, or a
:class:`~repro.engine.ShardedEngine`, whose page list is every shard's
pages in key order — into contiguous NumPy arrays (via ``flat_arrays``):
per-page start keys, deletion counts and offsets, plus the concatenation of
every page's sorted data (globally sorted, since pages are emitted in key
order) with its tombstone mask, and of every page's insert buffer (sorted
too: a page buffers only keys routed to it). Values and buffered values
share the index's one values dtype, which refuses any payload it cannot
hold exactly, so a view never needs an object fallback. A batch of K point
lookups then costs a handful of whole-batch array passes instead of K
independent B+-tree descents. The queries are argsorted once, steps 1-4
run on the sorted needles — each search then walks its array front to
back, so consecutive probes share cache lines instead of each missing
(``get_batch`` of 1 024 random keys over 1 M: 686-710 µs in request
order, 421-436 µs sorted, 2-core x86 box) — and ``(values, found)`` is
scattered back to request order:

1. **route** — one ``np.searchsorted`` over the page start keys finds every
   query's owning page (the predecessor pass);
2. **search** — one ``np.searchsorted`` over the globally sorted data,
   ``O(K log n)``, finds every query's leftmost slot, clamped into its
   routed page, and steps past the tombstoned slots of its run;
3. **buffer probe** — queries that miss in the data run the same clamped
   ``np.searchsorted`` over the globally sorted buffers;
4. **walk back** — a query that misses on a page starting at its own key
   retries on the page before, as scalar ``get`` does: a duplicate run
   split across pages keeps there the copies its last page lost.

A batch of range scans is found in one pass too
(:meth:`FlatView.range_batch`): one ``searchsorted`` per bound side over
the data and one over the buffers find every row's slices, one gather
copies every row's live data out, and one placement merges every row's
buffered keys into it. A scalar range is the one-row case.

This is not the paper's Alg. 2 vectorised. Interpolating every query into
its ±error window and resolving the windows in lock step is ``O(K log
error)`` on paper; in NumPy it took 149 µs against 99 µs for the one
C-level search on a 256-key batch over 250 k uniform keys (and won, 353 µs
against 541 µs, at 1024 keys over 1 M), and it only ever ran when a counter
was attached, which no serving path does — so it is gone. Alg. 2 is the
scalar ``FITingTree.get`` / ``bulk_lookup``; those carry the access counter
the paper's figures and cost model read, and the batch verbs carry none.

Results are exactly those of per-key ``PagedIndexBase.get`` for every
query — the pinned equivalence tests cover duplicates, misses, buffered
inserts and deletes. A non-finite query (NaN, ±inf) is a clean miss on
both paths: no index stores such a key, and the scalar window search is
empty for a non-finite prediction.

Views are immutable snapshots, cached on the index and keyed by its
monotonic ``version`` counter (see :func:`flat_view`). Whoever reads a
stale view brings it up to date: every ``PagedIndexBase.get_batch``, and
on a ``ShardedEngine`` only a read big enough to pay for it. A smaller
one — at most :data:`READ_CROSSOVER` pages, decided by
:func:`read_view` — is answered from the pages by the paper's per-page
search and leaves the view stale, so the update waits for the next big
read, and the writes in between cost it once: each stale page
re-exports once however often it was written. A write costs the
next read only the pages it touched: a delete marks, a rebuild compacts;
the engine reads one view. Every ``SegmentPage`` mutator bumps its page's
``stamp``, and a view records the page list and the stamps it was cut
from, so the next read derives the new view from the old one and
re-exports only the pages whose stamp moved: their buffers in one bulk
pass (:func:`~repro.core.page.export_buffers`: a page buffers its keys,
and numeric values, in C arrays, so the export is one ``b"".join`` of
their bytes per array, not a Python step per row), placed among the old
rows by one gather. Under an unchanged directory no data row moves — inserts go
to buffers and data deletes set tombstones — so the new view shares
``keys``/``values``/``offsets`` and the per-page routing arrays with the
old one by identity, and its gather spans only the pages from the first
stale one to the last (after a data delete it also copies the ``dead``
mask and the deletion counts). A directory change (page rebuild — where
tombstones are compacted —, split or removal) splices the data: every page
the old view holds keeps its rows, and only the pages new to the directory
export theirs; the O(n) copy stays, the per-page export does not. Only an
index with no cached view pays the full ``flat_arrays`` export. Stamps are
read, never cleared, so any number of views over the same pages (a
shard's own and its engine's) each stay current. Every array a view
exposes is read-only, because consecutive snapshots share them: a held
view keeps answering the state it was taken at.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.core.page import export_buffers
from repro.engine.scatter import fill_default

__all__ = ["READ_CROSSOVER", "FlatView", "flat_view", "read_view"]

#: A read touching at most this many pages is answered from the pages when
#: the index's cached view is stale, and leaves the view stale
#: (:func:`read_view`); a larger one brings the view up to date and reads
#: it. A get batch touches one page per key, a range the pages its bounds
#: span. The read-side twin of ``repro.core.paged_index.BATCH_CROSSOVER``.
#: Measured on a 2-core x86 box (Python 3.11, NumPy 2.4), 4 shards over
#: 250 k uniform keys, error 64 (the table is in ROADMAP.md, item 2(a)):
#: K keys from the pages cost ~1.6 K us; from the view ~15-18 us up to 64
#: keys when it is current, ~65-70 us after one stale page, ~0.9-1.7 ms
#: after a page rebuild. At 64 the page path loses ~30 us to the cheapest
#: update and wins ~1.5 ms against a rebuild, which is where a stale view
#: after a write batch usually is.
READ_CROSSOVER = 64


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
            getattr(self, name).setflags(write=False)

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
        (a non-finite query misses — see module doc).

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

        The hits are exactly per-key ``index.get``'s answers (a
        non-finite query misses — see module doc); a miss's
        value slot is unspecified. Cost for K queries: one O(K log K)
        argsort, then O(K log n_pages) routing, one O(K log n) predecessor
        search over the globally sorted data and one over the buffers for
        the misses, all whole-batch NumPy operations on the sorted
        needles, and one scatter back to request order. No access counter
        is charged (see module doc).
        """
        q = np.ascontiguousarray(queries, dtype=np.float64)
        if self.n_pages == 0:
            return (
                np.empty(q.size, dtype=self.values.dtype),
                np.zeros(q.size, dtype=bool),
            )
        # Sorted needles walk every array below front to back, so each
        # search and gather touches the cache lines its predecessor did.
        order = q.argsort()
        out, found = self._lookup_sorted(q[order])
        values = np.empty_like(out)
        hit = np.empty_like(found)
        values[order] = out
        hit[order] = found
        return values, hit

    def _lookup_sorted(self, q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`lookup_batch` over ascending queries, in their order."""
        pi = self.route_starts.searchsorted(q, side="right") - 1
        np.maximum(pi, 0, out=pi)
        slot, found = self._search_data(q, pi)
        if self.keys.size:
            out = self.values[slot]
        else:
            out = np.empty(q.size, dtype=self.values.dtype)
        if np.count_nonzero(found) == found.size:
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
        buffer and whether there is one (needs a non-empty buffer array).
        The concatenated buffers are globally sorted, so this is
        :meth:`_search_data`'s clamped search; non-finite queries miss."""
        pos = self.buf_keys.searchsorted(q, side="left")
        np.maximum(pos, self.buf_offsets[pi], out=pos)
        slot = np.minimum(pos, self.buf_keys.size - 1)
        hit = (pos < self.buf_offsets[pi + 1]) & (self.buf_keys[slot] == q)
        return slot, hit & np.isfinite(q)

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
        """All live ``(keys, values)`` with ``lo <= key <= hi`` (``None`` is
        open): :meth:`range_batch`'s one-row case."""
        lo = -np.inf if lo is None else lo
        hi = np.inf if hi is None else hi
        return self.range_batch([(lo, hi)], include_lo, include_hi)[0]

    def range_batch(
        self, bounds, include_lo: bool = True, include_hi: bool = True
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Every live row inside each ``[lo, hi]`` row of ``bounds``.

        :meth:`range_rows`' rows, split per bounds row.

        Parameters
        ----------
        bounds, include_lo, include_hi:
            As for :meth:`range_rows`.

        Returns
        -------
        list of (numpy.ndarray, numpy.ndarray)
            Per bounds row, its live ``(keys, values)`` in exactly the
            order ``PagedIndexBase.range_items`` yields them, as writeable
            arrays that share no memory with the view.
        """
        ends, keys, values = self.range_rows(bounds, include_lo, include_hi)
        cuts = ends.tolist()
        return [
            (keys[i:j], values[i:j]) for i, j in zip([0] + cuts[:-1], cuts)
        ]

    def range_rows(
        self, bounds, include_lo: bool = True, include_hi: bool = True
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every live row inside each ``[lo, hi]`` row of ``bounds``, as
        one keys array and one values array with each bounds row's end.

        Every bound is found at once: one ``searchsorted`` per side over
        the globally sorted data and one over the buffers, which
        concatenated in page order are globally sorted too (a page buffers
        only keys routed to it). Every row's data then comes from one
        gather, tombstones dropped. A buffered row is placed after the
        data rows with a smaller key and those with its key on its own
        page or an earlier one — the scalar page-by-page merge order,
        including duplicate runs that span pages.

        Parameters
        ----------
        bounds:
            ``(n, 2)`` array-like of ``[lo, hi]`` key bounds; ``±inf`` is
            open. A NaN bound raises :class:`InvalidParameterError`.
        include_lo, include_hi:
            Bound inclusivity, applied to every row.

        Returns
        -------
        (numpy.ndarray, numpy.ndarray, numpy.ndarray)
            ``(ends, keys, values)``: bounds row ``i``'s live rows are
            ``keys[ends[i-1]:ends[i]]`` (from 0 for the first), in exactly
            the order ``PagedIndexBase.range_items`` yields them;
            ``keys`` and ``values`` are writeable arrays that share no
            memory with the view.
        """
        bounds = np.asarray(bounds, dtype=np.float64).reshape(-1, 2)
        if np.isnan(bounds).any():
            raise InvalidParameterError("a range bound cannot be NaN")
        sides = (
            "left" if include_lo else "right",
            "right" if include_hi else "left",
        )
        a, b = _spans(self.keys, bounds, *sides)
        rows, ends = _runs(a, b)
        live = ~self.dead[rows]
        rank = None  # live data rows before each gathered one
        if not live.all():
            rank = np.zeros(rows.size + 1, dtype=np.int64)
            np.cumsum(live, out=rank[1:])
            rows = rows[live]
        keys, values = self.keys[rows], self.values[rows]
        c, d = _spans(self.buf_keys, bounds, *sides)
        brows, bends = _runs(c, d)
        if brows.size:
            bk = self.buf_keys[brows]
            next_page = self.buf_offsets.searchsorted(brows, side="right")
            at = np.minimum(
                self.offsets[next_page], self.keys.searchsorted(bk, "right")
            )
            np.maximum(at, self.keys.searchsorted(bk, "left"), out=at)
            at += np.repeat(ends - b, d - c)  # into the gathered rows
            if rank is not None:
                at = rank[at]  # ranks among the live rows
            at += np.arange(at.size)  # slots in the merged output
            is_data = np.ones(keys.size + at.size, dtype=bool)
            is_data[at] = False
            out_keys = np.empty(is_data.size, dtype=keys.dtype)
            out_values = np.empty(is_data.size, dtype=values.dtype)
            out_keys[is_data], out_keys[at] = keys, bk
            out_values[is_data] = values
            out_values[at] = self.buf_values[brows]
            keys, values = out_keys, out_values
        if rank is not None:
            ends = rank[ends]
        return ends + bends, keys, values


def _spans(
    arr: np.ndarray, bounds: np.ndarray, lo_side: str, hi_side: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Per bounds row, the ``[a, b)`` slice of sorted ``arr`` inside it."""
    a = arr.searchsorted(bounds[:, 0], side=lo_side)
    return a, np.maximum(arr.searchsorted(bounds[:, 1], side=hi_side), a)


def _runs(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The positions ``a[i]:b[i]`` concatenated, and where each run ends."""
    n = b - a
    if n.size == 1:  # a scalar range: skip the NumPy calls that splice runs
        return np.arange(a[0], b[0]), n
    ends = n.cumsum()
    rows = np.repeat(a - ends + n, n)
    rows += np.arange(rows.size)
    return rows, ends


def _plan(src: np.ndarray, exported: Sequence[int], n: int) -> list:
    """The ``n`` new pages as pieces, in order: an int ``j`` for new page
    ``j``, exported, and ``(lo, hi)`` for old pages ``lo..hi-1`` reused as
    they stand. ``src[j]`` is new page ``j``'s old position; ``exported``
    is sorted. A reused run also ends where the old list skips."""
    edges = {0, n, *exported, *(j + 1 for j in exported)}
    edges.update((np.flatnonzero(np.diff(src) != 1) + 1).tolist())
    edges = sorted(edges)
    out = set(exported)
    return [
        a if a in out else (int(src[a]), int(src[b - 1]) + 1)
        for a, b in zip(edges, edges[1:])
    ]


def _splice(olds: Sequence[np.ndarray], offsets: np.ndarray, plan: list, parts):
    """The arrays ``olds`` (cut per page by ``offsets``), then their new
    offsets, laid out by ``plan``; ``parts[j]`` holds exported page ``j``'s
    rows of each array."""
    pieces = [[old[:0]] for old in olds]
    bounds, end = [offsets[:1]], 0
    for piece in plan:
        if type(piece) is int:
            rows = parts[piece]
            end += rows[0].size
            bounds.append(np.asarray([end], dtype=np.int64))
        else:
            lo, hi = offsets[piece[0]], offsets[piece[1]]
            rows = [old[lo:hi] for old in olds]
            bounds.append(offsets[piece[0] + 1 : piece[1] + 1] + (end - lo))
            end += int(hi - lo)
        for out, row in zip(pieces, rows):
            out.append(row)
    return [np.concatenate(p) for p in pieces + [bounds]]


def _buffers(
    old: FlatView, pages: list, src: Optional[np.ndarray], stale: list
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``buf_keys``, ``buf_values`` and ``buf_offsets`` over ``pages``: the
    ``stale`` pages' buffers in one bulk export, placed among the old rows
    by one gather. After a directory change it spans every page (a held
    one's rows found at ``src``); under an unchanged directory only those
    from the first stale page to the last, the rest staying slices."""
    exported = [pages[j] for j in stale]
    keys, values, lengths = export_buffers(exported, old.values.dtype)
    at = old.buf_offsets
    lo = at[:-1].copy() if src is None else at[src]  # each page's first row
    sizes = (at[1:] if src is None else at[src + 1]) - lo
    sizes[stale] = lengths
    a, b = (stale[0], stale[-1] + 1) if src is None else (0, len(pages))
    r0, r1 = (at.item(a), at.item(b)) if src is None else (0, at.item(-1))
    lo[stale] = list(accumulate(lengths[:-1], initial=r1))
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.add.accumulate(sizes, out=offsets[1:])
    rows = np.repeat(lo[a:b] - offsets[a:b], sizes[a:b])
    rows += np.arange(rows.size)  # into old rows r0:r1, then the exported
    q = r0 + rows.size
    out = []
    for o, e in ((old.buf_keys, keys), (old.buf_values, values)):
        arr = np.empty(offsets[-1], dtype=o.dtype)
        arr[:r0], arr[q:] = o[:r0], o[r1:]
        # "clip" only skips the bounds check; "raise" would buffer ``out``.
        np.concatenate((o[r0:r1], e)).take(rows, out=arr[r0:q], mode="clip")
        out.append(arr)
    return out[0], out[1], offsets


def _derived(old: FlatView, index: Any, version: Any) -> Tuple[FlatView, int]:
    """The snapshot at ``version``, derived from ``old``, bit-identical to
    a full ``flat_arrays`` export (dtype, shape and content of every field).

    A page the old view holds (by identity) keeps its data rows, which
    never move while it lives (a data delete only sets tombstones and
    bumps ``deletions``); one whose stamp moved re-exports its buffer and
    tombstones. Only a page new to the directory exports its data, and an
    unchanged directory keeps the old data arrays and routing keys by
    identity. Returns the view and how many pages it re-exported.
    """
    starts, pages = index._get_directory()
    n = len(pages)
    same = pages is old.pages
    if same:
        src = None
        stamps = list(old.stamps)
    else:
        at = dict(zip(map(id, old.pages), range(old.n_pages)))
        src = np.fromiter(map(at.get, map(id, pages), repeat(-1)), int, n)
        # Stamps start at 0, so a page new to the directory is stale.
        stamps = [old.stamps[i] if i >= 0 else -1 for i in src.tolist()]
    stale = [j for j in range(n) if pages[j].stamp != stamps[j]]
    for j in stale:
        stamps[j] = pages[j].stamp

    arrays = {name: getattr(old, name) for name in _ARRAY_FIELDS}
    arrays.update(version=version, pages=pages, stamps=stamps)
    if stale or not same:
        arrays["buf_keys"], arrays["buf_values"], arrays["buf_offsets"] = (
            _buffers(old, pages, src, stale)
        )
    deletions = old.deletions
    if not same:
        kept = src >= 0
        fresh = np.flatnonzero(~kept).tolist()
        rows = {
            j: (p.keys, p.values,
                np.zeros(p.keys.size, bool) if p.dead is None else p.dead)
            for j, p in ((j, pages[j]) for j in fresh)
        }
        data = (old.keys, old.values, old.dead)
        starts = np.asarray(starts, dtype=np.float64)
        arrays.update(starts=starts, route_starts=index._route_starts(starts))
        arrays["keys"], arrays["values"], arrays["dead"], arrays["offsets"] = (
            _splice(data, old.offsets, _plan(src, fresh, n), rows)
        )
        deletions = np.zeros(n)
        deletions[kept] = old.deletions[src[kept]]
        deletions[fresh] = [pages[j].deletions for j in fresh]
    # Data deletes on held pages: rows stay, tombstones and counts move.
    marked = [
        j for j in stale
        if (same or src[j] >= 0) and pages[j].deletions != deletions[j]
    ]
    if marked:
        if same:
            arrays["dead"] = old.dead.copy()
            deletions = deletions.copy()
        dead, offsets = arrays["dead"], arrays["offsets"]
        for j in marked:
            dead[offsets[j] : offsets[j + 1]] = pages[j].dead
        deletions[marked] = [pages[j].deletions for j in marked]
    arrays["deletions"] = deletions
    return FlatView(arrays), len(stale)


def flat_view(index: Any, stats: Optional[Dict[str, int]] = None) -> FlatView:
    """The index's cached :class:`FlatView`, brought up to date when stale.

    ``index`` is anything with a monotonic ``version``, a
    ``_get_directory()`` returning ``(starts, pages)`` and a
    ``flat_arrays()`` export of those pages, plus ``_route_starts`` over
    its starts: a paged index, or a ``ShardedEngine`` over all its shards.
    The cache key is ``version``, so buffered inserts, deletes and page
    rebuilds all invalidate it. A stale view is updated from the pages
    written to or brought in since (:func:`_derived`), whether or not the
    directory changed; only an index with no cached view pays the full
    ``flat_arrays`` export. ``stats`` (a
    dict with ``"view_hits"``/``"view_builds"``) lets callers — the
    engine's cache-hit-rate stat — observe reuse without a second API; a
    caller that also keeps ``"view_patches"`` / ``"view_full_rebuilds"``
    entries gets each build counted as an update or a full export, and one
    that keeps ``"view_pages_exported"`` gets the pages re-exported per
    build summed into it (read-cache write amplification).
    """
    return read_view(index, None, stats)


def read_view(
    index: Any,
    touched: Optional[Callable[[], int]],
    stats: Optional[Dict[str, int]] = None,
) -> Optional[FlatView]:
    """The view a read of ``touched()`` pages should use: :func:`flat_view`'s,
    or ``None`` when the cached view is stale (or absent) and the read
    touches at most :data:`READ_CROSSOVER` pages — the caller then answers
    from the pages and the view stays as it is, counted in ``stats`` as a
    ``"view_skips"``. ``touched`` is called only when the view is stale;
    ``None`` never skips.
    """
    cached = getattr(index, "_flat_view_cache", None)
    version = index.version
    if cached is not None and cached.version == version:
        if stats is not None:
            stats["view_hits"] = stats.get("view_hits", 0) + 1
        return cached
    if touched is not None and touched() <= READ_CROSSOVER:
        if stats is not None:
            stats["view_skips"] = stats.get("view_skips", 0) + 1
        return None
    if cached is None:
        view = FlatView(index.flat_arrays())
        n_exported = view.n_pages
        event = "view_full_rebuilds"
    else:
        view, n_exported = _derived(cached, index, version)
        event = "view_patches"
    index._flat_view_cache = view
    if stats is not None:
        stats["view_builds"] = stats.get("view_builds", 0) + 1
        for name, n in ((event, 1), ("view_pages_exported", n_exported)):
            if name in stats:
                stats[name] += n
    return view
