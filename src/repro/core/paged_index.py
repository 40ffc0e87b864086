"""Shared machinery for paged indexes (FITing-Tree and the Fixed baseline).

Both the FITing-Tree and the paper's fixed-size-page baseline are *sparse*
indexes: a B+ tree maps the first key of each page to a page holding sorted
data plus a bounded sorted insert buffer. They differ only in

* how pages are cut from sorted data (error-bounded segmentation vs fixed
  chunks) — the :meth:`PagedIndexBase._make_pages` hook;
* how a page is searched (interpolation + bounded window vs full binary
  search) — the :attr:`PagedIndexBase.page_search_error` attribute
  (``inf`` means "binary-search the whole page");
* per-page metadata charged by the size model (24 B of start/slope/pointer
  for a FITing segment, nothing extra for a fixed page).

Keeping one implementation here preserves the paper's fairness argument —
identical tree substrate, buffering, routing and split plumbing across the
compared indexes — and keeps the subclasses tiny.

Segment tree keys are ``(start_key, seq)`` pairs: the ``seq`` float breaks
ties between pages sharing a start key (split duplicate runs) and leaves
room to splice in pages created by later re-segmentations without touching
neighbours.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.btree import BPlusTree, DEFAULT_BRANCHING
from repro.core.errors import (
    InvalidParameterError,
    KeyNotFoundError,
    NotSortedError,
)
from repro.core.page import (
    SegmentPage,
    aligned_value_array,
    exact_typed_array,
)

__all__ = ["PagedIndexBase", "export_pages"]

_INF = math.inf
#: Seq-number spacing used at bulk load / renumbering.
_SEQ_SPACING = 1024.0
#: Sentinel for "no occurrence" from page probes and ``_delete_one``.
_MISS = object()


def export_pages(pages: List[SegmentPage], values_dtype: Any) -> Dict[str, Any]:
    """``pages`` as the contiguous arrays of one read snapshot, in order.

    The body of :meth:`PagedIndexBase.flat_arrays`, shared with
    ``ShardedEngine.flat_arrays``, whose page list spans every shard: data
    values are cast to ``values_dtype`` (``object`` keeps differing shard
    dtypes lossless) and buffers export through
    :meth:`SegmentPage.buffer_arrays`.
    """
    offsets = np.zeros(len(pages) + 1, dtype=np.int64)
    np.cumsum([len(p.keys) for p in pages], out=offsets[1:])
    dead = np.zeros(int(offsets[-1]), dtype=bool)
    for page, lo in zip(pages, offsets.tolist()):
        if page.dead is not None:
            dead[lo : lo + page.dead.size] = page.dead
    bufs = [p.buffer_arrays(values_dtype) for p in pages]
    buf_offsets = np.zeros(len(pages) + 1, dtype=np.int64)
    np.cumsum([k.size for k, _ in bufs], out=buf_offsets[1:])
    no_keys = np.empty(0, dtype=np.float64)
    no_values = np.empty(0, dtype=values_dtype)
    return {
        "pages": pages,
        "stamps": [p.stamp for p in pages],
        "deletions": np.asarray([p.deletions for p in pages], dtype=np.float64),
        "offsets": offsets,
        "keys": np.concatenate([no_keys] + [p.keys for p in pages]),
        "values": np.concatenate(
            [no_values] + [p.values for p in pages], dtype=values_dtype
        ),
        "dead": dead,
        "buf_offsets": buf_offsets,
        "buf_keys": np.concatenate([no_keys] + [k for k, _ in bufs]),
        "buf_values": np.concatenate([no_values] + [v for _, v in bufs]),
    }


class PagedIndexBase:
    """Common base: B+ tree over ``(start_key, seq) -> SegmentPage``.

    Subclasses must set, before calling ``super().__init__``:

    * ``buffer_capacity`` (int, >= 0; 0 means read-only),
    * ``page_search_error`` (float; ``inf`` = binary-search whole page),
    * ``metadata_bytes_per_page`` (int, added to ``model_bytes`` per page),

    and implement ``_make_pages(keys, values) -> list[SegmentPage]``.
    """

    buffer_capacity: int
    page_search_error: float
    metadata_bytes_per_page: int

    #: Local search strategy inside pages: binary | linear | exponential
    #: (paper Section 4.1.2). Subclasses may override before super().__init__.
    search_mode: str = "binary"

    def __init__(
        self,
        keys=None,
        values=None,
        *,
        branching: int = DEFAULT_BRANCHING,
        fill: float = 1.0,
        counter: Any = None,
    ) -> None:
        self.counter = counter
        self._tree = BPlusTree(branching=branching, counter=counter)
        self._fill = fill
        self._n = 0
        self._dirty = True  # directory cache for bulk_lookup needs rebuild
        self._directory: Optional[Tuple[np.ndarray, List[SegmentPage]]] = None
        #: Monotonic mutation counter; any observer caching derived state
        #: (e.g. the flattened arrays behind ``get_batch``) compares against
        #: it to decide when to rebuild. Bumped by every write path,
        #: including buffered inserts that leave the page directory intact.
        self._version = 0
        #: Lifetime count of buffer-merge page rebuilds (Algorithm 4) —
        #: the write-amplification signal telemetry exports per shard.
        self._page_rebuilds = 0

        if keys is None:
            keys = np.empty(0, dtype=np.float64)
        keys = np.asarray(keys, dtype=np.float64)
        if keys.size > 1 and np.any(np.diff(keys) < 0):
            raise NotSortedError("build keys must be sorted ascending")

        self._auto_rowid = values is None
        if values is None:
            values = np.arange(len(keys), dtype=np.int64)
        else:
            values = np.asarray(values)
            if len(values) != len(keys):
                raise InvalidParameterError(
                    f"values length {len(values)} != keys length {len(keys)}"
                )
        self._values_dtype = values.dtype if len(values) else np.dtype(np.int64)
        self._next_rowid = len(keys)
        self._build(keys, values)

    # -- subclass hook --------------------------------------------------

    def _make_pages(
        self, keys: np.ndarray, values: np.ndarray
    ) -> List[SegmentPage]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------

    def _build(self, keys: np.ndarray, values: np.ndarray) -> None:
        self._n = len(keys)
        self._version += 1
        if self._n == 0:
            return
        pages = self._make_pages(keys, values)
        pairs = [
            ((page.start_key, i * _SEQ_SPACING), page)
            for i, page in enumerate(pages)
        ]
        self._tree.bulk_load(pairs, fill=self._fill)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def n_pages(self) -> int:
        """Number of pages currently indexed by the B+ tree."""
        return len(self._tree)

    @property
    def height(self) -> int:
        """Height of the B+ tree routing to the pages."""
        return self._tree.height

    @property
    def version(self) -> int:
        """Monotonic mutation counter (see ``__init__``)."""
        return self._version

    def model_bytes(self) -> int:
        """Modeled index size: B+ tree bytes + per-page metadata.

        Table data itself is not index overhead and is excluded, matching
        the paper's Figure 6 size axis.
        """
        return self._tree.model_bytes() + self.metadata_bytes_per_page * self.n_pages

    def pages(self) -> Iterator[SegmentPage]:
        """Yield every page in key (tree) order."""
        for _, page in self._tree.items():
            yield page

    @property
    def page_rebuilds(self) -> int:
        """Lifetime count of buffer-merge page rebuilds (Algorithm 4)."""
        return self._page_rebuilds

    def stats(self) -> Dict[str, Any]:
        """Summary statistics used by benchmarks and examples."""
        buffered = sum(page.n_buffer for page in self.pages())
        return {
            "n": self._n,
            "n_pages": self.n_pages,
            "height": self.height,
            "model_bytes": self.model_bytes(),
            "buffer_capacity": self.buffer_capacity,
            "buffered_elements": buffered,
            "page_rebuilds": self._page_rebuilds,
            "avg_page_len": (self._n / self.n_pages) if self.n_pages else 0.0,
        }

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def _page_for(
        self, key: float
    ) -> Optional[Tuple[Tuple[float, float], SegmentPage]]:
        """Tree entry of the page that owns ``key`` (the tree-search step)."""
        if len(self._tree) == 0:
            return None
        item = self._tree.floor_item((key, _INF))
        if item is None:
            # Key precedes every page: the first page owns it (inserted
            # under-min keys are buffered there too).
            item = self._tree.min_item()
        return item

    def get(self, key: float, default: Any = None) -> Any:
        """Return a value stored under ``key`` or ``default`` if absent.

        With duplicate keys any one occurrence's value is returned; use
        :meth:`lookup_all` for the complete set.
        """
        if self.counter is not None:
            self.counter.op()
        key = float(key)
        item = self._page_for(key)
        while item is not None:
            value = item[1].get(
                key, self.page_search_error, self.counter, _MISS,
                self.search_mode,
            )
            if value is not _MISS:
                return value
            # A duplicate run split across pages that start at ``key``:
            # once this page's copies are deleted the rest live before it.
            item = self._tree.lower_item(item[0]) if item[0][0] == key else None
        return default

    def __contains__(self, key: float) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def __getitem__(self, key: float) -> Any:
        sentinel = object()
        value = self.get(key, sentinel)
        if value is sentinel:
            raise KeyNotFoundError(key)
        return value

    def _pages_possibly_containing(
        self, key: float
    ) -> Iterator[Tuple[Tuple[float, float], SegmentPage]]:
        """Candidate pages for ``key``: floor page first, then preceding
        pages of a split duplicate run (start == key), plus one page before."""
        item = self._page_for(key)
        if item is None:
            return
        yield item
        tree_key = item[0]
        while True:
            prev = self._tree.lower_item(tree_key)
            if prev is None:
                return
            yield prev
            if prev[0][0] != key:
                return  # one page with start < key is enough
            tree_key = prev[0]

    def lookup_all(self, key: float) -> List[Any]:
        """Values of every occurrence of ``key`` (empty list if absent)."""
        key = float(key)
        if self.counter is not None:
            self.counter.op()
        out: List[Any] = []
        for _, page in self._pages_possibly_containing(key):
            matches: List[Any] = []
            page.collect_matches(key, self.page_search_error, matches)
            out = matches + out  # pages are visited back-to-front
        return out

    def bulk_lookup(self, queries, default: Any = None) -> List[Any]:
        """Vectorized point lookups: one value (or ``default``) per query.

        Routes all queries through a flat page directory with a single
        ``searchsorted`` instead of per-query tree descents. Results match
        :meth:`get` exactly; modeled access counts are still recorded
        (tree descents are charged at the tree's height).
        """
        queries = np.asarray(queries, dtype=np.float64)
        if len(self._tree) == 0:
            return [default] * len(queries)
        starts, pages = self._get_directory()
        page_idx = np.searchsorted(starts, queries, side="right") - 1
        np.clip(page_idx, 0, len(pages) - 1, out=page_idx)
        out: List[Any] = []
        counter = self.counter
        height = self._tree.height
        for q, pi in zip(queries.tolist(), page_idx.tolist()):
            if counter is not None:
                counter.op()
                counter.tree_nodes += height
            value = pages[pi].get(
                q, self.page_search_error, counter, _MISS, self.search_mode
            )
            while value is _MISS and pi > 0 and starts[pi] == q:  # see get
                pi -= 1
                value = pages[pi].get(
                    q, self.page_search_error, counter, _MISS, self.search_mode
                )
            out.append(default if value is _MISS else value)
        return out

    def _get_directory(self) -> Tuple[np.ndarray, List[SegmentPage]]:
        if self._dirty or self._directory is None:
            pages: List[SegmentPage] = []
            starts: List[float] = []
            for (start, _), page in self._tree.items():
                starts.append(start)
                pages.append(page)
            self._directory = (np.asarray(starts, dtype=np.float64), pages)
            self._dirty = False
        return self._directory

    def flat_arrays(self) -> Dict[str, Any]:
        """Export every page as contiguous NumPy arrays (the batch substrate).

        Pages are emitted in tree order, so the concatenated ``keys`` array
        is globally sorted and ``offsets[i]:offsets[i+1]`` is page ``i``'s
        slice of it; tombstoned rows stay in place, flagged by ``dead``.
        Buffers are concatenated the same way under ``buf_offsets`` (each
        page's buffer slice is sorted; the whole buffer array need not be).
        ``pages`` is the directory's page list the arrays were cut from,
        position for position, and ``stamps`` their stamps at export.
        Consumers must treat the result as an immutable snapshot of
        :attr:`version` — see :mod:`repro.engine.batch` for the vectorized
        read path built on it (and for how a later snapshot is derived from
        this one by re-exporting only the pages written to since).
        """
        starts, pages = self._get_directory()
        return dict(
            export_pages(pages, self._values_dtype),
            version=self._version, starts=starts,
        )

    # ------------------------------------------------------------------
    # Snapshots (in-memory serialization; the multi-process substrate)
    # ------------------------------------------------------------------

    def _snapshot_params(self) -> Dict[str, Any]:
        """Constructor kwargs reproducing this index's configuration.

        Subclass hook for :meth:`to_state`: must return keyword arguments
        such that ``type(self)(**params)`` builds an empty index with the
        same segmentation policy, buffering, search mode and tree shape.
        """
        raise NotImplementedError

    def to_state(self) -> Dict[str, Any]:
        """Export the whole index as one in-memory, process-portable dict.

        The snapshot generalizes :mod:`repro.core.serialize`'s on-disk
        format: flat NumPy arrays (concatenated page data, per-page
        boundaries, start keys, slopes, seqs, deletion counts, buffered
        entries) plus the scalar build parameters, the row-id counter and
        the monotonic :attr:`version` stamp. Only live data rows ship: a
        tombstoned page arrives compacted, and its deletion count widens
        the restored page's window over the rows that shifted.
        :meth:`from_state` rebuilds an identical index with one bulk pass —
        no re-segmentation — which is how ``repro.cluster`` ships a shard
        into a worker process.
        Only numeric (integer/float) value dtypes are supported; object
        payloads raise :class:`InvalidParameterError` (they have no
        portable flat representation).

        Returns
        -------
        dict
            Plain dict of NumPy arrays and scalars (picklable, and every
            array is contiguous). Treat it as immutable: arrays may alias
            live page data.
        """
        if self._values_dtype == np.dtype(object):
            raise InvalidParameterError(
                "object-dtype values cannot be snapshotted"
            )
        starts: List[float] = []
        seqs: List[float] = []
        slopes: List[float] = []
        lengths: List[int] = []
        deletions: List[int] = []
        data_keys: List[np.ndarray] = []
        data_values: List[np.ndarray] = []
        buf_keys: List[float] = []
        buf_values: List[Any] = []
        buf_lengths: List[int] = []
        for (start, seq), page in self._tree.items():
            keys, values = page.live_arrays()
            starts.append(start)
            seqs.append(seq)
            slopes.append(page.slope)
            lengths.append(keys.size)
            deletions.append(page.deletions)
            data_keys.append(keys)
            data_values.append(values)
            buf_lengths.append(page.n_buffer)
            buf_keys.extend(page.buf_keys)
            buf_values.extend(page.buf_values)
        dtype = self._values_dtype
        return {
            "format_version": 2,
            "index_cls": type(self).__name__,
            "params": self._snapshot_params(),
            "n": self._n,
            "auto_rowid": self._auto_rowid,
            "next_rowid": self._next_rowid,
            "values_dtype": dtype.str,
            "version": self._version,
            "starts": np.asarray(starts, dtype=np.float64),
            "seqs": np.asarray(seqs, dtype=np.float64),
            "slopes": np.asarray(slopes, dtype=np.float64),
            "lengths": np.asarray(lengths, dtype=np.int64),
            "deletions": np.asarray(deletions, dtype=np.int64),
            "data_keys": (
                np.concatenate(data_keys)
                if data_keys
                else np.empty(0, dtype=np.float64)
            ),
            "data_values": (
                np.concatenate(data_values)
                if data_values
                else np.empty(0, dtype=dtype)
            ),
            "buf_keys": np.asarray(buf_keys, dtype=np.float64),
            "buf_values": np.asarray(buf_values, dtype=dtype),
            "buf_lengths": np.asarray(buf_lengths, dtype=np.int64),
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "PagedIndexBase":
        """Rebuild an index from a :meth:`to_state` snapshot.

        The result is bit-identical to the snapshotted index: contents,
        page boundaries and slopes, buffered (unmerged) inserts,
        tree-key seq numbers, deletion-widening state, the row-id counter
        and the :attr:`version` stamp all survive. Pages own fresh array
        copies, so mutating the rebuilt index never touches the source.

        Parameters
        ----------
        state:
            A dict produced by :meth:`to_state` (of this class —
            ``state["index_cls"]`` is not re-dispatched here; see
            ``repro.core.serialize.index_from_state`` for the
            class-dispatching entry point).

        Returns
        -------
        PagedIndexBase
            A fully functional index of type ``cls``.
        """
        index = cls(**state["params"])
        index._auto_rowid = bool(state["auto_rowid"])
        index._next_rowid = int(state["next_rowid"])
        index._values_dtype = np.dtype(state["values_dtype"])

        starts = state["starts"]
        seqs = state["seqs"]
        slopes = state["slopes"]
        lengths = state["lengths"]
        deletions = state["deletions"]
        data_keys = state["data_keys"]
        data_values = state["data_values"]
        buf_keys = state["buf_keys"]
        buf_values = state["buf_values"]
        buf_lengths = state["buf_lengths"]

        pairs = []
        offset = 0
        buf_offset = 0
        for i in range(len(starts)):
            end = offset + int(lengths[i])
            page = SegmentPage(
                float(starts[i]),
                float(slopes[i]),
                data_keys[offset:end].copy(),
                data_values[offset:end].copy(),
            )
            page.deletions = int(deletions[i])
            buf_end = buf_offset + int(buf_lengths[i])
            page.buf_keys = [float(k) for k in buf_keys[buf_offset:buf_end]]
            page.buf_values = list(buf_values[buf_offset:buf_end])
            pairs.append(((float(starts[i]), float(seqs[i])), page))
            offset = end
            buf_offset = buf_end
        if pairs:
            index._tree.bulk_load(pairs, fill=index._fill)
        index._n = int(state["n"])
        index._dirty = True
        if "version" in state:
            index._version = int(state["version"])
        return index

    def get_batch(self, queries, default: Any = None) -> np.ndarray:
        """Vectorized point lookups over a flattened-array snapshot.

        Unlike :meth:`bulk_lookup` (the paper's Alg. 2 per query, charged
        to :attr:`counter`), this answers the whole batch with NumPy array
        passes and charges no counter; results match :meth:`get` exactly
        for finite queries (non-finite ones, on which :meth:`get` raises,
        miss cleanly here). The snapshot is cached and invalidated by
        :attr:`version`. Cost for K queries over P pages and n keys:
        O(K log P) routing plus one O(K log n) predecessor search and a
        bounded buffer probe (see :mod:`repro.engine.batch`), after a
        first build of O(n) and refreshes of the pages written since.

        Parameters
        ----------
        queries:
            Key batch, any array-like coercible to float64.
        default:
            Value stored in the slot of every query with no match.

        Returns
        -------
        numpy.ndarray
            One value per query: the values dtype when every query hits,
            otherwise an object array with ``default`` in the missing
            slots.
        """
        from repro.engine.batch import flat_view

        return flat_view(self).get_batch(queries, default)

    # ------------------------------------------------------------------
    # Range queries
    # ------------------------------------------------------------------

    def range_items(
        self,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Iterator[Tuple[float, Any]]:
        """Yield ``(key, value)`` with ``lo <= key <= hi`` in key order.

        Implements the paper's range strategy: locate the start with a
        point lookup, then scan sequentially across pages (Section 4.2).
        """
        if self.counter is not None:
            self.counter.op()
        if len(self._tree) == 0:
            return
        if lo is None:
            page_iter = self._tree.items()
        else:
            page_iter = self._tree.items_from_floor((float(lo), -_INF))
        for _, page in page_iter:
            for key, value in page.iter_items(lo):
                if lo is not None:
                    if key < lo or (not include_lo and key == lo):
                        continue
                if hi is not None:
                    if key > hi or (not include_hi and key == hi):
                        return
                yield key, value

    def items(self) -> Iterator[Tuple[float, Any]]:
        """Every ``(key, value)`` pair in ascending key order."""
        for _, page in self._tree.items():
            yield from page.iter_items()

    def keys(self) -> Iterator[float]:
        """Every key in ascending order (duplicates included)."""
        for k, _ in self.items():
            yield k

    # ------------------------------------------------------------------
    # Inserts
    # ------------------------------------------------------------------

    def _resolve_value(self, value: Any) -> Any:
        if value is not None:
            return value
        if self._auto_rowid:
            rowid = self._next_rowid
            self._next_rowid += 1
            return rowid
        if self._values_dtype == np.dtype(object):
            return None
        raise InvalidParameterError(
            "this index stores typed values; insert(key, value) requires "
            "an explicit value"
        )

    def _check_writable(self) -> None:
        if self.buffer_capacity == 0:
            raise InvalidParameterError(
                "index built with buffer_capacity=0 is read-only"
            )

    def insert(self, key: float, value: Any = None) -> None:
        """Insert ``key -> value`` (buffered; may trigger a page rebuild)."""
        self._check_writable()
        key = float(key)
        value = self._resolve_value(value)
        self._insert_resolved(key, value)

    def _insert_resolved(self, key: float, value: Any) -> None:
        """Apply one resolved insert (no validation)."""
        self._version += 1
        if self.counter is not None:
            self.counter.op()
        if len(self._tree) == 0:
            # Element-wise fill: np.asarray would recurse into sequence
            # payloads (e.g. a tuple value under an object dtype).
            first_value = np.empty(1, dtype=self._values_dtype)
            first_value[0] = value
            page = SegmentPage(
                key,
                0.0,
                np.asarray([key], dtype=np.float64),
                first_value,
            )
            self._tree.insert((key, 0.0), page)
            self._n = 1
            self._dirty = True
            return
        tree_key, page = self._page_for(key)  # type: ignore[misc]
        page.insert_into_buffer(key, value, self.counter)
        self._n += 1
        if page.n_buffer >= self.buffer_capacity:
            self._rebuild_page(tree_key, page)

    def _resolve_batch_values(self, keys: np.ndarray, values) -> np.ndarray:
        """Vectorized :meth:`_resolve_value`: one aligned values array.

        Auto-rowid indexes assign ids in request order (before any
        sorting), matching what :class:`repro.engine.ShardedEngine` has
        always done for batches.
        """
        if values is None:
            if self._auto_rowid:
                out = np.arange(
                    self._next_rowid,
                    self._next_rowid + keys.size,
                    dtype=np.int64,
                )
                self._next_rowid += keys.size
                return out
            if self._values_dtype == np.dtype(object):
                return np.empty(keys.size, dtype=object)
            raise InvalidParameterError(
                "this index stores typed values; insert_batch requires "
                "aligned values"
            )
        return aligned_value_array(keys.size, values)

    def insert_batch(self, keys, values=None) -> None:
        """Vectorized batch insert: group keys per page, bulk-merge each.

        The final state is identical to looping :meth:`insert` over the
        batch in stable key order (ties keep request order): each owning
        page receives its whole contiguous sub-batch through
        :meth:`SegmentPage.bulk_insert` — one ``searchsorted`` and one
        splice — sliced to the buffer's remaining room, so a chunk that
        fills the buffer triggers exactly the merge/re-segmentation a
        scalar insert would, and the remaining keys re-route against the
        new pages. There is one overflow/split decision and one
        :attr:`version` bump per mutated page instead of per key. Empty
        batches are a strict no-op. Cost for K inserts: one O(K log K)
        sort, one tree descent per touched page, and O(K + rebuilt-page
        data) merge work. Batch verbs are uncounted: no op, probe or shift
        is charged to :attr:`counter` per key, which carries the paper's
        access model for the scalar verbs only; what an attached counter
        still sees is the scalar code a batch shares (the tree's descents,
        :meth:`_rebuild_page`, :meth:`delete_batch`'s per-request
        fallback).

        Parameters
        ----------
        keys:
            Keys to insert, any order, any array-like coercible to
            float64.
        values:
            Aligned payloads; ``None`` assigns auto row ids in request
            order (auto-rowid indexes only).
        """
        self._check_writable()
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        n = keys.size
        if n == 0:
            return
        values = self._resolve_batch_values(keys, values)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        values = values[order]
        i = 0
        while i < n:
            if len(self._tree) == 0:
                # Seed the first page exactly like a scalar insert would
                # (the resolved body: the batch was already validated
                # and resolved above).
                self._insert_resolved(float(keys[i]), values[i])
                i += 1
                continue
            tree_key, page = self._page_for(float(keys[i]))
            nxt = self._tree.higher_item(tree_key)
            if nxt is None:
                j = n
            else:
                # The page owns every batch key below the next page's
                # start (keys equal to it route to the next page, exactly
                # as the floor search does).
                j = i + int(np.searchsorted(keys[i:], nxt[0][0], side="left"))
            take = min(j - i, self.buffer_capacity - page.n_buffer)
            page.bulk_insert(keys[i : i + take], values[i : i + take])
            self._n += take
            self._version += 1
            i += take
            if page.n_buffer >= self.buffer_capacity:
                self._rebuild_page(tree_key, page)

    def _rebuild_page(
        self, tree_key: Tuple[float, float], page: SegmentPage
    ) -> None:
        """Merge a page's buffer and re-partition it (Algorithm 4, l. 5-9)."""
        self._page_rebuilds += 1
        merged_keys, merged_values = page.merged_arrays()
        if self.counter is not None:
            self.counter.split()
            self.counter.data_move(len(merged_keys))
        if len(merged_keys) == 0:
            self._tree.delete(tree_key)
            self._dirty = True
            return
        new_pages = self._make_pages(merged_keys, merged_values)
        self._replace_page(tree_key, new_pages)

    def _replace_page(
        self, tree_key: Tuple[float, float], new_pages: List[SegmentPage]
    ) -> None:
        succ = self._tree.higher_item(tree_key)
        self._tree.delete(tree_key)
        self._dirty = True
        if not new_pages:
            return
        base_seq = tree_key[1]
        if succ is None:
            step = _SEQ_SPACING
        else:
            step = (succ[0][1] - base_seq) / (len(new_pages) + 1)
            if step <= 1e-9:
                seq_of = self._renumber()
                succ_seq = seq_of[id(succ[1])]
                base_seq = succ_seq - _SEQ_SPACING
                step = _SEQ_SPACING / (len(new_pages) + 1)
        for i, page in enumerate(new_pages):
            seq = base_seq if i == 0 else base_seq + i * step
            self._tree.insert((page.start_key, seq), page)

    def _renumber(self) -> Dict[int, float]:
        """Re-space all page seq numbers; returns ``id(page) -> seq``."""
        items = list(self._tree.items())
        self._tree.clear()
        seq_of: Dict[int, float] = {}
        pairs = []
        for i, ((start, _), page) in enumerate(items):
            seq = i * _SEQ_SPACING
            seq_of[id(page)] = seq
            pairs.append(((start, seq), page))
        self._tree.bulk_load(pairs, fill=self._fill)
        self._dirty = True
        return seq_of

    # ------------------------------------------------------------------
    # Deletes (extension; the paper does not cover deletion)
    # ------------------------------------------------------------------

    def _delete_one(self, key: float) -> Any:
        """Remove one occurrence of ``key``; ``_MISS`` when absent.

        The scalar delete path (and the batch path's multi-page fallback
        for requests the owning floor page cannot satisfy — split
        duplicate runs and under-min keys). Charges exactly one logical
        op plus the searches it actually performs.
        """
        key = float(key)
        if self.counter is not None:
            self.counter.op()
        for tree_key, page in self._pages_possibly_containing(key):
            j = page.find_in_buffer(key, self.counter)
            if j >= 0:
                self._version += 1
                value = page.delete_at_buffer(j, self.counter)
                self._n -= 1
                if page.n_total == 0:
                    self._tree.delete(tree_key)
                    self._dirty = True
                return value
            i = page.find_in_data(key, self.page_search_error, self.counter)
            if i >= 0:
                self._version += 1
                value = page.delete_at_data(i)
                self._n -= 1
                if page.n_total == 0:
                    self._tree.delete(tree_key)
                    self._dirty = True
                elif page.deletions >= self.buffer_capacity:
                    self._rebuild_page(tree_key, page)
                return value
        return _MISS

    def delete(self, key: float) -> Any:
        """Remove one occurrence of ``key``; returns its value.

        Buffered occurrences are removed directly; data occurrences are
        tombstoned in place. After ``buffer_capacity`` deletions the page
        is rebuilt (compacting the tombstones), so the user-facing error
        bound never degrades. Charges :attr:`counter` one op plus its
        buffer search and window search (and a buffer delete's shift).
        """
        self._check_writable()
        key = float(key)
        value = self._delete_one(key)
        if value is _MISS:
            raise KeyNotFoundError(key)
        return value

    def delete_batch(
        self, keys, *, missing: str = "raise", default: Any = None
    ) -> np.ndarray:
        """Vectorized batch delete: group keys per page, bulk-delete each.

        The final state matches looping :meth:`delete` over the batch in
        stable key order (ties keep request order): each owning page
        removes its whole contiguous sub-batch through
        :meth:`SegmentPage.bulk_delete` — one buffer rebuild plus one
        tombstone pass — chunked to the page's remaining
        deletion-widening budget, so a chunk that drives ``deletions`` to
        ``buffer_capacity`` triggers exactly the rebuild a scalar delete
        would, and the remaining keys re-route against the new pages.
        Requests the floor page cannot satisfy (split duplicate runs,
        under-min keys, absent keys) fall back to the scalar multi-page
        path one request at a time, preserving scalar semantics. Like
        every batch verb this charges :attr:`counter` nothing of its own
        (see :meth:`insert_batch`). Empty batches are a strict no-op. Cost
        for K deletes: one O(K log K) sort, one tree descent per touched
        page, and one tombstone pass per mutated page instead of one per
        key.

        Parameters
        ----------
        keys:
            Keys to delete, any order, any array-like coercible to
            float64; each element removes one occurrence.
        missing:
            ``"raise"`` (default) raises :class:`KeyNotFoundError` at the
            first request with no remaining occurrence, leaving prior
            removals applied — exactly where the scalar loop would raise.
            ``"ignore"`` records a miss and continues.
        default:
            Value filling the miss slots under ``missing="ignore"``.

        Returns
        -------
        numpy.ndarray
            One deleted value per request, in request order: the values
            dtype when every request hit, else an object array with
            ``default`` in the miss slots (the :meth:`get_batch`
            convention).
        """
        self._check_writable()
        if missing not in ("raise", "ignore"):
            raise InvalidParameterError(
                f"missing must be 'raise' or 'ignore', got {missing!r}"
            )
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        n = keys.size
        if n == 0:
            return np.empty(0, dtype=self._values_dtype)
        order = np.argsort(keys, kind="stable")
        skeys = keys[order]
        values: List[Any] = [default] * n
        found = np.zeros(n, dtype=bool)
        #: Whether any deleted value came from an insert buffer (a plain
        #: Python list that may hold payloads the values dtype cannot
        #: represent); data-array values are exact by construction.
        saw_buffer = False
        i = 0
        while i < n:
            applied = 0
            if len(self._tree):
                tree_key, page = self._page_for(float(skeys[i]))
                nxt = self._tree.higher_item(tree_key)
                if nxt is None:
                    j = n
                else:
                    j = i + int(
                        np.searchsorted(skeys[i:], nxt[0][0], side="left")
                    )
                budget = (
                    self.buffer_capacity - page.deletions
                    if self.buffer_capacity
                    else None
                )
                applied, vals, n_data = page.bulk_delete(skeys[i:j], budget)
                if applied > n_data:
                    saw_buffer = True
                if applied:
                    values[i : i + applied] = vals
                    found[i : i + applied] = True
                    self._n -= applied
                    self._version += 1
                    i += applied
                    if page.n_total == 0:
                        self._tree.delete(tree_key)
                        self._dirty = True
                    elif (
                        self.buffer_capacity
                        and page.deletions >= self.buffer_capacity
                    ):
                        self._rebuild_page(tree_key, page)
                    continue
            # The floor page holds no (further) occurrence of skeys[i]:
            # resolve this one request through the scalar multi-page path.
            value = self._delete_one(float(skeys[i]))
            if value is not _MISS:
                values[i] = value
                found[i] = True
                saw_buffer = True  # the fallback may reach buffers
            elif missing == "raise":
                raise KeyNotFoundError(float(skeys[i]))
            i += 1

        out = np.empty(n, dtype=object)
        out[order] = values
        if bool(found.all()) and self._values_dtype != np.dtype(object):
            if not saw_buffer:
                # Every value came straight off a typed data array:
                # exact by construction, no per-value verification.
                typed = np.empty(n, dtype=self._values_dtype)
                typed[:] = out
                return typed
            typed = exact_typed_array(out, self._values_dtype)
            if typed is not None:
                return typed
        return out

    def delete_value(self, key: float, value: Any) -> bool:
        """Remove the occurrence of ``key`` whose payload equals ``value``.

        Needed when duplicates carry distinct payloads (e.g. row ids in a
        secondary index, or distinct strings sharing an encoded prefix in
        :class:`repro.core.strings.StringFITingTree`). Returns True if an
        occurrence was removed, False if no (key, value) match exists.
        """
        self._check_writable()
        key = float(key)
        if self.counter is not None:
            self.counter.op()
        for tree_key, page in self._pages_possibly_containing(key):
            j = page.find_in_buffer(key, self.counter)
            while 0 <= j < len(page.buf_keys) and page.buf_keys[j] == key:
                if page.buf_values[j] == value:
                    self._version += 1
                    page.delete_at_buffer(j, self.counter)
                    self._n -= 1
                    if page.n_total == 0:
                        self._tree.delete(tree_key)
                        self._dirty = True
                    return True
                j += 1
            i = page.find_in_data(key, self.page_search_error, self.counter)
            while 0 <= i < len(page.keys) and page.keys[i] == key:
                live = page.dead is None or not page.dead[i]
                if live and page.values[i] == value:
                    self._version += 1
                    page.delete_at_data(i)
                    self._n -= 1
                    if page.n_total == 0:
                        self._tree.delete(tree_key)
                        self._dirty = True
                    elif page.deletions >= self.buffer_capacity:
                        self._rebuild_page(tree_key, page)
                    return True
                i += 1
        return False

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check the whole index: tree structure, page invariants, routing."""
        self._tree.validate()
        total = 0
        prev_start = None
        for (start, _seq), page in self._tree.items():
            if page.start_key != start:
                raise InvalidParameterError(
                    f"tree key {start} != page start {page.start_key}"
                )
            page.validate(self.page_search_error, self.buffer_capacity)
            if prev_start is not None and start < prev_start:
                raise InvalidParameterError("page starts out of order")
            prev_start = start
            total += page.n_total
        if total != self._n:
            raise InvalidParameterError(
                f"element count mismatch: pages={total} cached={self._n}"
            )
