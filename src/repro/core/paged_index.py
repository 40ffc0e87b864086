"""Shared machinery for paged indexes (FITing-Tree and the Fixed baseline).

Both the FITing-Tree and the paper's fixed-size-page baseline are *sparse*
indexes: a directory maps the first key of each page to a page holding
sorted data plus a bounded sorted insert buffer. They differ only in

* how pages are cut from sorted data (error-bounded segmentation vs fixed
  chunks) — the :meth:`PagedIndexBase._make_pages` hook;
* how a page is searched (interpolation + bounded window vs full binary
  search) — the :attr:`PagedIndexBase.page_search_error` attribute
  (``inf`` means "binary-search the whole page");
* per-page metadata charged by the size model (24 B of start/slope/pointer
  for a FITing segment, nothing extra for a fixed page).

The directory is a pair of Python lists in key order: the pages' start
keys and the pages. A key routes to ``bisect_right(starts, key) - 1``.
Pages sharing a start key (a duplicate run split across pages) sit in data
order, so the page before one is simply the previous position. A split,
rebuild or emptied page replaces both lists copy-on-write (an O(pages)
pointer copy), so whoever holds the old lists — a cached read snapshot —
tells a directory change from a page update by identity.

The paper's tree over the segment start keys (Section 4) is the size and
cost model: :attr:`PagedIndexBase.height` and
:meth:`PagedIndexBase.model_bytes` are what the B+ tree of
:mod:`repro.btree`, bulk-loaded at ``branching``/``fill`` over the current
pages, measures (:func:`repro.btree.bulk_load_shape`). With an access
counter attached, every routing step the paper's algorithm takes — a
lookup, an insert, a delete, and each tree delete or insert of a rebuild —
charges ``height`` tree nodes; stepping to a neighbouring page is free.

Keeping one implementation here preserves the paper's fairness argument —
identical directory, size model, buffering, routing and split plumbing
across the compared indexes — and keeps the subclasses tiny.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.btree import DEFAULT_BRANCHING, bulk_load_shape
from repro.core.errors import (
    InvalidParameterError,
    KeyNotFoundError,
    NotSortedError,
)
from repro.core.page import (
    SegmentPage,
    aligned_value_array,
    buffer_typecode,
    check_finite,
    check_sorted_finite,
    export_buffers,
    finite_key,
    held_value,
    typed_values,
)

__all__ = ["PagedIndexBase", "check_missing", "export_pages"]

#: Sentinel for "no occurrence" from page probes and ``_delete_one``.
_MISS = object()

#: A page's share of a write batch below this many keys goes through the
#: scalar verbs' primitives (per-key cost), at or above it through
#: ``SegmentPage.bulk_insert``/``bulk_delete`` (per-call cost). Measured on
#: a 2-core x86 box (Python 3.11, NumPy 2.4), one 1 225-key page (error 64,
#: buffer 32), best of 5 x 300, three runs: deletes cost ~4-5 us a key
#: against ~50-90 us a ``bulk_delete`` call, crossing near 16 keys; inserts
#: cost ~0.3-0.5 us a key against ~20-35 us a ``bulk_insert`` call.
BATCH_CROSSOVER = 16


def check_missing(missing: str) -> None:
    """Refuse a delete policy other than ``"raise"`` or ``"ignore"`` with
    :class:`InvalidParameterError`, before anything is logged or applied."""
    if missing not in ("raise", "ignore"):
        raise InvalidParameterError(
            f"missing must be 'raise' or 'ignore', got {missing!r}"
        )


def export_pages(pages: List[SegmentPage], values_dtype: Any) -> Dict[str, Any]:
    """``pages`` as the contiguous arrays of one read snapshot, in order.

    The body of :meth:`PagedIndexBase.flat_arrays`, shared with
    ``ShardedEngine.flat_arrays``, whose page list spans every shard (all
    of one ``values_dtype``): buffers export in one :func:`export_buffers`
    pass, as a view update's do.
    """
    offsets = np.zeros(len(pages) + 1, dtype=np.int64)
    np.cumsum([len(p.keys) for p in pages], out=offsets[1:])
    dead = np.zeros(int(offsets[-1]), dtype=bool)
    for page, lo in zip(pages, offsets.tolist()):
        if page.dead is not None:
            dead[lo : lo + page.dead.size] = page.dead
    buf_keys, buf_values, lengths = export_buffers(pages, values_dtype)
    buf_offsets = np.zeros(len(pages) + 1, dtype=np.int64)
    np.cumsum(lengths, out=buf_offsets[1:])
    return {
        "pages": pages,
        "stamps": [p.stamp for p in pages],
        "deletions": np.asarray([p.deletions for p in pages], dtype=np.float64),
        "offsets": offsets,
        "keys": np.concatenate([np.empty(0)] + [p.keys for p in pages]),
        "values": np.concatenate(
            [np.empty(0, values_dtype)] + [p.values for p in pages],
            dtype=values_dtype,
        ),
        "dead": dead,
        "buf_offsets": buf_offsets,
        "buf_keys": buf_keys,
        "buf_values": buf_values,
    }


class PagedIndexBase:
    """Common base: a sorted directory of ``SegmentPage`` s by start key.

    Subclasses must set, before calling ``super().__init__``:

    * ``buffer_capacity`` (int, >= 0; 0 means read-only),
    * ``page_search_error`` (float; ``inf`` = binary-search whole page),
    * ``metadata_bytes_per_page`` (int, added to ``model_bytes`` per page),

    and implement ``_make_pages(keys, values) -> list[SegmentPage]``.
    ``branching`` and ``fill`` shape the paper's tree over the pages, which
    sizes the index and prices its routing (see the module doc).
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
        bulk_load_shape(0, branching, fill=fill)  # rejects what the tree would
        self.branching = branching
        self.fill = fill
        #: The directory: page start keys and the pages, in key order.
        #: Replaced, never mutated, when pages come or go.
        self._starts: List[float] = []
        self._pages: List[SegmentPage] = []
        self._n = 0
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
        check_finite(keys)
        if keys.size > 1 and np.any(keys[1:] < keys[:-1]):
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
        self._values_dtype = values.dtype  # fixed: see _resolve_value
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
        if self._n:
            self._set_pages(self._make_pages(keys, values))

    def _set_pages(self, pages: List[SegmentPage]) -> None:
        """Install ``pages`` (in key order) as the whole directory."""
        self._starts = [page.start_key for page in pages]
        self._pages = pages

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def n_pages(self) -> int:
        """Number of pages in the directory."""
        return len(self._pages)

    @property
    def height(self) -> int:
        """Height of the paper's tree over the pages (0 when empty)."""
        return bulk_load_shape(self.n_pages, self.branching, fill=self.fill)[0]

    @property
    def version(self) -> int:
        """Monotonic mutation counter (see ``__init__``)."""
        return self._version

    def model_bytes(self) -> int:
        """Modeled index size: the paper's tree bytes + per-page metadata.

        Table data itself is not index overhead and is excluded, matching
        the paper's Figure 6 size axis.
        """
        tree = bulk_load_shape(self.n_pages, self.branching, fill=self.fill)
        return tree[1] + self.metadata_bytes_per_page * self.n_pages

    def pages(self) -> Iterator[SegmentPage]:
        """Yield every page in key (directory) order."""
        return iter(self._pages)

    @property
    def page_rebuilds(self) -> int:
        """Lifetime count of buffer-merge page rebuilds (Algorithm 4)."""
        return self._page_rebuilds

    def stats(self) -> Dict[str, Any]:
        """Summary statistics used by benchmarks and examples."""
        buffered = sum(page.n_buffer for page in self._pages)
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
    # Routing
    # ------------------------------------------------------------------

    def _route(self, key: float) -> int:
        """Position of the page that owns ``key`` (non-empty index): the
        last one starting at or below it, else the first (inserted under-min
        keys are buffered there too)."""
        return max(bisect_right(self._starts, key) - 1, 0)

    def _charge_descents(self, times: int = 1) -> None:
        """Charge ``times`` descents of the paper's tree to the counter."""
        if self.counter is not None:
            self.counter.tree_nodes += times * self.height

    def _candidates(self, key: float) -> Iterator[int]:
        """Positions that may hold ``key``: the owning page first, then the
        preceding pages of a split duplicate run (start == key), plus one
        page before."""
        if not self._pages:
            return
        starts = self._starts
        pi = self._route(key)
        yield pi
        while pi > 0:
            pi -= 1
            yield pi
            if starts[pi] != key:
                return  # one page with start < key is enough

    def _replace(self, pi: int, new_pages: List[SegmentPage]) -> None:
        """Swap the page at ``pi`` for ``new_pages`` (none: drop it),
        copy-on-write; charged as the paper's tree would do it: one delete
        plus one insert per new page."""
        self._charge_descents(1 + len(new_pages))
        self._starts = (
            self._starts[:pi]
            + [page.start_key for page in new_pages]
            + self._starts[pi + 1 :]
        )
        self._pages = self._pages[:pi] + new_pages + self._pages[pi + 1 :]

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def get(self, key: float, default: Any = None) -> Any:
        """Return a value stored under ``key`` or ``default`` if absent.

        With duplicate keys any one occurrence's value is returned; use
        :meth:`lookup_all` for the complete set.
        """
        counter = self.counter
        if counter is not None:
            counter.op()
        key = float(key)
        starts, pages = self._starts, self._pages
        if not pages:
            return default
        if counter is not None:
            self._charge_descents()
        pi = bisect_right(starts, key) - 1  # _route, inline
        if pi < 0:
            pi = 0
        error, mode = self.page_search_error, self.search_mode
        while True:
            value = pages[pi].get(key, error, counter, _MISS, mode)
            if value is not _MISS:
                return value
            # A duplicate run split across pages that start at ``key``:
            # once this page's copies are deleted the rest live before it.
            if pi == 0 or starts[pi] != key:
                return default
            pi -= 1

    def __contains__(self, key: float) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def __getitem__(self, key: float) -> Any:
        sentinel = object()
        value = self.get(key, sentinel)
        if value is sentinel:
            raise KeyNotFoundError(key)
        return value

    def lookup_all(self, key: float) -> List[Any]:
        """Values of every occurrence of ``key`` (empty list if absent)."""
        key = float(key)
        if self.counter is not None:
            self.counter.op()
        self._charge_descents()
        out: List[Any] = []
        for pi in self._candidates(key):
            matches: List[Any] = []
            page = self._pages[pi]
            page.collect_matches(key, self.page_search_error, matches)
            out = matches + out  # pages are visited back-to-front
        return out

    def bulk_lookup(self, queries, default: Any = None) -> List[Any]:
        """The paper's point lookup per query: one value (or ``default``)
        each, answered and charged to :attr:`counter` exactly as
        :meth:`get` (see :meth:`get_batch` for the uncounted batch read)."""
        queries = np.asarray(queries, dtype=np.float64)
        return [self.get(q, default) for q in queries.tolist()]

    def _get_directory(self) -> Tuple[List[float], List[SegmentPage]]:
        """The ``(starts, pages)`` lists themselves: replaced, never mutated,
        which is how :func:`repro.engine.batch.flat_view` tells an update of
        its cached view from a full export."""
        return self._starts, self._pages

    def flat_arrays(self) -> Dict[str, Any]:
        """Export every page as contiguous NumPy arrays (the batch substrate).

        Pages are emitted in directory order, so the concatenated ``keys``
        array is globally sorted and ``offsets[i]:offsets[i+1]`` is page
        ``i``'s slice of it; tombstoned rows stay in place, flagged by
        ``dead``. Buffers are concatenated the same way under
        ``buf_offsets``, globally sorted too (a page buffers only keys
        routed to it). ``pages`` is the directory's page list the arrays
        were cut from, position for position, and ``stamps`` their
        stamps at export. Consumers must treat the result as an
        immutable snapshot of :attr:`version` — see
        :mod:`repro.engine.batch` for the vectorized read path built on it
        (and for how a later snapshot is derived from this one by
        re-exporting only the pages written to since).
        """
        starts = np.asarray(self._starts, dtype=np.float64)
        return dict(
            export_pages(self._pages, self._values_dtype),
            version=self._version,
            starts=starts,
            route_starts=self._route_starts(starts),
        )

    def _route_starts(self, starts: np.ndarray) -> np.ndarray:
        """A view's routing keys over the directory's ``starts``: the
        starts themselves (an engine lowers its shards' first ones)."""
        return starts

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
        boundaries, start keys, slopes, deletion counts, buffered entries)
        plus the scalar build parameters, the row-id counter and the
        monotonic :attr:`version` stamp. Only live data rows ship: a
        tombstoned page arrives compacted, and its deletion count widens
        the restored page's window over the rows that shifted.
        :meth:`from_state` rebuilds an identical index with one pass — no
        re-segmentation — which is how ``repro.cluster`` ships a shard
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
        pages = self._pages
        live = [page.live_arrays() for page in pages]
        dtype = self._values_dtype
        buf_keys, buf_values, buf_lengths = export_buffers(pages, dtype)
        return {
            "format_version": 2,
            "index_cls": type(self).__name__,
            "params": self._snapshot_params(),
            "n": self._n,
            "auto_rowid": self._auto_rowid,
            "next_rowid": self._next_rowid,
            "values_dtype": dtype.str,
            "version": self._version,
            "starts": np.asarray(self._starts, dtype=np.float64),
            "slopes": np.asarray([p.slope for p in pages], dtype=np.float64),
            "lengths": np.asarray([k.size for k, _ in live], dtype=np.int64),
            "deletions": np.asarray(
                [p.deletions for p in pages], dtype=np.int64
            ),
            "data_keys": (
                np.concatenate([k for k, _ in live])
                if live
                else np.empty(0, dtype=np.float64)
            ),
            "data_values": (
                np.concatenate([v for _, v in live])
                if live
                else np.empty(0, dtype=dtype)
            ),
            "buf_keys": buf_keys,
            "buf_values": buf_values,
            "buf_lengths": np.asarray(buf_lengths, dtype=np.int64),
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "PagedIndexBase":
        """Rebuild an index from a :meth:`to_state` snapshot.

        The result is bit-identical to the snapshotted index: contents,
        page boundaries and slopes, buffered (unmerged) inserts,
        deletion-widening state, the row-id counter and the
        :attr:`version` stamp all survive, and so do :attr:`height` and
        :meth:`model_bytes`, which depend only on the pages. Pages own
        fresh array copies, so mutating the rebuilt index never touches
        the source.

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

        bounds = np.cumsum(state["lengths"])[:-1]
        buf_bounds = np.cumsum(state["buf_lengths"])[:-1]
        pages = []
        for start, slope, deletions, keys, values, bkeys, bvalues in zip(
            state["starts"],
            state["slopes"],
            state["deletions"],
            np.split(state["data_keys"], bounds),
            np.split(state["data_values"], bounds),
            np.split(state["buf_keys"], buf_bounds),
            np.split(state["buf_values"], buf_bounds),
        ):
            page = SegmentPage(
                float(start), float(slope), keys.copy(), values.copy()
            )
            page.deletions = int(deletions)
            page.fill_buffer(bkeys, bvalues)
            pages.append(page)
        index._set_pages(pages)
        index._n = int(state["n"])
        if "version" in state:
            index._version = int(state["version"])
        return index

    def get_batch(self, queries, default: Any = None) -> np.ndarray:
        """Vectorized point lookups over a flattened-array snapshot.

        Unlike :meth:`bulk_lookup` (the paper's Alg. 2 per query, charged
        to :attr:`counter`), this answers the whole batch with NumPy array
        passes and charges no counter; results match :meth:`get` exactly
        (a non-finite query misses on both). The snapshot is cached and
        invalidated by :attr:`version`. Cost for K queries over P pages
        and n keys: O(K log P) routing plus one O(K log n) search over the
        data and one over the buffers (see :mod:`repro.engine.batch`),
        after a first build of O(n) and refreshes of the pages written
        since.

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
        A NaN bound raises :class:`InvalidParameterError`.
        """
        if lo != lo or hi != hi:
            raise InvalidParameterError("a range bound cannot be NaN")
        counter = self.counter
        if counter is not None:
            counter.op()
        pages = self._pages
        first = 0
        if lo is not None:
            lo = float(lo)
            if counter is not None:
                self._charge_descents()
            # The last page starting strictly below ``lo``: a duplicate run
            # of ``lo`` may begin inside it.
            first = max(bisect_left(self._starts, lo) - 1, 0)
        # Each page yields from its first key >= lo on, so per key only an
        # exclusive lo (NaN equals nothing) and the hi bound are checked.
        skip = lo if lo is not None and not include_lo else math.nan
        if hi is None:
            hi, include_hi = math.inf, True
        else:
            hi = float(hi)
        for pi in range(first, len(pages)):
            for key, value in pages[pi].iter_items(lo):
                if key >= hi and (key > hi or not include_hi):
                    return
                if key != skip:
                    yield key, value

    def items(self) -> Iterator[Tuple[float, Any]]:
        """Every ``(key, value)`` pair in ascending key order."""
        for page in self._pages:
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
            return held_value(value, self._values_dtype)
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
        """Insert ``key -> value`` (buffered; may trigger a page rebuild).

        A NaN or infinite ``key``, or a ``value`` the values dtype cannot
        hold exactly, raises :class:`InvalidParameterError` before anything
        is applied."""
        self._check_writable()
        key = finite_key(key)
        value = self._resolve_value(value)
        self._insert_resolved(key, value)

    def _insert_resolved(self, key: float, value: Any) -> None:
        """Apply one resolved insert (no validation)."""
        self._version += 1
        if self.counter is not None:
            self.counter.op()
        if not self._pages:
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
            self._set_pages([page])
            self._n = 1
            return
        self._charge_descents()
        pi = self._route(key)
        page = self._pages[pi]
        page.insert_into_buffer(key, value, self.counter)
        self._n += 1
        if page.n_buffer >= self.buffer_capacity:
            self._rebuild_page(pi)

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
        return typed_values(
            aligned_value_array(keys.size, values), self._values_dtype
        )

    def _owned_end(self, pi: int, keys: List[float], i: int) -> int:
        """End of the run of sorted ``keys`` from ``i`` that page ``pi``
        owns: every key below the next page's start (keys equal to it
        route to the next page, exactly as :meth:`_route` does). Most runs
        are one key, so the next key is compared before any bisect."""
        n = len(keys)
        if pi + 1 == len(self._pages):
            return n
        nxt = self._starts[pi + 1]
        if i + 1 == n or keys[i + 1] >= nxt:
            return i + 1
        return bisect_left(keys, nxt, i + 2)

    def insert_batch(self, keys, values=None) -> None:
        """Batch insert: group keys per page, apply each page's chunk whole.

        The final state is identical to looping :meth:`insert` over the
        batch in stable key order (ties keep request order): each owning
        page receives its whole contiguous sub-batch, sliced to the
        buffer's remaining room, so a chunk that fills the buffer triggers
        exactly the merge/re-segmentation a scalar insert would, and the
        remaining keys re-route against the new pages. A sparse chunk
        (under ``BATCH_CROSSOVER`` keys, the common case) costs per key,
        one scalar :meth:`SegmentPage.insert_into_buffer` each; a dense
        one costs per page, one :meth:`SegmentPage.bulk_insert`. There is
        one overflow/split decision and one :attr:`version` bump per
        mutated page instead of per key. Empty batches are a strict no-op.
        Cost for K inserts: one O(K log K) sort, at most one list bisect
        per touched page, and O(K + rebuilt-page data) merge work. Batch
        verbs are uncounted: no op, probe, shift or
        descent is charged to :attr:`counter` per key, which carries the
        paper's access model for the scalar verbs only; what an attached
        counter still sees is the scalar code a batch shares
        (:meth:`_rebuild_page`, seeding an empty index, and
        :meth:`delete_batch`'s per-request fallback).

        Parameters
        ----------
        keys:
            Keys to insert, any order, any array-like coercible to
            float64.
        values:
            Aligned payloads; ``None`` assigns auto row ids in request
            order (auto-rowid indexes only). A batch holding a payload the
            values dtype cannot hold exactly, or a NaN or infinite key, is
            refused whole.
        """
        self._check_writable()
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        if keys.size == 0:
            return
        order = keys.argsort(kind="stable")
        keys = keys[order]
        check_sorted_finite(keys)
        values = self._resolve_batch_values(keys, values)[order]
        self._insert_sorted(keys, values)

    def _insert_sorted(self, keys: np.ndarray, values: np.ndarray) -> None:
        """:meth:`insert_batch`'s body for a batch already sorted (stable),
        checked finite and resolved to the values dtype, aligned: the entry
        an engine or worker calls with the chunk it sorted itself."""
        n = keys.size
        # A typed buffer takes Python numbers fastest; a list buffer keeps
        # the array's own scalars, as bulk_insert stores them.
        klist = keys.tolist()
        vlist = values.tolist() if buffer_typecode(values.dtype) else list(values)
        i = 0
        while i < n:
            if not self._pages:
                # Seed the first page exactly like a scalar insert would
                # (the resolved body: the batch was already validated
                # and resolved above).
                self._insert_resolved(klist[i], vlist[i])
                i += 1
                continue
            pi = self._route(klist[i])
            page = self._pages[pi]
            j = self._owned_end(pi, klist, i)
            take = min(j - i, self.buffer_capacity - page.n_buffer)
            if take < BATCH_CROSSOVER:
                for t in range(i, i + take):
                    page.insert_into_buffer(klist[t], vlist[t])
            else:
                page.bulk_insert(keys[i : i + take], values[i : i + take])
            self._n += take
            self._version += 1
            i += take
            if page.n_buffer >= self.buffer_capacity:
                self._rebuild_page(pi)

    def _rebuild_page(self, pi: int) -> None:
        """Merge a page's buffer and re-partition it (Algorithm 4, l. 5-9)."""
        self._page_rebuilds += 1
        merged_keys, merged_values = self._pages[pi].merged_arrays()
        if self.counter is not None:
            self.counter.split()
            self.counter.data_move(len(merged_keys))
        new_pages = (
            self._make_pages(merged_keys, merged_values)
            if len(merged_keys)
            else []
        )
        self._replace(pi, new_pages)

    # ------------------------------------------------------------------
    # Deletes (extension; the paper does not cover deletion)
    # ------------------------------------------------------------------

    def _settle(self, pi: int) -> None:
        """After a delete from page ``pi``: drop it if empty, rebuild it
        once its deletions reach ``buffer_capacity``."""
        page = self._pages[pi]
        if page.n_total == 0:
            self._replace(pi, [])
        elif page.deletions >= self.buffer_capacity:
            self._rebuild_page(pi)

    def _delete_one(self, key: float) -> Any:
        """Remove one occurrence of ``key``; ``_MISS`` when absent.

        The scalar delete path (and the batch path's multi-page fallback
        for requests the owning floor page cannot satisfy — split
        duplicate runs and under-min keys). Charges exactly one logical
        op and one descent plus the searches it actually performs.
        """
        key = float(key)
        if self.counter is not None:
            self.counter.op()
        self._charge_descents()
        for pi in self._candidates(key):
            page = self._pages[pi]
            j = page.find_in_buffer(key, self.counter)
            if j >= 0:
                value = page.delete_at_buffer(j, self.counter)
            else:
                i = page.find_in_data(
                    key, self.page_search_error, self.counter
                )
                if i < 0:
                    continue
                value = page.delete_at_data(i)
            self._version += 1
            self._n -= 1
            self._settle(pi)
            return value
        return _MISS

    def delete(self, key: float) -> Any:
        """Remove one occurrence of ``key``; returns its value.

        Buffered occurrences are removed directly; data occurrences are
        tombstoned in place. After ``buffer_capacity`` deletions the page
        is rebuilt (compacting the tombstones), so the user-facing error
        bound never degrades. Charges :attr:`counter` one op and one
        descent plus its buffer search and window search (and a buffer
        delete's shift).
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
        """Batch delete: group keys per page, remove each page's chunk whole.

        The final state matches looping :meth:`delete` over the batch in
        stable key order (ties keep request order): each owning page
        removes its whole contiguous sub-batch, chunked to the page's
        remaining deletion-widening budget, so a chunk that drives
        ``deletions`` to ``buffer_capacity`` triggers exactly the rebuild a
        scalar delete would, and the remaining keys re-route against the
        new pages. A sparse chunk (under ``BATCH_CROSSOVER`` keys) costs
        per key, the scalar delete's searches and tombstone each; a dense
        one costs per page, one :meth:`SegmentPage.bulk_delete`. Requests
        the floor page cannot satisfy (split duplicate runs, under-min
        keys, absent keys) fall back to the scalar multi-page path one
        request at a time, preserving scalar semantics. Like every batch
        verb this charges :attr:`counter` nothing of its own (see
        :meth:`insert_batch`). Empty batches are a strict no-op.

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
        from repro.engine.scatter import fill_default

        return fill_default(*self.pop_batch(keys, missing=missing), default)

    def pop_batch(
        self, keys, *, missing: str = "raise"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`delete_batch` answered as ``(values, found)``, in request
        order: the form engines and workers pass along, ``default`` being
        the caller's to apply. ``values`` has the values dtype; a miss's
        slot is unspecified; a sparse chunk costs per key, a dense one per
        page (see :meth:`delete_batch`)."""
        self._check_writable()
        check_missing(missing)
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        order = keys.argsort(kind="stable")
        answer, found = self._pop_sorted(keys[order], missing)
        out = np.empty_like(answer)
        out[order] = answer
        hit = np.empty(keys.size, dtype=bool)
        hit[order] = found
        return out, hit

    def _pop_sorted(
        self, skeys: np.ndarray, missing: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`pop_batch`'s body for keys already sorted (stable) and a
        checked ``missing``, answered in that sorted order: the entry an
        engine or worker calls with the chunk it sorted itself."""
        n = skeys.size
        klist = skeys.tolist()
        # Answers in sorted request order, typed from the start.
        answer = np.zeros(n, dtype=self._values_dtype)
        found = np.zeros(n, dtype=bool)
        i = 0
        while i < n:
            applied = 0
            if self._pages:
                pi = self._route(klist[i])
                page = self._pages[pi]
                j = self._owned_end(pi, klist, i)
                if j - i < BATCH_CROSSOVER:
                    applied = self._pop_run(page, klist, i, j, answer)
                else:
                    applied, vals = page.bulk_delete(
                        skeys[i:j], self.buffer_capacity - page.deletions
                    )
                    for t, value in enumerate(vals, i):
                        answer[t] = value
                if applied:
                    found[i : i + applied] = True
                    self._n -= applied
                    self._version += 1
                    i += applied
                    self._settle(pi)
                    continue
            # The floor page holds no (further) occurrence of skeys[i]:
            # resolve this one request through the scalar multi-page path.
            value = self._delete_one(klist[i])
            if value is not _MISS:
                answer[i] = value
                found[i] = True
            elif missing == "raise":
                raise KeyNotFoundError(klist[i])
            i += 1
        return answer, found

    def _pop_run(
        self, page: SegmentPage, keys: List[float], i: int, j: int,
        answer: np.ndarray,
    ) -> int:
        """Delete ``keys[i:j]`` (sorted, all routed to ``page``) one at a
        time, as the scalar loop would: a buffered occurrence first, else a
        live data row. Stops before the first request the page cannot
        satisfy (the caller's fallback takes it) and after one that empties
        the page or spends its deletion budget (the caller settles it).
        Writes the deleted values into ``answer``; returns how many."""
        for t in range(i, j):
            key = keys[t]
            b = page.find_in_buffer(key)
            if b >= 0:
                answer[t] = page.delete_at_buffer(b)
            else:
                d = page.find_in_data(key, self.page_search_error)
                if d < 0:
                    return t - i
                answer[t] = page.delete_at_data(d)
            if page.deletions >= self.buffer_capacity or page.n_total == 0:
                return t - i + 1
        return j - i

    def delete_value(self, key: float, value: Any) -> bool:
        """Remove the occurrence of ``key`` whose payload equals ``value``.

        Needed when duplicates carry distinct payloads (row ids in a
        secondary index). Returns True if an
        occurrence was removed, False if no (key, value) match exists.
        """
        self._check_writable()
        key = float(key)
        if self.counter is not None:
            self.counter.op()
        self._charge_descents()
        for pi in self._candidates(key):
            if self._delete_payload(self._pages[pi], key, value):
                self._version += 1
                self._n -= 1
                self._settle(pi)
                return True
        return False

    def _delete_payload(self, page: SegmentPage, key: float, value) -> bool:
        """Remove ``page``'s occurrence of ``key`` carrying ``value``."""
        j = page.find_in_buffer(key, self.counter)
        while 0 <= j < len(page.buf_keys) and page.buf_keys[j] == key:
            if page.buf_values[j] == value:
                page.delete_at_buffer(j, self.counter)
                return True
            j += 1
        i = page.find_in_data(key, self.page_search_error, self.counter)
        dead = page.dead_view
        while 0 <= i < len(page.keys) and page.key_view[i] == key:
            live = dead is None or not dead[i]
            if live and page.values[i] == value:
                page.delete_at_data(i)
                return True
            i += 1
        return False

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check the whole index: directory order, page invariants, count."""
        if len(self._starts) != len(self._pages):
            raise InvalidParameterError(
                f"directory has {len(self._starts)} starts for "
                f"{len(self._pages)} pages"
            )
        total = 0
        prev_start = None
        for start, page in zip(self._starts, self._pages):
            if page.start_key != start:
                raise InvalidParameterError(
                    f"directory key {start} != page start {page.start_key}"
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
