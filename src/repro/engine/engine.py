"""ShardedEngine: a range-partitioned, batch-first serving layer.

The single :class:`~repro.core.fiting_tree.FITingTree` answers one key at a
time; a serving system amortizes. The engine range-partitions the key space
(:mod:`repro.engine.partition`) into N shards, each backed by its own
FITing-Tree (or any ``PagedIndexBase`` subclass via ``index_factory``), and
exposes batch verbs:

* :meth:`ShardedEngine.get_batch` — answer the whole batch through the
  engine's one cached :class:`~repro.engine.batch.FlatView`, which spans
  every shard's pages in key order (shard ranges are disjoint and
  ordered), so no batch is split or regrouped per shard;
* :meth:`ShardedEngine.range_batch` — one contiguous slice of that view
  per bound, wherever the bound falls relative to the cuts;
* :meth:`ShardedEngine.insert_batch` — route the sorted batch once, then
  hand each shard its whole contiguous sub-batch; every owning page merges
  its chunk with one vectorized splice (``PagedIndexBase.insert_batch``),
  so overflow/split decisions and version bumps happen once per mutated
  page instead of once per key. The next read re-exports only the pages
  written to (:func:`~repro.engine.batch.flat_view`), whichever shards
  they are in.

Scalar ``get`` / ``insert`` / ``range_items`` mirrors are provided so the
engine drops into any harness an index fits; equivalence between the two
paths is pinned by tests. Shards are plain single-process objects — the
partition/batch split is deliberately the shape a future async or
multi-process deployment needs (each shard's state is independent), per the
ROADMAP north star.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError, NotSortedError
from repro.core.fiting_tree import FITingTree
from repro.core.page import aligned_value_array
from repro.core.paged_index import export_pages
from repro.engine.batch import flat_view
from repro.engine.partition import partition_cuts, route, shard_bounds
from repro.engine.scatter import (
    check_bounds,
    fill_default,
    gather_points,
    resolve_values,
    split_sorted,
)
from repro.wal.store import log_chunks

__all__ = ["ShardedEngine"]


def _owned(pair: Tuple[np.ndarray, np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """A view's range answer as arrays the caller owns: slices of the
    view's read-only arrays are copied, arrays it built fresh are not."""
    keys, values = pair
    return (
        keys if keys.flags.writeable else keys.copy(),
        values if values.flags.writeable else values.copy(),
    )


class ShardedEngine:
    """Range-partitioned batch query engine over per-shard paged indexes.

    Parameters
    ----------
    keys:
        Sorted (ascending, duplicates allowed) build keys; ``None`` or
        empty starts an empty single-shard engine that grows via inserts.
    values:
        Optional payloads aligned with ``keys``; omitted means engine-wide
        auto row ids ``0..n-1`` (inserts keep numbering across shards).
    n_shards:
        Requested shard count; the effective count may be lower when the
        data has too few distinct keys (see ``partition_cuts``).
    index_factory:
        ``f(keys, values) -> PagedIndexBase`` building one shard. Defaults
        to a :class:`FITingTree` with this engine's ``error`` /
        ``buffer_capacity``.
    error, buffer_capacity:
        Passed to the default factory (ignored when ``index_factory`` is
        given).
    telemetry:
        Optional :class:`repro.obs.Telemetry` bundle. ``None`` (default)
        disables instrumentation entirely — hot paths pay one
        ``is not None`` test per batch. When set, batch-verb call/key
        counters update per call and the view-cache / size / residency
        state is exported through registry callbacks (read only at
        collection time).

    Examples
    --------
    >>> import numpy as np
    >>> keys = np.sort(np.random.default_rng(0).uniform(0, 1e6, 100_000))
    >>> engine = ShardedEngine(keys, n_shards=4, error=128)
    >>> bool((engine.get_batch(keys[:1024]) == np.arange(1024)).all())
    True
    """

    def __init__(
        self,
        keys=None,
        values=None,
        *,
        n_shards: int = 4,
        index_factory: Optional[Callable[..., Any]] = None,
        error: float = 64.0,
        buffer_capacity: Optional[int] = None,
        telemetry: Any = None,
        **index_kwargs: Any,
    ) -> None:
        if keys is None:
            keys = np.empty(0, dtype=np.float64)
        keys = np.asarray(keys, dtype=np.float64)
        if keys.size > 1 and np.any(np.diff(keys) < 0):
            raise NotSortedError("build keys must be sorted ascending")

        self._auto_rowid = values is None
        if values is None:
            values = np.arange(keys.size, dtype=np.int64)
        else:
            values = np.asarray(values)
            if len(values) != keys.size:
                raise InvalidParameterError(
                    f"values length {len(values)} != keys length {keys.size}"
                )
        self._next_rowid = keys.size

        if index_factory is None:
            def index_factory(k, v):
                return FITingTree(
                    k,
                    v,
                    error=error,
                    buffer_capacity=buffer_capacity,
                    **index_kwargs,
                )

        self.cuts = partition_cuts(keys, n_shards)
        self._shards: List[Any] = [
            index_factory(keys[a:b], values[a:b])
            for a, b in shard_bounds(keys, self.cuts)
        ]
        self._init_runtime(telemetry)

    def _init_runtime(self, telemetry: Any) -> None:
        """Initialize the non-data runtime state (caches, telemetry, WAL).

        Shared by ``__init__`` and :meth:`from_states`, which rebuilds the
        data fields (``cuts``/shards/rowid bookkeeping) from snapshots
        instead of a build pass.
        """
        self._view_stats: Dict[str, int] = {
            "view_hits": 0,
            "view_builds": 0,
            "view_pages_exported": 0,
            "view_patches": 0,
            "view_full_rebuilds": 0,
        }
        self._directory: Optional[Tuple[np.ndarray, List[Any]]] = None
        self._directory_parts: List[List[Any]] = []
        self._flat_view_cache: Any = None
        self.telemetry = telemetry
        self._telemetry = telemetry
        self._wal: Any = None
        self._obs_ops: Optional[Dict[str, Tuple[Any, Any]]] = None
        self._workload: Any = None
        if telemetry is not None:
            self._register_telemetry(telemetry)

    @classmethod
    def from_states(
        cls, states: Dict[str, Any], *, telemetry: Any = None
    ) -> "ShardedEngine":
        """Rebuild an engine from a :meth:`to_states` snapshot.

        Parameters
        ----------
        states:
            Dict with ``cuts``, ``auto_rowid``, ``next_rowid`` and one
            ``PagedIndexBase.to_state`` dict per shard — the shape
            :meth:`to_states` produces and WAL recovery hands back.
        telemetry:
            Optional :class:`repro.obs.Telemetry` to register against.

        Returns
        -------
        ShardedEngine
            An engine bit-identical to the snapshotted one.
        """
        from repro.core.serialize import index_from_state

        eng = cls.__new__(cls)
        eng._auto_rowid = bool(states["auto_rowid"])
        eng._next_rowid = int(states["next_rowid"])
        eng.cuts = np.asarray(states["cuts"], dtype=np.float64)
        eng._shards = [index_from_state(s) for s in states["shards"]]
        eng._init_runtime(telemetry)
        return eng

    def to_states(self) -> Dict[str, Any]:
        """Snapshot the whole engine: routing, row-id state, every shard.

        Returns
        -------
        dict
            ``cuts`` (copied), ``auto_rowid``, ``next_rowid`` and the
            per-shard ``to_state`` snapshots — the exact input
            :meth:`from_states` accepts and the WAL store persists.
        """
        return {
            "cuts": self.cuts.copy(),
            "auto_rowid": self._auto_rowid,
            "next_rowid": self._next_rowid,
            "shards": [s.to_state() for s in self._shards],
        }

    def attach_wal(self, store: Any) -> None:
        """Attach a :class:`repro.wal.WalStore`: log every mutation.

        Every write verb then logs its routed chunks and group-commits
        them before any shard applies (``docs/ARCHITECTURE.md``, the
        write protocol), and :meth:`to_states` feeds the store's
        snapshots. Rejects object-dtype payloads (no portable encoding).
        """
        for shard in self._shards:
            if shard._values_dtype == np.dtype(object):
                raise InvalidParameterError(
                    "durability requires numeric value dtypes; this "
                    "engine holds object payloads"
                )
        store.set_retain_tail(False)
        store.bind(self.to_states)
        self._wal = store

    def close(self) -> None:
        """Release durability resources; a no-op without an attached WAL.

        Uncommitted WAL records are discarded — but write verbs commit
        before they apply, so none exist outside a mid-crash window.
        """
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _register_telemetry(self, telemetry: Any) -> None:
        """Wire this engine's counters and pull-based sources into the
        telemetry registry (called once from ``__init__``)."""
        reg = telemetry.registry
        ops = reg.counter(
            "repro_engine_ops_total", "Engine batch-verb calls.",
            labels=("op",),
        )
        keys_fam = reg.counter(
            "repro_engine_keys_total",
            "Keys processed by engine batch verbs.", labels=("op",),
        )
        self._obs_ops = {
            op: (ops.labels(op), keys_fam.labels(op))
            for op in ("get_batch", "range_batch", "insert_batch",
                       "delete_batch")
        }
        # Workload profiling (None unless the bundle enables it): the
        # profiler bins over this engine's routing cuts, one vectorized
        # sketch update per batch verb.
        ensure = getattr(telemetry, "ensure_workload", None)
        self._workload = ensure(self.cuts) if ensure is not None else None
        reg.register_callback(
            "repro_engine_view_events", lambda: dict(self._view_stats),
            "Flat-view cache events (hits/builds/pages re-exported by "
            "builds/patches/full rebuilds).",
            labels=("event",),
        )
        reg.register_callback(
            "repro_engine_size", self._collect_size,
            "Engine size gauges (rows, shards, pages, bytes).",
            labels=("field",),
        )
        reg.register_callback(
            "repro_engine_residency_bytes", self._collect_residency,
            "Read-path resident bytes per storage tier.", labels=("tier",),
        )

    def _collect_size(self) -> Dict[str, float]:
        per_shard = [s.stats() for s in self._shards]
        return {
            "n": len(self),
            "n_shards": self.n_shards,
            "n_pages": sum(s["n_pages"] for s in per_shard),
            "buffered_elements": sum(
                s["buffered_elements"] for s in per_shard
            ),
            "model_bytes": self.model_bytes(),
            "page_rebuilds": sum(s["page_rebuilds"] for s in per_shard),
        }

    def _collect_residency(self) -> Dict[str, float]:
        report = self.residency_report()
        return {
            "pages": report["page_bytes"],
            "views": report["view_bytes"],
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Effective shard count (may be below the requested count)."""
        return len(self._shards)

    @property
    def version(self) -> int:
        """Monotonic engine-wide mutation stamp (sum of shard versions).

        Every write path bumps at least one shard's version, and shards are
        never removed, so this only moves forward. Observers use it as a
        flush barrier: the async serving layer records it after each insert
        dispatch (``RequestBatcher.stats()["barrier_version"]``) so
        "reads submitted after this write see it" is checkable, and the
        batcher's insert-failure fallback compares it to prove the engine
        applied nothing before retrying per key.
        """
        return sum(s.version for s in self._shards)

    @property
    def shards(self) -> List[Any]:
        """The per-shard indexes (read-only use; mutate via the engine)."""
        return list(self._shards)

    def shard_versions(self) -> Tuple[int, ...]:
        """Per-shard monotonic version stamps (one per shard, in order).

        The engine-agnostic observation point for "did any shard mutate":
        the stateful suites pin empty-batch no-ops on it, and it is the
        same surface :class:`repro.cluster.ClusterEngine` maintains from
        worker replies, so tests written against it run on either engine.
        """
        return tuple(s.version for s in self._shards)

    def __len__(self) -> int:
        return sum(len(s) for s in self._shards)

    def model_bytes(self) -> int:
        """Modeled index overhead summed over shards (+ the cut vector)."""
        return sum(s.model_bytes() for s in self._shards) + 8 * self.cuts.size

    def stats(self) -> Dict[str, Any]:
        """Engine-level stats: totals, flat-view cache hit rate, per-shard
        segment counts and buffer occupancy.

        The top-level key set is the backend-independent schema shared
        with :class:`repro.cluster.ClusterEngine` (pinned by the
        ``tests/api`` stats-schema conformance suite): single-process
        backends report an empty ``workers`` list and all-zero ``ipc``
        counters rather than omitting the keys.
        """
        from repro.obs import stats_sections

        per_shard = [s.stats() for s in self._shards]
        views = dict(self._view_stats)
        touches = views["view_hits"] + views["view_builds"]
        workload, slow_ops = stats_sections(self._telemetry)
        return {
            "backend": "sharded",
            "n": len(self),
            "n_shards": self.n_shards,
            "cuts": self.cuts.tolist(),
            "model_bytes": self.model_bytes(),
            "n_pages": sum(s["n_pages"] for s in per_shard),
            "buffered_elements": sum(s["buffered_elements"] for s in per_shard),
            "page_rebuilds": sum(s["page_rebuilds"] for s in per_shard),
            "view_hits": views["view_hits"],
            "view_builds": views["view_builds"],
            "view_hit_rate": views["view_hits"] / touches if touches else 0.0,
            "view_patches": views["view_patches"],
            "view_full_rebuilds": views["view_full_rebuilds"],
            "shards": per_shard,
            "workers": [],
            "ipc": {"batches": 0, "pickle_fallbacks": 0, "lane_growths": 0},
            "wal": None if self._wal is None else self._wal.stats(),
            "workload": workload,
            "slow_ops": slow_ops,
        }

    def validate(self) -> None:
        """Validate every shard plus the routing invariant (each shard's
        keys lie inside its cut range)."""
        for i, shard in enumerate(self._shards):
            shard.validate()
            lo = self.cuts[i - 1] if i > 0 else None
            hi = self.cuts[i] if i < self.cuts.size else None
            for key in shard.keys():
                if lo is not None and key < lo:
                    raise InvalidParameterError(
                        f"shard {i} holds key {key} below cut {lo}"
                    )
                if hi is not None and key >= hi:
                    raise InvalidParameterError(
                        f"shard {i} holds key {key} at/above cut {hi}"
                    )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def shard_for(self, key: float) -> Any:
        """The shard index owning ``key``."""
        return self._shards[int(route(self.cuts, [key])[0])]

    def warm(self) -> None:
        """Best-effort pre-build of the engine's read-path snapshot.

        Exports the one view over every shard's pages, so the first real
        batch does not pay the O(total data) export.
        ``repro.serve.Server.warm`` runs this at startup; calling it again
        after writes is safe (it re-exports only the pages written since).
        """
        flat_view(self, self._view_stats)

    def _get_directory(self) -> Tuple[np.ndarray, List[Any]]:
        """Every shard's ``(starts, pages)`` directory, concatenated in
        shard order — the same list object until some shard's directory
        changes, which is how :func:`flat_view` tells an update of its
        cached view from a full export."""
        parts = [shard._get_directory() for shard in self._shards]
        if self._directory is None or any(
            pages is not old
            for (_, pages), old in zip(parts, self._directory_parts)
        ):
            self._directory_parts = [pages for _, pages in parts]
            self._directory = (
                np.concatenate([starts for starts, _ in parts]),
                [page for _, pages in parts for page in pages],
            )
        return self._directory

    def flat_arrays(self) -> Dict[str, Any]:
        """Export every shard's pages as one read snapshot (the shape of
        ``PagedIndexBase.flat_arrays``; shards whose values dtypes differ
        export ``object`` values).

        Each later shard's first routing key is lowered to its cut, so
        queries in ``[cut, first page start)`` route into that shard —
        exactly where scalar engine routing buffers and probes them.
        """
        starts, pages = self._get_directory()
        dtypes = {shard._values_dtype for shard in self._shards}
        arrays = export_pages(
            pages, dtypes.pop() if len(dtypes) == 1 else np.dtype(object)
        )
        route_starts = starts.copy()
        first = 0
        for i, shard_pages in enumerate(self._directory_parts):
            if i > 0 and shard_pages:
                route_starts[first] = self.cuts[i - 1]
            first += len(shard_pages)
        arrays.update(
            version=self.version, starts=starts, route_starts=route_starts
        )
        return arrays

    def residency_report(self) -> Dict[str, Any]:
        """Bytes resident per storage tier of the read path.

        ``page_bytes`` is the ground truth: the key/value arrays owned by
        the pages themselves. ``view_bytes`` is what the engine's cached
        view *owns* on top of that (see ``FlatView.nbytes_owned``).
        Python-list insert buffers are excluded (bounded by
        ``buffer_capacity`` per page).

        Returns
        -------
        dict
            ``page_bytes``, ``view_bytes`` (both ints) and
            ``residency_ratio`` = ``(page + view) / page`` — ~2x once the
            view is warm.
        """
        page_bytes = 0
        for shard in self._shards:
            for page in shard.pages():
                page_bytes += page.keys.nbytes + page.values.nbytes
        view = self._flat_view_cache
        view_bytes = 0 if view is None else view.nbytes_owned()
        return {
            "page_bytes": int(page_bytes),
            "view_bytes": int(view_bytes),
            "residency_ratio": (
                (page_bytes + view_bytes) / page_bytes if page_bytes else 1.0
            ),
        }

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, key: float, default: Any = None) -> Any:
        """Scalar point lookup (routes to one shard's ``get``)."""
        return self.shard_for(key).get(key, default)

    def __contains__(self, key: float) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def get_batch(self, queries, default: Any = None) -> np.ndarray:
        """Vectorized point lookups across shards, in request order.

        Parameters
        ----------
        queries:
            Key batch, any array-like coercible to float64; order is
            preserved in the result.
        default:
            Value stored in the slot of every query with no match.

        Returns
        -------
        numpy.ndarray
            One value per query: the values dtype when every query hits,
            else an object array with ``default`` in the miss slots
            (matching ``PagedIndexBase.get_batch``).
        """
        return fill_default(*self.lookup_batch(queries), default)

    def lookup_batch(self, queries) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized point lookups as ``(values, found)``, in request
        order: the answer every tier above passes along, ``default`` being
        the caller's to apply. A miss's value slot is unspecified.

        Answers the whole batch through the engine's one flattened view.
        Cost for K queries over P pages and n keys: O(K log P) for routing
        plus one O(K log n) predecessor search and a bounded buffer probe
        (see :mod:`repro.engine.batch`) — a handful of whole-batch array
        passes instead of K Python descents.
        """
        tel = self._telemetry
        if tel is None:
            return flat_view(self, self._view_stats).lookup_batch(queries)
        with tel.span("engine.get_batch") as sp:
            values, found = flat_view(self, self._view_stats).lookup_batch(
                queries
            )
            if sp is not None:
                sp.attrs["n"] = int(values.size)
        c_ops, c_keys = self._obs_ops["get_batch"]
        c_ops.inc()
        c_keys.inc(values.size)
        if self._workload is not None:
            self._workload.record("get", queries)
        return values, found

    def range_items(
        self,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Iterator[Tuple[float, Any]]:
        """Scalar-compatible range scan stitched across shards in key order."""
        keys, values = self.range_arrays(lo, hi, include_lo, include_hi)
        for k, v in zip(keys, values):
            yield float(k), v

    def range_arrays(
        self,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One range query, answered as ``(keys, values)`` arrays."""
        lo, hi = (None if b is None else float(b) for b in (lo, hi))
        return _owned(
            flat_view(self, self._view_stats).range_arrays(
                lo, hi, include_lo, include_hi
            )
        )

    def range_batch(
        self,
        bounds,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """One ``(keys, values)`` pair per ``[lo, hi]`` row of ``bounds``.

        Every scan reads the engine's one flattened view, so a batch of B
        scans pays any snapshot update once; each scan is then O(log n)
        ``searchsorted`` bounds plus an O(m) copy of its m matching rows.

        Parameters
        ----------
        bounds:
            ``(n, 2)`` array-like of inclusive ``[lo, hi]`` key bounds.
        include_lo, include_hi:
            Bound inclusivity, applied to every scan in the batch.

        Returns
        -------
        list of (numpy.ndarray, numpy.ndarray)
            For each bounds row, the matching ``(keys, values)`` arrays in
            key order (exactly the order ``range_items`` yields).
        """
        bounds = check_bounds(bounds)
        view = flat_view(self, self._view_stats)
        out = [
            _owned(view.range_arrays(lo, hi, include_lo, include_hi))
            for lo, hi in bounds.tolist()
        ]
        if self._telemetry is not None:
            c_ops, c_keys = self._obs_ops["range_batch"]
            c_ops.inc()
            c_keys.inc(bounds.shape[0])
            if self._workload is not None:
                self._workload.record("range", bounds[:, 0])
        return out

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def _commit(self, keys, slices, values=None, missing="raise") -> None:
        """Refuse a routed write an owning shard cannot take, else log
        every chunk under one group commit — before any shard applies."""
        for sid, _a, _b in slices:
            self._shards[sid]._check_writable()
        log_chunks(self._wal, self._next_rowid, keys, slices, values, missing)

    def _apply(self, slices, fn: Callable[[int, int, int], Any]) -> List[Any]:
        """Run ``fn(shard, a, b)`` on *every* owning shard, then re-raise
        the first failure in shard order: every chunk is already
        committed, so replay applies them all and the live state must."""
        results: List[Any] = []
        errors: List[Exception] = []
        for sid, a, b in slices:
            try:
                results.append(fn(sid, a, b))
            except Exception as exc:
                errors.append(exc)
        if errors:
            raise errors[0]
        return results

    def _maybe_snapshot(self) -> None:
        """Rotate a snapshot generation if the attached log is due."""
        if self._wal is not None:
            self._wal.maybe_snapshot()

    def insert(self, key: float, value: Any = None) -> None:
        """Scalar insert (engine-level row id when built without values)."""
        if value is None and self._auto_rowid:
            value = self._next_rowid
            self._next_rowid += 1
        keys = np.asarray([key], dtype=np.float64)
        sid = int(route(self.cuts, keys)[0])
        if self._wal is not None:
            self._commit(keys, [(sid, 0, 1)], aligned_value_array(1, [value]))
        self._shards[sid].insert(key, value)
        self._maybe_snapshot()

    def insert_batch(self, keys, values=None) -> None:
        """Bulk batch insert: route once, bulk-merge per shard and page.

        The batch is stable-sorted by key (ties keep request order) and
        cut into one contiguous sub-batch per shard with a single
        ``searchsorted`` over the cuts; each shard then sort-merges whole
        per-page chunks through ``PagedIndexBase.insert_batch``. The
        resulting state is identical to looping ``insert`` per key in that
        same order — pinned by the equivalence and stateful suites — at a
        fraction of the per-key Python cost. An empty batch is a strict
        no-op: no shard state is touched, no versions bumped, no row ids
        consumed. Cost for K inserts: one O(K log K) sort, one routing
        pass over the cuts, then O(K + touched-page data) merge work.
        A batch rejected up front touches neither log nor shards; past
        that, every owning shard applies its chunk and the first failing
        shard's exception re-raises (``docs/ARCHITECTURE.md``).

        Parameters
        ----------
        keys:
            Keys to insert, any order, any array-like coercible to
            float64.
        values:
            Aligned payloads; ``None`` assigns engine-wide auto row ids in
            request order (only on engines built without explicit values).
        """
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        if keys.size == 0:
            return
        values, self._next_rowid = resolve_values(
            keys.size, values, self._auto_rowid, self._next_rowid
        )
        order, keys, slices = split_sorted(self.cuts, keys)
        values = values[order]
        self._commit(keys, slices, values)
        self._apply(
            slices,
            lambda sid, a, b: self._shards[sid].insert_batch(
                keys[a:b], values[a:b]
            ),
        )
        self._maybe_snapshot()
        if self._telemetry is not None:
            c_ops, c_keys = self._obs_ops["insert_batch"]
            c_ops.inc()
            c_keys.inc(keys.size)
            if self._workload is not None:
                self._workload.record("insert", keys)

    def delete(self, key: float) -> Any:
        """Scalar delete: remove one occurrence of ``key``, return its value.

        Routes to the owning shard's ``delete``; raises
        :class:`~repro.core.errors.KeyNotFoundError` when absent.
        """
        keys = np.asarray([key], dtype=np.float64)
        sid = int(route(self.cuts, keys)[0])
        self._commit(keys, [(sid, 0, 1)])
        value = self._shards[sid].delete(key)
        self._maybe_snapshot()
        return value

    def delete_batch(
        self, keys, *, missing: str = "raise", default: Any = None
    ) -> np.ndarray:
        """Bulk batch delete: route once, bulk-splice per shard and page.

        The batch is stable-sorted by key and cut into one contiguous
        sub-batch per shard with a single ``searchsorted`` over the cuts;
        each shard removes its chunk through
        ``PagedIndexBase.delete_batch`` (one splice per mutated page).
        The resulting state is identical to looping ``delete`` per key in
        that same order — pinned by the equivalence suites — and the next
        read re-exports only the pages written to. An empty batch is a
        strict no-op.

        Parameters
        ----------
        keys:
            Keys to delete, any order, any array-like coercible to
            float64; each element removes one occurrence.
        missing:
            ``"raise"`` (default): a shard stops at its first absent
            request (prior removals stay applied, as the scalar loop
            leaves them), every other owning shard still applies its
            chunk, then the first failing shard's ``KeyNotFoundError``
            re-raises; ``"ignore"`` records a miss and continues.
        default:
            Value filling the miss slots under ``missing="ignore"``.

        Returns
        -------
        numpy.ndarray
            One deleted value per request in request order: the values
            dtype when every request hit, else an object array with
            ``default`` in the miss slots.
        """
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        if keys.size == 0:
            return np.empty(0, dtype=object)
        order, skeys, slices = split_sorted(self.cuts, keys)
        self._commit(skeys, slices, missing=missing)
        out = gather_points(
            keys.size,
            self._apply(
                slices,
                lambda sid, a, b: (
                    order[a:b],
                    self._shards[sid].delete_batch(
                        skeys[a:b], missing=missing, default=default
                    ),
                    None,
                ),
            ),
        )
        self._maybe_snapshot()
        if self._telemetry is not None:
            c_ops, c_keys = self._obs_ops["delete_batch"]
            c_ops.inc()
            c_keys.inc(keys.size)
            if self._workload is not None:
                self._workload.record("delete", keys)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedEngine(n={len(self)}, shards={self.n_shards}, "
            f"pages={sum(s.n_pages for s in self._shards)})"
        )
