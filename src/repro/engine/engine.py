"""ShardedEngine: a range-partitioned, batch-first serving layer.

The single :class:`~repro.core.fiting_tree.FITingTree` answers one key at a
time; a serving system amortizes. The engine range-partitions the key space
(:mod:`repro.engine.partition`) into N shards, each backed by its own
FITing-Tree (or any ``PagedIndexBase`` subclass via ``index_factory``), and
exposes batch verbs. Routing, logging, counting and the verb surface are
:class:`~repro.engine.front.EngineFront`'s, shared with
:class:`~repro.cluster.ClusterEngine`; what this class keeps is how its
in-process shards are reached:

* reads — the whole batch through the engine's one cached
  :class:`~repro.engine.batch.FlatView`, which spans every shard's pages in
  key order (shard ranges are disjoint and ordered), so no batch is split
  or regrouped per shard; a range bound takes one contiguous slice of it;
* writes — each owning shard gets its whole contiguous sub-batch and
  merges or removes it with one vectorized splice per owning page
  (``PagedIndexBase.insert_batch`` / ``pop_batch``); every shard applies
  its chunk before the first failure re-raises. The next read re-exports
  only the pages written to (:func:`~repro.engine.batch.flat_view`),
  whichever shards they are in;
* scalar ``insert`` / ``delete`` / ``range_arrays`` that go straight to
  one shard or the view (the serve batcher's one-op write and range
  chunks), with equivalence to the batch verbs pinned by tests. A scalar
  ``get`` is the front's one-key ``lookup_batch``: no get chunk is
  answered by anything else.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError, NotSortedError
from repro.core.fiting_tree import FITingTree
from repro.core.page import aligned_value_array, held_value
from repro.core.paged_index import export_pages
from repro.engine.batch import flat_view
from repro.engine.front import EngineFront
from repro.engine.partition import partition_cuts, route, shard_bounds

__all__ = ["ShardedEngine"]


def _owned(pair: Tuple[np.ndarray, np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """A view's range answer as arrays the caller owns: slices of the
    view's read-only arrays are copied, arrays it built fresh are not."""
    keys, values = pair
    return (
        keys if keys.flags.writeable else keys.copy(),
        values if values.flags.writeable else values.copy(),
    )


class ShardedEngine(EngineFront):
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
        ``buffer_capacity``. The shards must share one values dtype, the
        engine's: a factory building shards of different dtypes is
        refused.
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

    _backend = "sharded"
    _get_span = "engine.get_batch"

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

        auto_rowid = values is None
        if values is None:
            values = np.arange(keys.size, dtype=np.int64)
        else:
            values = np.asarray(values)
            if len(values) != keys.size:
                raise InvalidParameterError(
                    f"values length {len(values)} != keys length {keys.size}"
                )

        if index_factory is None:
            def index_factory(k, v):
                return FITingTree(
                    k,
                    v,
                    error=error,
                    buffer_capacity=buffer_capacity,
                    **index_kwargs,
                )

        cuts = partition_cuts(keys, n_shards)
        self._shards: List[Any] = [
            index_factory(keys[a:b], values[a:b])
            for a, b in shard_bounds(keys, cuts)
        ]
        self._init_runtime(cuts, auto_rowid, keys.size, telemetry)

    def _init_runtime(
        self, cuts, auto_rowid: bool, next_rowid: int, telemetry: Any
    ) -> None:
        """Initialize the view cache and the front's state around built
        shards (shared by ``__init__`` and :meth:`from_states`)."""
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
        self._init_front(
            cuts, auto_rowid, next_rowid, telemetry,
            [shard._values_dtype for shard in self._shards],
        )

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
        eng._shards = [index_from_state(s) for s in states["shards"]]
        eng._init_runtime(
            states["cuts"], states["auto_rowid"], states["next_rowid"],
            telemetry,
        )
        return eng

    def _shard_states(self) -> List[Dict[str, Any]]:
        return [s.to_state() for s in self._shards]

    def _register_sources(self, reg: Any) -> None:
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

    def _stats_parts(self) -> Tuple[List[Dict[str, Any]], list, dict, dict]:
        ipc = {"batches": 0, "pickle_fallbacks": 0, "lane_growths": 0}
        return [s.stats() for s in self._shards], [], ipc, self._view_stats

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
        ``PagedIndexBase.flat_arrays``, in the engine's values dtype).

        Each later shard's first routing key is lowered to its cut, so
        queries in ``[cut, first page start)`` route into that shard —
        exactly where scalar engine routing buffers and probes them.
        """
        starts, pages = self._get_directory()
        arrays = export_pages(pages, self._values_dtype)
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

    def _lookup(self, q: np.ndarray, span: Any) -> Tuple[np.ndarray, np.ndarray]:
        # Cost for K queries over P pages and n keys: O(K log P) routing
        # plus one O(K log n) predecessor search and a bounded buffer
        # probe (see repro.engine.batch) — a handful of whole-batch array
        # passes instead of K Python descents.
        return flat_view(self, self._view_stats).lookup_batch(q)

    def range_arrays(
        self,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One range query, answered as ``(keys, values)`` arrays.

        Overrides the front's one-row :meth:`range_batch` (a bounds array
        and a list per call) to read the view directly; counted the same.
        """
        lo, hi = (None if b is None else float(b) for b in (lo, hi))
        out = _owned(
            flat_view(self, self._view_stats).range_arrays(
                lo, hi, include_lo, include_hi
            )
        )
        if self._telemetry is not None:
            flo = -np.inf if lo is None else lo
            self._count("range_batch", np.asarray([flo]))
        return out

    def _range(
        self, bounds: np.ndarray, include_lo: bool, include_hi: bool
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        # Every scan reads the one view, so a batch of B scans pays any
        # snapshot update once; each is then O(log n) searchsorted bounds
        # plus an O(m) copy of its m rows.
        view = flat_view(self, self._view_stats)
        return [
            _owned(view.range_arrays(lo, hi, include_lo, include_hi))
            for lo, hi in bounds.tolist()
        ]

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def _check_writable(self, sid: int) -> None:
        self._shards[sid]._check_writable()

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

    def _insert_sorted(self, keys, values, slices) -> None:
        self._apply(
            slices,
            lambda sid, a, b: self._shards[sid].insert_batch(
                keys[a:b], values[a:b]
            ),
        )

    def _delete_sorted(self, order, keys, slices, missing, lsns) -> List[Any]:
        return self._apply(
            slices,
            lambda sid, a, b: (
                order[a:b],
                *self._shards[sid].pop_batch(keys[a:b], missing=missing),
            ),
        )

    def insert(self, key: float, value: Any = None) -> None:
        """Scalar insert (engine-level row id when built without values);
        a ``value`` the values dtype cannot hold exactly is refused before
        it is logged.

        Overrides the front's one-key :meth:`insert_batch`, which costs
        about ten times as much per key (value resolution, a stable sort,
        a shard split); counted the same.
        """
        if value is not None:
            value = held_value(value, self._values_dtype)
        elif self._auto_rowid:
            value = self._next_rowid
            self._next_rowid += 1
        keys = np.asarray([key], dtype=np.float64)
        sid = int(route(self.cuts, keys)[0])
        if self._wal is not None:
            self._commit(keys, [(sid, 0, 1)], aligned_value_array(1, [value]))
        self._shards[sid].insert(key, value)
        self._maybe_snapshot()
        if self._telemetry is not None:
            self._count("insert_batch", keys)

    def delete(self, key: float) -> Any:
        """Scalar delete: remove one occurrence of ``key``, return its value.

        Routes to the owning shard's ``delete``; raises
        :class:`~repro.core.errors.KeyNotFoundError` when absent. Overrides
        the front's one-key :meth:`delete_batch`, which costs about five
        times as much (``pop_batch`` and a gather); counted the same.
        """
        keys = np.asarray([key], dtype=np.float64)
        sid = int(route(self.cuts, keys)[0])
        self._commit(keys, [(sid, 0, 1)])
        value = self._shards[sid].delete(key)
        self._maybe_snapshot()
        if self._telemetry is not None:
            self._count("delete_batch", keys)
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedEngine(n={len(self)}, shards={self.n_shards}, "
            f"pages={sum(s.n_pages for s in self._shards)})"
        )
