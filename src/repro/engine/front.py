"""EngineFront: the half of a sharded engine that does not care where shards live.

:class:`~repro.engine.ShardedEngine` keeps its shards in this process and
:class:`~repro.cluster.ClusterEngine` keeps each in a worker process, but up
to the moment a shard is reached both answer every verb the same way. This
base class is that shared half, written once:

* **writes** — coerce the keys, treat an empty batch as a strict no-op,
  draw row ids or cast the payloads to the engine's one values dtype,
  refusing any it cannot hold (:func:`~repro.engine.scatter.resolve_values`),
  stable-sort and cut the batch per shard
  (:func:`~repro.engine.scatter.split_sorted`),
  refuse a plan a read-only shard owns, log every chunk under one group
  commit before any shard applies (``docs/ARCHITECTURE.md``, the write
  protocol), hand the plan to the backend, roll a snapshot when the log is
  due, count;
* **reads** — ``get_batch`` is :meth:`EngineFront.lookup_batch` with the
  caller's ``default`` filled in on this side of any process boundary, and
  the scalar verbs are one-row batches;
* **telemetry** — each batch verb bumps the ``repro_engine_*`` counters and
  folds its keys into the engine's one
  :class:`~repro.obs.WorkloadProfiler`, so the same traffic gives the same
  ``stats()["workload"]`` on every backend;
* **state** — routing cuts, row-id counter, WAL handle, ``to_states``,
  ``version`` and the ``stats()`` schema.

A backend supplies how its shards are reached: ``_lookup(q, span)`` and
``_range(bounds, include_lo, include_hi)`` answer reads;
``_insert_sorted(keys, values, slices)`` and
``_delete_sorted(order, keys, slices, missing, lsns)`` apply a committed
plan, the latter returning one ``(positions, values, found)`` part per
owning shard; ``shard_versions()``, ``__len__``, ``_shard_states()``,
``_stats_parts()``, ``_check_writable(sid)`` and
``_register_sources(registry)`` report and guard them.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.engine.scatter import (
    check_bounds,
    fill_default,
    gather_points,
    resolve_values,
    split_sorted,
)
from repro.wal.store import log_chunks

__all__ = ["EngineFront"]

#: The batch verbs counted per call, with the name each is profiled under.
_VERBS = {
    "get_batch": "get",
    "range_batch": "range",
    "insert_batch": "insert",
    "delete_batch": "delete",
}


class EngineFront:
    """Routing, logging and counting shared by the sharded engines.

    Subclasses set the class attributes below, call :meth:`_init_front`
    once their shards exist (or are about to), and supply the hooks the
    module doc lists.
    """

    #: ``stats()["backend"]``.
    _backend = ""
    #: The span a traced :meth:`lookup_batch` opens.
    _get_span = ""
    #: Whether an attached WAL keeps its committed tail in memory (for a
    #: backend that restores a crashed shard by replaying it).
    _retain_tail = False

    def _init_front(
        self, cuts, auto_rowid: bool, next_rowid: int, telemetry: Any,
        values_dtypes,
    ) -> None:
        """Set the shared state and, with telemetry, register the verb
        counters, the workload profiler and the backend's sources.
        ``values_dtypes`` are the shards': an engine stores every payload
        in one dtype, so shards that differ are refused."""
        dtypes = set(values_dtypes)
        if len(dtypes) != 1:
            raise InvalidParameterError(
                f"an engine's shards must share one values dtype: {dtypes}"
            )
        self._values_dtype = dtypes.pop()
        self.cuts = np.asarray(cuts, dtype=np.float64)
        self._auto_rowid = bool(auto_rowid)
        self._next_rowid = int(next_rowid)
        self._wal: Any = None
        self.telemetry = self._telemetry = telemetry
        self._obs_ops: Optional[Dict[str, Tuple[Any, Any]]] = None
        self._workload: Any = None
        if telemetry is None:
            return
        reg = telemetry.registry
        ops = reg.counter(
            "repro_engine_ops_total", "Engine batch-verb calls.",
            labels=("op",),
        )
        keys = reg.counter(
            "repro_engine_keys_total",
            "Keys processed by engine batch verbs.", labels=("op",),
        )
        self._obs_ops = {op: (ops.labels(op), keys.labels(op)) for op in _VERBS}
        # None unless the bundle profiles: bins over this engine's cuts,
        # one vectorized sketch update per batch verb.
        self._workload = telemetry.ensure_workload(self.cuts)
        self._register_sources(reg)

    def _count(self, op: str, keys: np.ndarray) -> None:
        """Bump one batch verb's call/key counters and profile its keys
        (telemetry on)."""
        c_ops, c_keys = self._obs_ops[op]
        c_ops.inc()
        c_keys.inc(keys.size)
        if self._workload is not None:
            self._workload.record(_VERBS[op], keys)

    def _check_open(self) -> None:
        """Raise if the engine can no longer serve (never, unless the
        backend can be closed)."""

    # ------------------------------------------------------------------
    # Lifecycle and durability
    # ------------------------------------------------------------------

    def to_states(self) -> Dict[str, Any]:
        """Snapshot the whole engine: routing, row-id state, every shard.

        Returns
        -------
        dict
            ``cuts`` (copied), ``auto_rowid``, ``next_rowid`` and one
            ``PagedIndexBase.to_state`` snapshot per shard — the input
            either engine's ``from_states`` accepts and the WAL store
            persists.
        """
        return {
            "cuts": self.cuts.copy(),
            "auto_rowid": self._auto_rowid,
            "next_rowid": self._next_rowid,
            "shards": self._shard_states(),
        }

    def attach_wal(self, store: Any) -> None:
        """Attach a :class:`repro.wal.WalStore`: log every mutation.

        Every write verb then logs its routed chunks and group-commits
        them before any shard applies (``docs/ARCHITECTURE.md``, the
        write protocol), and :meth:`to_states` feeds the store's
        snapshots. Rejects object-dtype payloads (no WAL encoding).

        Parameters
        ----------
        store:
            An open store, already ``initialize``-d or ``recover``-ed to
            match this engine's state.
        """
        if self._values_dtype == np.dtype(object):
            raise InvalidParameterError(
                "durability requires numeric value dtypes; this engine "
                "holds object payloads"
            )
        store.set_retain_tail(self._retain_tail)
        store.bind(self.to_states)
        self._wal = store

    def _maybe_snapshot(self) -> None:
        """Roll a snapshot if the attached log is due (a safe point: the
        verb completed)."""
        if self._wal is not None:
            self._wal.maybe_snapshot()

    def close(self) -> None:
        """Release durability resources; a no-op without an attached WAL.

        Uncommitted WAL records are discarded — but write verbs commit
        before they apply, so none exist outside a mid-crash window.
        """
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def __enter__(self) -> "EngineFront":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Effective shard count (may be below the requested count)."""
        return self.cuts.size + 1

    @property
    def version(self) -> int:
        """Monotonic engine-wide mutation stamp (sum of shard versions).

        Every write path bumps at least one shard's version, and shards
        are never removed, so this only moves forward. The serving layer
        uses it as its flush barrier: it records the stamp after each
        insert dispatch (``RequestBatcher.stats()["barrier_version"]``),
        and the batcher's write-failure fallback compares it to prove the
        engine applied nothing before retrying per key.
        """
        return sum(self.shard_versions())

    def stats(self) -> Dict[str, Any]:
        """Engine-level stats: totals, per-shard index stats, read-view
        cache, workers and transport, durability and telemetry blocks.

        The top-level key set is one schema for every backend (pinned by
        the ``tests/api`` stats-schema conformance suite). Aggregates sum
        the per-shard index stats; a single-process backend reports an
        empty ``workers`` list and all-zero ``ipc`` counters, and one
        whose read views live in its workers reports zero ``view_*``
        counters, rather than omitting the keys.
        """
        from repro.obs import stats_sections

        self._check_open()
        per_shard, workers, ipc, views = self._stats_parts()
        touches = views["view_hits"] + views["view_builds"]
        workload, slow_ops = stats_sections(self._telemetry)
        return {
            "backend": self._backend,
            "n": sum(s["n"] for s in per_shard),
            "n_shards": self.n_shards,
            "cuts": self.cuts.tolist(),
            "model_bytes": sum(s["model_bytes"] for s in per_shard)
            + 8 * self.cuts.size,
            "n_pages": sum(s["n_pages"] for s in per_shard),
            "buffered_elements": sum(s["buffered_elements"] for s in per_shard),
            "page_rebuilds": sum(s["page_rebuilds"] for s in per_shard),
            "view_hits": views["view_hits"],
            "view_builds": views["view_builds"],
            "view_hit_rate": views["view_hits"] / touches if touches else 0.0,
            "view_patches": views["view_patches"],
            "view_full_rebuilds": views["view_full_rebuilds"],
            "shards": per_shard,
            "workers": workers,
            "ipc": ipc,
            "wal": None if self._wal is None else self._wal.stats(),
            "workload": workload,
            "slow_ops": slow_ops,
        }

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def lookup_batch(self, queries) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized point lookups as ``(values, found)``, in request
        order: the answer every tier above passes along, ``default`` being
        the caller's to apply. A miss's value slot is unspecified."""
        self._check_open()
        q = np.ascontiguousarray(queries, dtype=np.float64)
        tel = self._telemetry
        if tel is None:
            return self._lookup(q, None)
        with tel.span(self._get_span, n=int(q.size)) as sp:
            out = self._lookup(q, sp)
        self._count("get_batch", q)
        return out

    def get_batch(self, queries, default: Any = None) -> np.ndarray:
        """Vectorized point lookups across shards, in request order.

        Parameters
        ----------
        queries:
            Key batch, any array-like coercible to float64; order is
            preserved in the result.
        default:
            Value stored in the slot of every query with no match (applied
            here: it never crosses a process boundary).

        Returns
        -------
        numpy.ndarray
            One value per query: the values dtype when every query hits,
            else an object array with ``default`` in the miss slots
            (matching ``PagedIndexBase.get_batch``).
        """
        return fill_default(*self.lookup_batch(queries), default)

    def get(self, key: float, default: Any = None) -> Any:
        """Scalar point lookup (a one-key :meth:`lookup_batch`)."""
        values, found = self.lookup_batch(np.asarray([key], dtype=np.float64))
        return values[0] if found[0] else default

    def __contains__(self, key: float) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def range_batch(
        self,
        bounds,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """One ``(keys, values)`` pair per ``[lo, hi]`` row of ``bounds``.

        Parameters
        ----------
        bounds:
            ``(n, 2)`` array-like of inclusive ``[lo, hi]`` key bounds.
        include_lo, include_hi:
            Bound inclusivity, applied to every scan in the batch.

        Returns
        -------
        list of (numpy.ndarray, numpy.ndarray)
            For each bounds row, the matching ``(keys, values)`` arrays
            in key order (exactly the order ``range_items`` yields),
            owned by the caller.
        """
        self._check_open()
        bounds = check_bounds(bounds)
        out = self._range(bounds, include_lo, include_hi)
        if self._telemetry is not None:
            self._count("range_batch", bounds[:, 0])
        return out

    def range_arrays(
        self,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One range query, answered as ``(keys, values)`` arrays."""
        flo = -math.inf if lo is None else float(lo)
        fhi = math.inf if hi is None else float(hi)
        return self.range_batch(
            np.asarray([[flo, fhi]]), include_lo, include_hi
        )[0]

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

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def _commit(self, keys, slices, values=None, missing="raise") -> Dict[int, int]:
        """Refuse a write plan an owning shard cannot take, else log every
        chunk under one group commit — before any shard applies: once the
        fsync returns, a crash anywhere below replays the chunk instead of
        losing it. Returns ``{shard: lsn}``."""
        for sid, _a, _b in slices:
            self._check_writable(sid)
        return log_chunks(self._wal, self._next_rowid, keys, slices, values, missing)

    def insert(self, key: float, value: Any = None) -> None:
        """Scalar insert (a one-key :meth:`insert_batch`; engine-level row
        id when built without values)."""
        self.insert_batch(
            np.asarray([key], dtype=np.float64), None if value is None else [value]
        )

    def insert_batch(self, keys, values=None) -> None:
        """Bulk batch insert: route once, apply per shard under one fence.

        The batch is stable-sorted by key (ties keep request order) and
        cut into one contiguous sub-batch per shard with a single
        ``searchsorted`` over the cuts; each shard then sort-merges whole
        per-page chunks through ``PagedIndexBase.insert_batch``, so
        overflow/split decisions and version bumps happen once per mutated
        page instead of once per key. The resulting state is identical to
        looping ``insert`` per key in that same order — pinned by the
        equivalence and stateful suites. The call returns only after every
        owning shard has applied its chunk, so a later read sees the write
        whichever process serves it. An empty batch is a strict no-op: no
        shard state is touched, no versions bumped, no row ids consumed. A
        batch rejected up front touches neither log nor shards; past that,
        every owning shard applies its chunk and the first failing shard's
        exception re-raises (``docs/ARCHITECTURE.md``).

        Parameters
        ----------
        keys:
            Keys to insert, any order, any array-like coercible to
            float64.
        values:
            Aligned payloads; ``None`` assigns engine-wide auto row ids in
            request order (only on engines built without explicit values).
            A batch holding a payload the engine's values dtype cannot
            hold exactly is refused whole, before anything is logged.
        """
        self._check_open()
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        if keys.size == 0:
            return
        values, self._next_rowid = resolve_values(
            keys.size, values, self._auto_rowid, self._next_rowid,
            self._values_dtype,
        )
        order, skeys, slices = split_sorted(self.cuts, keys)
        values = values[order]
        self._commit(skeys, slices, values)
        self._insert_sorted(skeys, values, slices)
        self._maybe_snapshot()
        if self._telemetry is not None:
            self._count("insert_batch", skeys)

    def delete(self, key: float) -> Any:
        """Scalar delete (a one-key :meth:`delete_batch`): remove one
        occurrence of ``key`` and return its value; raises
        :class:`~repro.core.errors.KeyNotFoundError` when absent."""
        return self.delete_batch(np.asarray([key], dtype=np.float64))[0]

    def delete_batch(
        self, keys, *, missing: str = "raise", default: Any = None
    ) -> np.ndarray:
        """Bulk batch delete: route once, remove per shard under one fence.

        The batch is stable-sorted by key and cut into one contiguous
        sub-batch per shard with a single ``searchsorted`` over the cuts;
        each shard removes its chunk through ``PagedIndexBase.pop_batch``
        (one splice per mutated page). The resulting state is identical to
        looping ``delete`` per key in that same order — pinned by the
        equivalence suites — and the call returns only after every owning
        shard has applied its chunk, so a later read cannot see a deleted
        key. An empty batch is a strict no-op.

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
            Value filling the miss slots under ``missing="ignore"``
            (applied here: it never crosses a process boundary).

        Returns
        -------
        numpy.ndarray
            One deleted value per request in request order: the values
            dtype when every request hit, else an object array with
            ``default`` in the miss slots.
        """
        self._check_open()
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        if keys.size == 0:
            return np.empty(0, dtype=self._values_dtype)
        order, skeys, slices = split_sorted(self.cuts, keys)
        lsns = self._commit(skeys, slices, missing=missing)
        parts = self._delete_sorted(order, skeys, slices, missing, lsns)
        out = gather_points(keys.size, parts, default)
        self._maybe_snapshot()
        if self._telemetry is not None:
            self._count("delete_batch", keys)
        return out
