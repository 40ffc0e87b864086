"""Workload analytics: key-range heatmaps, hot-key sketches, access mix.

FITing-Tree is data-aware only at build time; this module makes the
*running* system workload-aware. It answers three questions the metrics
layer cannot: which key ranges are hot (per-shard fixed-width access
histograms), which individual keys are hot (a space-saving heavy-hitter
sketch), and how skewed the shard load is (:meth:`WorkloadProfiler.
skew_report` — Gini coefficients and top-bin shares). The re-balancer
milestone reads this as its input distribution.

Cost model — the whole point of the design, budgeted at ≤5% ``get_batch``
overhead by ``python -m repro.bench obs``:

* One sketch update per *verb call*, never per key, over a strided
  subsample of the batch (``sample`` knob; counts are scaled back up).
  The histogram update is a single vectorized pass: route ids via
  ``np.searchsorted`` (or reuse the engine's already-computed route),
  one multiply/clip to local bin ids, one ``np.bincount`` over
  ``shard_id * n_bins + bin`` into the flat count grid.
* The hot-key sketch amortizes its ``np.unique`` over many batches: the
  hot path only appends the strided sample to an accumulator; every
  ``flush_keys`` sampled keys, one unique + ``np.argpartition`` pass
  reduces the window to a bounded candidate list for the space-saving
  table. Readers flush before reporting, so the sketch is never stale.

An engine's one profiler lives beside its router: the shared engine front
(:class:`~repro.engine.front.EngineFront`) records every batch verb's keys
before they are split per shard, so a ``ClusterEngine`` — whose shards
live in worker processes — profiles exactly what its in-process twin does
and reports the same ``stats()["workload"]``.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SpaceSaving", "WorkloadProfiler", "VERBS"]

#: Access verbs tracked by the read/write mix counters.
VERBS = ("get", "range", "insert", "delete")

_VERB_IDX = {v: i for i, v in enumerate(VERBS)}

#: Verbs counted as reads in the mix summary.
_READ_VERBS = ("get", "range")


def _gini(x: np.ndarray) -> float:
    """Gini coefficient of a non-negative count vector (0 = uniform)."""
    total = float(x.sum())
    n = x.size
    if total <= 0.0 or n <= 1:
        return 0.0
    xs = np.sort(np.asarray(x, dtype=np.float64))
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float(2.0 * np.dot(ranks, xs) / (n * total) - (n + 1) / n)


class SpaceSaving:
    """Space-saving heavy-hitter sketch (Metwally et al.) over float keys.

    Tracks at most ``capacity`` counters. A new key evicts the current
    minimum counter and inherits its count as over-estimation error, so
    any key whose true frequency exceeds ``total / capacity`` is
    guaranteed to be present. Counts are upper bounds; ``err`` bounds the
    over-estimate per key.
    """

    __slots__ = ("capacity", "_counts", "_errs", "total")

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = int(capacity)
        self._counts: Dict[float, int] = {}
        self._errs: Dict[float, int] = {}
        self.total = 0

    def offer(self, key: float, count: int = 1) -> None:
        """Add ``count`` observations of ``key`` (evicting the min if full).

        ``count`` batches many observations of the same key into one
        table operation — the vectorized callers pre-aggregate with
        ``np.unique`` so this runs a bounded number of times per flush.
        """
        self.total += count
        counts = self._counts
        if key in counts:
            counts[key] += count
            return
        if len(counts) < self.capacity:
            counts[key] = count
            self._errs[key] = 0
            return
        victim = min(counts, key=counts.__getitem__)
        floor = counts.pop(victim)
        self._errs.pop(victim, None)
        counts[key] = floor + count
        self._errs[key] = floor

    def update(self, keys: Sequence[float], counts: Sequence[int]) -> None:
        """Offer a pre-aggregated ``(key, count)`` candidate list."""
        for key, count in zip(keys, counts):
            self.offer(float(key), int(count))

    def top(self, k: int = 10) -> List[Tuple[float, int, int]]:
        """The ``k`` largest counters as ``(key, count, err)``, descending."""
        items = sorted(
            self._counts.items(), key=lambda kv: kv[1], reverse=True
        )[:k]
        return [(key, count, self._errs.get(key, 0)) for key, count in items]

    def __len__(self) -> int:
        return len(self._counts)


class _HotAccumulator:
    """Deferred hot-key candidate extraction, amortized across batches.

    The hot path only copies the (already strided) sample into a chunk
    list; once ``flush_keys`` keys have accumulated, one ``np.unique``
    over the window plus an ``np.argpartition`` top-``limit`` cut yields
    the candidate ``(keys, counts)`` pair for the space-saving table.
    """

    __slots__ = ("limit", "flush_keys", "_chunks", "_n")

    def __init__(self, limit: int, flush_keys: int) -> None:
        self.limit = max(1, int(limit))
        self.flush_keys = max(1, int(flush_keys))
        self._chunks: List[np.ndarray] = []
        self._n = 0

    def add(self, sampled: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Buffer one sampled batch; returns candidates when flushing."""
        if sampled.size == 0:
            return None
        self._chunks.append(sampled.copy())
        self._n += sampled.size
        if self._n >= self.flush_keys:
            return self.flush()
        return None

    def flush(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Reduce the buffered window to top-``limit`` candidates."""
        if not self._chunks:
            return None
        window = np.concatenate(self._chunks)
        self._chunks = []
        self._n = 0
        uniq, cnt = np.unique(window, return_counts=True)
        if uniq.size > self.limit:
            idx = np.argpartition(cnt, -self.limit)[-self.limit:]
            uniq, cnt = uniq[idx], cnt[idx]
        return uniq, cnt


class WorkloadProfiler:
    """Engine-level workload profiler: heatmap + hot keys + verb mix.

    One instance lives on the engine (hung off the ``Telemetry`` bundle).
    Shard key spans are fixed-width binned: inner boundaries come from
    the engine's routing ``cuts``; the open edges (below the first cut,
    above the last) adopt and widen from observed batch extrema, so the
    first batches define them and later out-of-span keys clip into the
    edge bins — a deliberate sketch approximation. All counts are
    estimates scaled up from a 1-in-``sample`` strided subsample.

    The default strides are sized to the perf guard, not to accuracy per
    batch, and they stride at two levels. ``sample`` is the in-batch key
    stride; ``batch_sample`` fully profiles only every k-th batch *per
    verb* (the first call of each verb always bins, so single-burst
    traffic is never invisible) — skipped batches cost one lock and two
    integer adds, and their key counts fold into the next binned call's
    scale factor, so per-verb totals track the real traffic. Batch
    striding is what makes the profiler cheap *in situ*: interleaved
    with real engine scans its arrays are cache-cold, which costs ~2-3x
    the warm-loop microbenchmark figure per binned batch.
    ``total_keys`` stays exact — every call adds the true batch size.

    Thread-safe: the mutating entry points take a lock (one uncontended
    acquire per *batch*, noise next to the bincount), so engines driven
    from more than one thread can share a profiler.
    """

    def __init__(
        self,
        cuts: Sequence[float],
        *,
        n_bins: int = 32,
        hot_capacity: int = 64,
        hot_candidates: int = 48,
        sample: int = 8,
        batch_sample: int = 8,
        hot_sample: int = 4,
        flush_keys: int = 4096,
    ) -> None:
        self._cuts = np.asarray(cuts, dtype=np.float64).ravel()
        self.n_shards = self._cuts.size + 1
        self.n_bins = int(n_bins)
        self.sample = max(1, int(sample))
        self.hot_sample = max(1, int(hot_sample))
        total = self.n_shards * self.n_bins
        self._counts = np.zeros(total, dtype=np.int64)
        # Per-verb counts kept at bin granularity so the hot path adds
        # the one bincount it already has; per-shard sums happen at
        # snapshot time (only the per-shard sum is public).
        self._verb_bins = np.zeros((len(VERBS), total), dtype=np.int64)
        self._lo = np.full(self.n_shards, np.nan)
        self._hi = np.full(self.n_shards, np.nan)
        if self.n_shards > 1:
            self._lo[1:] = self._cuts
            self._hi[:-1] = self._cuts
        self._scale = np.zeros(self.n_shards)
        for sid in range(self.n_shards):
            self._rescale(sid)  # inner shards have both edges already
        self._edges = np.zeros(total + 1)
        # Dropping the outermost edges makes searchsorted(side="right")
        # land directly in [0, total-1] — below-span keys hit bin 0,
        # above-span keys the last bin — with no -1 and no clip.
        self._search_edges = self._edges[1:-1]
        self._edges_stale = True
        self._calls = 0
        self.batch_sample = max(1, int(batch_sample))
        self._verb_calls = [0] * len(VERBS)
        self._pending = [0] * len(VERBS)
        self.hot = SpaceSaving(hot_capacity)
        self._acc = _HotAccumulator(hot_candidates, flush_keys)
        self.total_keys = 0
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------

    def _rescale(self, sid: int) -> None:
        span = self._hi[sid] - self._lo[sid]
        self._scale[sid] = self.n_bins / span if span > 0.0 else 0.0
        self._edges_stale = True

    def _rebuild_edges(self) -> None:
        # Shard spans are contiguous (they meet at the cuts), so all the
        # per-shard fixed-width bins flatten into ONE sorted edge array:
        # binning the whole batch is then a single np.searchsorted, which
        # routes and bins at once. Unknown edge spans collapse to
        # zero-width (their bins activate once the span is adopted).
        lo = np.where(np.isnan(self._lo), 0.0, self._lo)
        hi = np.where(np.isnan(self._hi), lo, self._hi)
        nb = self.n_bins
        for s in range(self.n_shards):
            self._edges[s * nb:(s + 1) * nb + 1] = np.linspace(
                lo[s], hi[s], nb + 1
            )
        self._edges_stale = False

    def _widen_edges(self, lo: float, hi: float) -> None:
        if not self._lo[0] <= lo:  # NaN-aware: also true on first batch
            self._lo[0] = lo
            self._rescale(0)
        if not self._hi[-1] >= hi:
            self._hi[-1] = hi
            self._rescale(self.n_shards - 1)

    def record(
        self,
        verb: str,
        keys: np.ndarray,
        sid: Optional[np.ndarray] = None,
        *,
        hot: bool = True,
    ) -> None:
        """Fold one batch into the sketch — a single vectorized update.

        ``keys`` is the batch's key array (for ``"range"``, the lower
        bounds). Only every ``batch_sample``-th call per verb is binned
        (the first always is); a skipped call just adds to ``total_keys``
        and the verb's pending count. A binned call strides the batch by
        ``sample``, routes *and* bins the sample with one
        ``np.searchsorted`` over the flattened global bin edges, and
        scales the bincount by ``pending // sampled`` so the skipped
        batches' keys are represented too. ``sid`` (an engine's
        precomputed route) is accepted for API symmetry but unused — the
        fused path is cheaper than consuming it. ``hot=False`` skips the
        hot-key candidate pass (used for replay/rebuild traffic that
        should not pollute the sketch).
        """
        q = np.asarray(keys, dtype=np.float64).ravel()
        n = q.size
        if n == 0:
            return
        vi = _VERB_IDX[verb]
        with self._lock:
            self.total_keys += n
            turn = self._verb_calls[vi]
            self._verb_calls[vi] = turn + 1
            self._pending[vi] += n
            if turn % self.batch_sample:
                return
            pending = self._pending[vi]
            self._pending[vi] = 0
            step = self.sample
            qs = np.ascontiguousarray(q[::step]) if step > 1 else q
            self._calls += 1
            # Edge spans stabilize after the first batches; afterwards
            # check extrema only periodically (out-of-span keys clip
            # into the edge bins in between — sketch-grade accuracy).
            if self._calls <= 16 or not self._calls % 16:
                self._widen_edges(float(qs.min()), float(qs.max()))
            if self._edges_stale:
                self._rebuild_edges()
            b = self._search_edges.searchsorted(qs, "right")
            factor = pending // qs.size
            delta = np.bincount(b, minlength=self._counts.size) * factor
            self._counts += delta
            self._verb_bins[vi] += delta
            if hot and verb != "range":
                hs = self.hot_sample
                pairs = self._acc.add(qs[::hs] if hs > 1 else qs)
                if pairs is not None:
                    self.hot.update(pairs[0], pairs[1] * (factor * hs))

    def _flush_hot(self) -> None:
        pairs = self._acc.flush()
        if pairs is not None:
            scale = self.sample * self.batch_sample * self.hot_sample
            self.hot.update(pairs[0], pairs[1] * scale)

    # -- reporting -----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able state: heatmap rows, verb mix, hot keys, totals."""
        with self._lock:
            self._flush_hot()
            grid = self._counts.reshape(self.n_shards, self.n_bins).copy()
            lo, hi = self._lo.copy(), self._hi.copy()
            verbs = self._verb_bins.reshape(
                len(VERBS), self.n_shards, self.n_bins
            ).sum(axis=2)
            hot = self.hot.top(16)
            total = self.total_keys
        heatmap = [
            {
                "shard": s,
                "lo": None if np.isnan(lo[s]) else float(lo[s]),
                "hi": None if np.isnan(hi[s]) else float(hi[s]),
                "counts": grid[s].tolist(),
            }
            for s in range(self.n_shards)
        ]
        reads = sum(int(verbs[_VERB_IDX[v]].sum()) for v in _READ_VERBS)
        sampled = int(verbs.sum())
        return {
            "n_bins": self.n_bins,
            "n_shards": self.n_shards,
            "sample": self.sample,
            "batch_sample": self.batch_sample,
            "total_keys": int(total),
            "read_fraction": reads / sampled if sampled else 0.0,
            "verbs": {
                verb: verbs[_VERB_IDX[verb]].tolist() for verb in VERBS
            },
            "heatmap": heatmap,
            "hot_keys": [
                {"key": float(k), "count": int(c), "err": int(e)}
                for k, c, e in hot
            ],
        }

    def skew_report(self, top_bins: int = 4) -> Dict[str, Any]:
        """Skew summary: per-shard Gini/top-bin shares plus shard-level Gini.

        Parameters
        ----------
        top_bins:
            How many of a shard's hottest bins the ``top_share`` field
            aggregates.

        Returns
        -------
        dict
            ``per_shard`` rows (``ops``, ``share`` of all traffic,
            ``gini`` over that shard's bins, ``top_share``), the Gini of
            shard totals (``shard_gini``) and the ``hottest_shard`` id.
        """
        with self._lock:
            grid = self._counts.reshape(self.n_shards, self.n_bins).copy()
        totals = grid.sum(axis=1)
        grand = float(totals.sum())
        per_shard = []
        for s in range(self.n_shards):
            row = grid[s]
            t = float(totals[s])
            srt = np.sort(row)[::-1]
            top = float(srt[:top_bins].sum())
            per_shard.append(
                {
                    "shard": s,
                    "ops": int(t),
                    "share": t / grand if grand else 0.0,
                    "gini": _gini(row),
                    "top_share": top / t if t else 0.0,
                }
            )
        return {
            "per_shard": per_shard,
            "shard_gini": _gini(totals),
            "hottest_shard": int(np.argmax(totals)) if grand else None,
            "top_bins": int(top_bins),
        }
