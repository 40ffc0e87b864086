"""Observability experiment: what does telemetry cost on the hot loop?

The :mod:`repro.obs` layer promises that *disabled* telemetry is free in
any way that matters: an engine opened with ``telemetry="off"`` carries
``telemetry=None`` and every instrumented batch verb pays exactly one
``is not None`` test per batch. This experiment prices that promise —
and the enabled modes — on the ``get_batch`` hot loop:

* ``baseline`` — the raw batch implementation, bypassing the telemetry
  wrapper entirely (what the code was before instrumentation);
* ``off`` — the public ``get_batch`` with ``telemetry=None`` (the
  disabled path every default deployment runs);
* ``metrics`` — counters update per batch (two cached-child ``inc``\\ s);
* ``workload`` — metrics plus the workload profiler (heatmap bincount +
  hot-key accumulator per batch, no tracing);
* ``full`` — metrics plus a ``engine.get_batch`` span into the tracer's
  ring buffer per batch (profiling explicitly disabled, for a clean
  tracing-cost row);
* ``full+workload`` — everything on: metrics, spans, profiler and the
  slow-op log.

Measurement is matched-pair at *batch* granularity: within a round,
every batch is answered by all modes back-to-back (in a seeded
independently shuffled order per batch, so each mode sees the same
predecessor and cache-warmth distribution), per-mode times accumulate
across the round, and each mode keeps its *minimum* round. Interleaving this finely matters on a
shared single-vCPU box: frequency drift and steal-time bursts span many
batches, so anything slower than one batch lands on all modes alike and
cancels out of the differentials. ``overhead_pct`` is relative to
``baseline``.

Headline claims (asserted by the CI obs-overhead smoke row at the
committed size, ``repeats=21``; ``tests/obs`` runs a smoke size too
noisy for a verdict and pins only the report's shape): the ``off`` mode
costs <= 2% over ``baseline`` and the workload profiler <= 5%
*increment* over the ``metrics`` mode (``workload`` minus ``metrics``,
both priced against ``baseline``). The
guards are differentials between rows measured in the same matched-pair
rounds *on a shared engine instance*, so common-mode drift — CPU
frequency, noisy-neighbor stalls on a shared vCPU, per-instance
allocation placement — cancels instead of landing on one row. Results are
emitted to ``BENCH_obs.json`` so the overhead trajectory accumulates
across PRs.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.bench.harness import ExperimentResult, register_experiment
from repro.datasets import get
from repro.engine import ShardedEngine, flat_view
from repro.obs import Telemetry
from repro.workloads import uniform_lookups

#: The hard-guarded claim (CI obs-overhead smoke): disabled telemetry
#: must stay within this fraction of the un-instrumented baseline.
OFF_OVERHEAD_LIMIT_PCT = 2.0

#: The workload profiler's increment — mode ``"workload"`` minus mode
#: ``"metrics"``, as percentage points of baseline — must stay within
#: this bound. A differential, like the off guard: the profiler's cost
#: is the only thing that separates the two rows.
WORKLOAD_OVERHEAD_LIMIT_PCT = 5.0


def _round_ns_per_op(
    modes, batches: List[np.ndarray], total: int, rng: np.random.Generator
) -> Dict[str, float]:
    """One matched round: every batch through every mode, ns/op per mode.

    Modes run back-to-back on each batch in an independently shuffled
    order per batch. A mere rotation is not enough: it preserves cyclic
    adjacency, so one mode would *always* run right behind another
    doing identical work on the same engine and inherit its warm cache
    (measured at -14% on a mode whose true cost is positive). A fresh
    permutation per batch gives every mode the same predecessor
    distribution, so warmth advantages cancel out of the differentials.
    """
    k = len(modes)
    sums = [0.0] * k
    for q in batches:
        for m in rng.permutation(k):
            fn = modes[m][1]
            t0 = time.perf_counter()
            fn(q)
            sums[m] += time.perf_counter() - t0
    return {modes[m][0]: sums[m] * 1e9 / total for m in range(k)}


@register_experiment("obs")
def obs(
    n: int = 200_000,
    seed: int = 0,
    n_queries: Optional[int] = None,
    batch_size: int = 1024,
    n_shards: int = 4,
    error: float = 64.0,
    repeats: int = 5,
    dataset: str = "uniform",
    out: Optional[str] = "BENCH_obs.json",
) -> ExperimentResult:
    """Telemetry overhead on the ``get_batch`` hot loop, per mode."""
    if n_queries is None:
        n_queries = min(n, 100_000)
    keys = get(dataset, n=n, seed=seed)
    queries = uniform_lookups(keys, n_queries, seed=seed + 1)
    batches = [
        np.ascontiguousarray(queries[i : i + batch_size])
        for i in range(0, n_queries, batch_size)
    ]
    total = int(sum(b.size for b in batches))

    def build(telemetry):
        return ShardedEngine(
            keys,
            n_shards=n_shards,
            error=error,
            buffer_capacity=0,
            telemetry=telemetry,
        )

    eng_off = build(None)
    eng_workload = build(Telemetry(mode="metrics", workload=True))
    # workload=False keeps the "full" row a clean tracing-cost figure;
    # the everything-on cost is its own "full+workload" row.
    eng_full = build(Telemetry(mode="full", workload=False))
    eng_full_wl = build(Telemetry(mode="full", workload=True))

    # Both guarded differentials compare two modes on ONE shared engine
    # instance: distinct instances carry a per-process allocation-luck
    # bias of a few percent (page-array placement) that would land
    # directly on the differential. baseline/off share eng_off;
    # metrics/workload share eng_workload — the metrics row unhooks the
    # profiler around the call (two attribute stores, ~40ns, inside the
    # timed window on a ~400us batch).
    profiler = eng_workload._workload

    def metrics_fn(q):
        eng_workload._workload = None
        out = eng_workload.get_batch(q)
        eng_workload._workload = profiler
        return out

    modes = [
        ("baseline",
         lambda q: flat_view(eng_off, eng_off._view_stats).get_batch(q, None)),
        ("off", eng_off.get_batch),
        ("metrics", metrics_fn),
        ("workload", eng_workload.get_batch),
        ("full", eng_full.get_batch),
        ("full+workload", eng_full_wl.get_batch),
    ]
    # Warm every engine (flat-view builds) before any timed round.
    for _, fn in modes:
        fn(batches[0])

    best: Dict[str, float] = {}
    rng = np.random.default_rng(seed + 2)
    for _ in range(max(1, repeats)):
        round_ns = _round_ns_per_op(modes, batches, total, rng)
        for mode, ns in round_ns.items():
            if mode not in best or ns < best[mode]:
                best[mode] = ns

    base_ns = best["baseline"]
    rows = []
    for mode, _ in modes:
        ns = best[mode]
        rows.append(
            {
                "mode": mode,
                "wall_ns_per_op": round(ns, 2),
                "ops_per_second": round(1e9 / ns, 0) if ns else 0.0,
                "overhead_pct": round((ns / base_ns - 1.0) * 100.0, 2),
            }
        )

    off_pct = next(r["overhead_pct"] for r in rows if r["mode"] == "off")
    wl_pct = next(r["overhead_pct"] for r in rows if r["mode"] == "workload")
    met_pct = next(
        r["overhead_pct"] for r in rows if r["mode"] == "metrics"
    )
    notes = [
        f"off-mode overhead {off_pct:+.2f}% vs baseline "
        f"(guard <= {OFF_OVERHEAD_LIMIT_PCT:.0f}%)",
        f"workload profiler increment {wl_pct - met_pct:+.2f}% "
        f"(workload minus metrics; guard <= "
        f"{WORKLOAD_OVERHEAD_LIMIT_PCT:.0f}%)",
        "matched-pair minimum over "
        f"{repeats} rounds, {len(batches)} batches of {batch_size}",
    ]

    params: Dict[str, Any] = {
        "n": n,
        "n_queries": n_queries,
        "batch_size": batch_size,
        "n_shards": n_shards,
        "error": error,
        "repeats": repeats,
        "dataset": dataset,
        "seed": seed,
        "off_overhead_limit_pct": OFF_OVERHEAD_LIMIT_PCT,
        "workload_overhead_limit_pct": WORKLOAD_OVERHEAD_LIMIT_PCT,
    }
    if out:
        with open(out, "w") as fh:
            json.dump(
                {"experiment": "obs", "params": params, "rows": rows},
                fh,
                indent=2,
            )
        notes.append(f"wrote {out}")
    return ExperimentResult(
        name="obs",
        title="Telemetry overhead on the get_batch hot loop",
        rows=rows,
        notes=notes,
        params=params,
    )
