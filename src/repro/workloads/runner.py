"""Workload runner: executes query/insert streams and reports both clocks.

Every result carries two views of cost:

* **wall-clock** seconds (CPython time; only meaningful relatively), and
* **modeled latency** in ns from the access counters priced by a
  :class:`repro.memsim.LatencyModel` — the paper-comparable number (see
  DESIGN.md substitution 2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.memsim import AccessCounter, LatencyModel

__all__ = [
    "WorkloadResult",
    "run_inserts",
    "run_lookups",
    "run_range_scans",
]


@dataclass
class WorkloadResult:
    """Outcome of one workload execution."""

    ops: int
    wall_seconds: float
    counter: AccessCounter
    modeled_ns_per_op: float
    hits: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def wall_ns_per_op(self) -> float:
        return self.wall_seconds * 1e9 / self.ops if self.ops else 0.0

    @property
    def ops_per_second(self) -> float:
        return self.ops / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def row(self) -> Dict[str, Any]:
        """Flat dict for table printing."""
        out = {
            "ops": self.ops,
            "wall_ns_per_op": round(self.wall_ns_per_op, 1),
            "modeled_ns_per_op": round(self.modeled_ns_per_op, 1),
            "ops_per_second": round(self.ops_per_second, 1),
            "accesses_per_op": (
                round(self.counter.random_accesses / self.ops, 2) if self.ops else 0.0
            ),
        }
        out.update(self.extra)
        return out


def _working_set(index: Any) -> int:
    return int(index.model_bytes()) if hasattr(index, "model_bytes") else 0


#: Bytes per table element (8-byte key + 8-byte payload), for pricing the
#: data-touching part of an operation.
_DATA_ENTRY_BYTES = 16


def _data_bytes(index: Any) -> int:
    return _DATA_ENTRY_BYTES * len(index)


def _modeled_ns(index: Any, counter: AccessCounter, model: LatencyModel) -> float:
    """Structure-aware modeled latency for one run (see LatencyModel)."""
    tree = getattr(index, "_tree", None)
    if tree is None:
        inner = getattr(index, "_index", None)
        tree = getattr(inner, "_tree", None) if inner is not None else None
    height = tree.height if tree is not None else None
    branching = tree.branching if tree is not None else None
    return model.op_latency_split_ns(
        counter, _working_set(index), _data_bytes(index), height, branching
    )


def _swap_counter(index: Any) -> AccessCounter:
    """Attach a fresh counter to the index (and its tree) for one run."""
    counter = AccessCounter()
    index.counter = counter
    tree = getattr(index, "_tree", None)
    if tree is not None:
        tree.counter = counter
    inner = getattr(index, "_index", None)
    if inner is not None:  # SecondaryFITingTree delegates
        inner.counter = counter
        inner._tree.counter = counter
    return counter


def run_lookups(
    index: Any,
    queries: np.ndarray,
    latency_model: Optional[LatencyModel] = None,
    use_bulk: bool = False,
) -> WorkloadResult:
    """Execute point lookups; count hits; price accesses with the model."""
    if len(queries) == 0:
        raise InvalidParameterError("empty query stream")
    latency_model = latency_model or LatencyModel()
    counter = _swap_counter(index)
    sentinel = object()

    start = time.perf_counter()
    if use_bulk and hasattr(index, "bulk_lookup"):
        results = index.bulk_lookup(queries, sentinel)
        hits = sum(1 for r in results if r is not sentinel)
    else:
        get = index.get
        hits = 0
        for q in queries:
            if get(q, sentinel) is not sentinel:
                hits += 1
    wall = time.perf_counter() - start

    modeled = _modeled_ns(index, counter, latency_model)
    return WorkloadResult(
        ops=len(queries),
        wall_seconds=wall,
        counter=counter.snapshot(),
        modeled_ns_per_op=modeled,
        hits=hits,
    )


def run_inserts(
    index: Any,
    stream: np.ndarray,
    latency_model: Optional[LatencyModel] = None,
) -> WorkloadResult:
    """Execute inserts; reports throughput plus modeled per-insert cost.

    The modeled cost adds sequential work (buffer shifts, merge copies) at
    1 ns/element to the random-access cost, mirroring the cost model's
    insert variant.
    """
    if len(stream) == 0:
        raise InvalidParameterError("empty insert stream")
    latency_model = latency_model or LatencyModel()
    counter = _swap_counter(index)

    start = time.perf_counter()
    insert = index.insert
    for k in stream:
        insert(k)
    wall = time.perf_counter() - start

    random_part = _modeled_ns(index, counter, latency_model)
    seq_part = counter.data_moves / counter.ops if counter.ops else 0.0
    return WorkloadResult(
        ops=len(stream),
        wall_seconds=wall,
        counter=counter.snapshot(),
        modeled_ns_per_op=random_part + seq_part,
        extra={"splits": counter.splits},
    )


def run_range_scans(
    index: Any,
    bounds: np.ndarray,
    latency_model: Optional[LatencyModel] = None,
) -> WorkloadResult:
    """Execute range scans given an ``(n, 2)`` array of [lo, hi] bounds."""
    bounds = np.asarray(bounds, dtype=np.float64)
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise InvalidParameterError("bounds must be an (n, 2) array")
    latency_model = latency_model or LatencyModel()
    counter = _swap_counter(index)

    start = time.perf_counter()
    scanned = 0
    for lo, hi in bounds:
        for _ in index.range_items(lo, hi):
            scanned += 1
    wall = time.perf_counter() - start

    modeled = _modeled_ns(index, counter, latency_model)
    return WorkloadResult(
        ops=len(bounds),
        wall_seconds=wall,
        counter=counter.snapshot(),
        modeled_ns_per_op=modeled,
        extra={"tuples_scanned": scanned},
    )
