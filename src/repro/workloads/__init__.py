"""Workload generation and execution for the evaluation harness.

Three families: seeded stream generators (:mod:`~repro.workloads.generators`),
the synchronous scalar runners (:mod:`~repro.workloads.runner`), and
async closed-/open-loop traffic drivers for the serving layer
(:mod:`~repro.workloads.async_traffic`).
"""

from repro.workloads.async_traffic import (
    TrafficResult,
    run_closed_loop,
    run_open_loop,
)
from repro.workloads.generators import (
    insert_stream,
    missing_lookups,
    mixed_lookups,
    uniform_lookups,
    zipf_lookups,
)
from repro.workloads.runner import (
    WorkloadResult,
    run_inserts,
    run_lookups,
    run_range_scans,
)

__all__ = [
    "TrafficResult",
    "WorkloadResult",
    "insert_stream",
    "missing_lookups",
    "mixed_lookups",
    "run_closed_loop",
    "run_inserts",
    "run_lookups",
    "run_open_loop",
    "run_range_scans",
    "uniform_lookups",
    "zipf_lookups",
]
