"""Workload generation and execution for the evaluation harness.

Two families: seeded stream generators (:mod:`~repro.workloads.generators`)
and the synchronous scalar runners (:mod:`~repro.workloads.runner`). The
serving tiers' traffic drivers live in ``stackbench/load.py``.
"""

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
    "WorkloadResult",
    "insert_stream",
    "missing_lookups",
    "mixed_lookups",
    "run_inserts",
    "run_lookups",
    "run_range_scans",
    "uniform_lookups",
    "zipf_lookups",
]
