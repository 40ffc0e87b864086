"""Memory-access counting, latency modeling, and cache simulation.

This package is the substitution substrate for the paper's hardware-measured
nanosecond latencies (see DESIGN.md, substitution 2): indexes count the
random memory accesses they perform (:class:`AccessCounter`), a
:class:`LatencyModel` prices them — flat ``c`` ns/access like the paper's
cost model, or cache-hierarchy-aware — and :class:`CacheSim` replays real
address traces for the detailed ablation.
"""

from repro.memsim.cache import CacheSim, CacheStats
from repro.memsim.counter import (
    AccessCounter,
    binary_search_line_misses,
    binary_search_probes,
)
from repro.memsim.latency import (
    CacheLevel,
    LatencyModel,
    XEON_E5_2660_HIERARCHY,
)
from repro.memsim.memory import AddressSpace
from repro.memsim.trace import lookup_trace

__all__ = [
    "AccessCounter",
    "AddressSpace",
    "CacheLevel",
    "CacheSim",
    "CacheStats",
    "LatencyModel",
    "XEON_E5_2660_HIERARCHY",
    "binary_search_line_misses",
    "binary_search_probes",
    "lookup_trace",
]
