"""Random-memory-access counters for the simulated latency model.

The paper prices an index operation as a number of cache misses — tree
levels visited plus binary-search probes inside a segment plus probes in the
insert buffer (Section 6, eq. 1). Wall-clock nanoseconds measured in CPython
would be meaningless for reproducing those claims, so every index in this
repository can be instrumented with an :class:`AccessCounter` and the
benchmarks convert the counted accesses to nanoseconds via
:class:`repro.memsim.latency.LatencyModel`.

Counters are deliberately tiny objects: with ``counter=None`` (the default)
the instrumentation costs one attribute check per node visit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

__all__ = ["AccessCounter", "binary_search_probes"]


def binary_search_probes(window: int) -> int:
    """Number of probes binary search performs over ``window`` elements.

    The paper's cost model uses ``log2(e)`` probes for a window bounded by
    the error ``e``; we use ``ceil(log2(window)) + 1`` (the worst-case probe
    count of textbook binary search, and at least one probe for a non-empty
    window) so measured and modeled costs are directly comparable.
    """
    if window <= 0:
        return 0
    if window == 1:
        return 1
    return int(math.ceil(math.log2(window))) + 1


#: 64-byte cache lines hold 8 of our 8-byte keys.
_KEYS_PER_LINE = 8


def binary_search_line_misses(window: int) -> int:
    """Distinct cache lines a binary search over ``window`` elements touches.

    The first probes of a binary search are far apart (one line each); once
    the remaining range fits in a cache line (8 keys), further probes are
    free. This is what distinguishes searching a 32-element error window
    (~2 misses) from searching a whole table (~log2(n) misses) on real
    hardware, and it is why the paper's measured latencies sit below its
    flat-cost model.
    """
    if window <= 0:
        return 0
    return max(1, binary_search_probes(window) - int(math.log2(_KEYS_PER_LINE)))


@dataclass
class AccessCounter:
    """Accumulates random memory accesses by category.

    Attributes
    ----------
    tree_nodes:
        B+ tree nodes visited during descents (one cache miss each in the
        paper's model — the ``log_b(S_e)`` term).
    segment_probes:
        Binary/linear-search probes inside a segment or fixed page (the
        ``log2(e)`` term).
    buffer_probes:
        Probes inside per-segment insert buffers (the ``log2(buf)`` term).
    data_moves:
        Elements shifted/copied by buffered inserts and merges. Sequential
        work: tracked for insert-throughput modeling but *not* counted as a
        random access.
    splits:
        Segment/page splits (FITing-Tree: merge + re-segmentation events).
    ops:
        Logical operations measured (lookups or inserts), so callers can
        report per-operation averages.
    """

    tree_nodes: int = 0
    segment_probes: int = 0
    buffer_probes: int = 0
    segment_line_misses: int = 0
    buffer_line_misses: int = 0
    data_moves: int = 0
    splits: int = 0
    ops: int = 0

    def tree_node(self) -> None:
        self.tree_nodes += 1

    def segment_probe(self, n: int = 1) -> None:
        self.segment_probes += n
        self.segment_line_misses += n

    def segment_binary_search(self, window: int) -> None:
        self.segment_probes += binary_search_probes(window)
        self.segment_line_misses += binary_search_line_misses(window)

    def buffer_probe(self, n: int = 1) -> None:
        self.buffer_probes += n
        self.buffer_line_misses += n

    def buffer_binary_search(self, window: int) -> None:
        self.buffer_probes += binary_search_probes(window)
        self.buffer_line_misses += binary_search_line_misses(window)

    def data_move(self, n: int = 1) -> None:
        self.data_moves += n

    def split(self) -> None:
        self.splits += 1

    def op(self) -> None:
        self.ops += 1

    @property
    def random_accesses(self) -> int:
        """Logical random accesses (the paper's flat cost-model currency)."""
        return self.tree_nodes + self.segment_probes + self.buffer_probes

    @property
    def data_line_misses(self) -> int:
        """Cache-line-deduplicated accesses into table-resident data."""
        return self.segment_line_misses + self.buffer_line_misses

    def per_op(self) -> Dict[str, float]:
        """Average counts per recorded operation (empty dict if no ops)."""
        if self.ops == 0:
            return {}
        return {
            "tree_nodes": self.tree_nodes / self.ops,
            "segment_probes": self.segment_probes / self.ops,
            "buffer_probes": self.buffer_probes / self.ops,
            "random_accesses": self.random_accesses / self.ops,
            "data_line_misses": self.data_line_misses / self.ops,
            "data_moves": self.data_moves / self.ops,
        }

    def reset(self) -> None:
        self.tree_nodes = 0
        self.segment_probes = 0
        self.buffer_probes = 0
        self.segment_line_misses = 0
        self.buffer_line_misses = 0
        self.data_moves = 0
        self.splits = 0
        self.ops = 0

    def snapshot(self) -> "AccessCounter":
        """Return an independent copy of the current counts."""
        return AccessCounter(
            tree_nodes=self.tree_nodes,
            segment_probes=self.segment_probes,
            buffer_probes=self.buffer_probes,
            segment_line_misses=self.segment_line_misses,
            buffer_line_misses=self.buffer_line_misses,
            data_moves=self.data_moves,
            splits=self.splits,
            ops=self.ops,
        )

    def diff(self, earlier: "AccessCounter") -> "AccessCounter":
        """Counts accumulated since ``earlier`` (an earlier snapshot)."""
        return AccessCounter(
            tree_nodes=self.tree_nodes - earlier.tree_nodes,
            segment_probes=self.segment_probes - earlier.segment_probes,
            buffer_probes=self.buffer_probes - earlier.buffer_probes,
            segment_line_misses=self.segment_line_misses - earlier.segment_line_misses,
            buffer_line_misses=self.buffer_line_misses - earlier.buffer_line_misses,
            data_moves=self.data_moves - earlier.data_moves,
            splits=self.splits - earlier.splits,
            ops=self.ops - earlier.ops,
        )
