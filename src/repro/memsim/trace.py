"""Generate address traces from B+ tree operations for cache simulation.

``lookup_trace`` walks a :class:`repro.btree.BPlusTree` exactly as a point
lookup would, emitting one ``(address, size)`` access per node visited plus
one 8-byte access per binary-search probe within the final leaf. Replaying
such traces through :class:`repro.memsim.cache.CacheSim` reproduces the
cache-residency effects the paper observes on real hardware (Figure 6's L2
spike) from first principles.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Iterator, List, Tuple

from repro.btree import BPlusTree
from repro.memsim.memory import AddressSpace

__all__ = ["lookup_trace"]

_ENTRY_BYTES = 16  # 8-byte key + 8-byte pointer/value, as in node sizing.


def _node_size(node: Any) -> int:
    if node.is_leaf:
        return max(_ENTRY_BYTES, len(node.keys) * _ENTRY_BYTES)
    return max(_ENTRY_BYTES, len(node.keys) * 8 + len(node.children) * 8)


def lookup_trace(
    tree: BPlusTree, key: Any, space: AddressSpace
) -> List[Tuple[int, int]]:
    """Address trace of one point lookup of ``key`` in ``tree``.

    Each visited node contributes one access to its header/key area; the
    final leaf additionally contributes one 8-byte access per binary-search
    probe position, so spatially close probes share cache lines just as they
    would in a real array search.
    """
    trace: List[Tuple[int, int]] = []
    node = tree._root
    if node is None:
        return trace
    while not node.is_leaf:
        base = space.of(node, _node_size(node))
        trace.append((base, min(_node_size(node), 64)))
        idx = bisect_right(node.keys, key)
        node = node.children[idx]
    base = space.of(node, _node_size(node))
    trace.extend(
        (base + probe * _ENTRY_BYTES, 8)
        for probe in _binary_probe_positions(len(node.keys), node.keys, key)
    )
    return trace


def _binary_probe_positions(n: int, keys: List[Any], key: Any) -> Iterator[int]:
    """Indices probed by a textbook binary search for ``key`` in ``keys``."""
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        yield mid
        if keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    if n:
        yield min(lo, n - 1)

