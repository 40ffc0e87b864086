"""Baseline index structures the paper compares against.

* :class:`FullIndex` — dense B+ tree, one entry per distinct key (the
  best-case lookup baseline whose size the FITing-Tree attacks).
* :class:`FixedPageIndex` — sparse B+ tree over fixed-size pages with full
  in-page binary search (the paper's main comparison point).
* :class:`BinarySearchIndex` — no index at all; the zero-size extreme.

The tree indexes are measured by the exact same B+ tree as the FITing-Tree
(the paged ones as that tree bulk-loaded over their pages), as the paper's
methodology requires.
"""

from repro.baselines.binary_search import BinarySearchIndex
from repro.baselines.fixed_index import FixedPageIndex
from repro.baselines.full_index import FullIndex

__all__ = ["BinarySearchIndex", "FixedPageIndex", "FullIndex"]
