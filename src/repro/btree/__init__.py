"""In-memory B+ tree (the STX-tree stand-in from the paper).

Every tree index in this repository — the FITing-Tree itself, the dense
"Full" baseline, and the sparse "Fixed" baseline — is sized and charged as
:class:`~repro.btree.btree.BPlusTree`, mirroring the paper's requirement
that the underlying tree implementation be held constant across
comparisons. The dense baseline stores its entries in one; the paged
indexes measure the one bulk-loaded over their pages with
:func:`~repro.btree.btree.bulk_load_shape`.
"""

from repro.btree.btree import BPlusTree, DEFAULT_BRANCHING, bulk_load_shape
from repro.btree.node import InnerNode, LeafNode

__all__ = [
    "BPlusTree",
    "DEFAULT_BRANCHING",
    "InnerNode",
    "LeafNode",
    "bulk_load_shape",
]
