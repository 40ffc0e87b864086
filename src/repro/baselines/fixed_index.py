"""The "Fixed" baseline: a sparse B+ tree over fixed-size pages.

This is the paper's main comparison point (the "Fixed" curves in Figures
6/7/9/11): table data is chunked into pages of a constant size, the B+ tree
indexes only the first key of each page, and a lookup binary-searches the
whole page. Like the FITing-Tree it buffers inserts per page and splits a
page whose buffer fills up — the paper gives it the same buffering courtesy
("half of the page size is used as the buffer size") so the insert
comparison is fair.

Everything except the chunking policy and the in-page search is shared with
the FITing-Tree via :class:`repro.core.paged_index.PagedIndexBase`, which is
exactly the fairness the paper's evaluation methodology demands.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

import numpy as np

from repro.btree import DEFAULT_BRANCHING
from repro.core.errors import InvalidParameterError
from repro.core.page import SegmentPage
from repro.core.paged_index import PagedIndexBase

__all__ = ["FixedPageIndex"]


class FixedPageIndex(PagedIndexBase):
    """Sparse clustered index with fixed-size pages and full binary search.

    Parameters
    ----------
    keys, values:
        As for :class:`repro.core.fiting_tree.FITingTree`.
    page_size:
        Elements per page. The paper's experiments set this equal to the
        FITing-Tree's error threshold when comparing the two.
    buffer_capacity:
        Per-page insert buffer; defaults to ``page_size // 2`` (the paper's
        setting). ``0`` builds a read-only index.
    """

    def __init__(
        self,
        keys=None,
        values=None,
        *,
        page_size: int = 256,
        buffer_capacity: Optional[int] = None,
        branching: int = DEFAULT_BRANCHING,
        fill: float = 1.0,
        counter: Any = None,
    ) -> None:
        if page_size < 1:
            raise InvalidParameterError(f"page_size must be >= 1, got {page_size}")
        if buffer_capacity is None:
            buffer_capacity = page_size // 2
        if buffer_capacity < 0:
            raise InvalidParameterError(
                f"buffer_capacity must be >= 0, got {buffer_capacity}"
            )
        self.page_size = int(page_size)
        self.buffer_capacity = int(buffer_capacity)
        #: Binary-search the whole page: no interpolation window.
        self.page_search_error = math.inf
        #: The tree's 16 B/entry already covers a fixed page's metadata.
        self.metadata_bytes_per_page = 0
        super().__init__(
            keys, values, branching=branching, fill=fill, counter=counter
        )

    def _make_pages(
        self, keys: np.ndarray, values: np.ndarray
    ) -> List[SegmentPage]:
        n = len(keys)
        n_chunks = max(1, math.ceil(n / self.page_size))
        bounds = np.linspace(0, n, n_chunks + 1).astype(np.int64)
        pages: List[SegmentPage] = []
        for a, b in zip(bounds, bounds[1:]):
            if b > a:
                pages.append(
                    SegmentPage(float(keys[a]), 0.0, keys[a:b], values[a:b])
                )
        return pages

    def _snapshot_params(self) -> Dict[str, Any]:
        """Constructor kwargs reproducing this index's configuration
        (see :meth:`repro.core.paged_index.PagedIndexBase.to_state`)."""
        return {
            "page_size": self.page_size,
            "buffer_capacity": self.buffer_capacity,
            "branching": self.branching,
            "fill": self.fill,
        }

    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out.update(page_size=self.page_size)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FixedPageIndex(n={len(self)}, pages={self.n_pages}, "
            f"page_size={self.page_size})"
        )
