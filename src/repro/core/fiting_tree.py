"""The clustered FITing-Tree index (the paper's primary contribution).

Layout (paper Figure 2): sorted table data is partitioned into variable-sized
segments by :func:`repro.core.segmentation.shrinking_cone`; a standard B+
tree indexes one entry per segment — start key, slope and page pointer —
instead of one entry per key. Here the entries live in a sorted directory
and the tree (:mod:`repro.btree`) is the size and cost model; see
:mod:`repro.core.paged_index`. Lookups locate the owning segment with a
predecessor query (a bisect), interpolate the key's position, and
binary-search a window bounded by the error threshold (Section 4). Inserts
go to a fixed-size sorted buffer per segment; a full buffer triggers a merge
and re-segmentation of that page only (Section 5).

Error accounting (Section 5): for a user-facing error ``E`` and buffer
capacity ``B``, data is segmented with threshold ``E - B`` so that probing
the interpolation window *plus* the buffer never exceeds the ``E``-bounded
cost the user asked for.

Duplicate keys are allowed. A run of equal keys longer than the segmentation
threshold is split across segments sharing a start key; ``get`` returns one
matching occurrence, ``lookup_all`` stitches the full set back together.

All routing, buffering, split and delete plumbing lives in
:class:`repro.core.paged_index.PagedIndexBase`, shared verbatim with the
fixed-page baseline so comparisons isolate exactly the paper's contribution:
data-aware variable-sized pages plus interpolation search.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.btree import DEFAULT_BRANCHING
from repro.core.errors import InvalidParameterError
from repro.core.page import SegmentPage
from repro.core.paged_index import PagedIndexBase
from repro.core.segmentation import shrinking_cone

__all__ = ["FITingTree"]


class FITingTree(PagedIndexBase):
    """A bounded-approximate clustered index over sorted keys.

    Parameters
    ----------
    keys:
        Sorted (ascending, duplicates allowed) array-like of numeric keys.
        ``None`` or empty builds an empty index.
    values:
        Optional payloads aligned with ``keys``. When omitted the index
        stores row ids ``0..n-1`` and assigns fresh row ids on insert.
    error:
        User-facing error bound ``E`` (the paper's tunable knob). Must
        exceed ``buffer_capacity``.
    buffer_capacity:
        Per-segment insert buffer size ``B``; defaults to ``error // 2``
        (the paper's experimental setting). ``0`` builds a read-only index
        segmented at the full error.
    accept:
        Cone accept test: ``"paper"`` (default) or ``"exact"``.
    search:
        In-segment search strategy: ``"binary"`` (default), ``"linear"``
        (fastest for tiny errors, paper Section 4.1.2) or ``"exponential"``
        (cost follows the actual prediction miss, not the bound).
    branching, fill, counter:
        Shape of the paper's tree over the segments (which sizes the
        index and prices its routing) and the instrumentation; see
        :class:`repro.core.paged_index.PagedIndexBase`.

    Examples
    --------
    >>> import numpy as np
    >>> keys = np.sort(np.random.default_rng(0).uniform(0, 1e6, 100_000))
    >>> index = FITingTree(keys, error=128)
    >>> bool(index.get(keys[42]) == 42)
    True
    >>> index.insert(123.456, 999_999)
    >>> index.get(123.456)
    999999
    """

    def __init__(
        self,
        keys=None,
        values=None,
        *,
        error: float = 64.0,
        buffer_capacity: Optional[int] = None,
        accept: str = "paper",
        search: str = "binary",
        branching: int = DEFAULT_BRANCHING,
        fill: float = 1.0,
        counter: Any = None,
    ) -> None:
        if search not in ("binary", "linear", "exponential"):
            raise InvalidParameterError(
                f"search must be binary | linear | exponential, got {search!r}"
            )
        self.search_mode = search
        if buffer_capacity is None:
            buffer_capacity = int(error) // 2
        if buffer_capacity < 0:
            raise InvalidParameterError(
                f"buffer_capacity must be >= 0, got {buffer_capacity}"
            )
        if not error > buffer_capacity:
            raise InvalidParameterError(
                f"error ({error}) must exceed buffer_capacity ({buffer_capacity})"
            )
        self.error = float(error)
        self.buffer_capacity = int(buffer_capacity)
        #: Segmentation threshold ``E - B`` (Section 5).
        self.seg_error = self.error - self.buffer_capacity
        self.page_search_error = self.seg_error
        #: Paper size model: start key + slope + pointer per segment.
        self.metadata_bytes_per_page = 24
        self._accept = accept
        super().__init__(
            keys, values, branching=branching, fill=fill, counter=counter
        )

    # ------------------------------------------------------------------

    @property
    def n_segments(self) -> int:
        """Number of segments (leaf entries of the paper's tree)."""
        return self.n_pages

    def _make_pages(
        self, keys: np.ndarray, values: np.ndarray
    ) -> List[SegmentPage]:
        segments = shrinking_cone(keys, self.seg_error, accept=self._accept)
        return [
            SegmentPage(
                seg.start_key,
                seg.slope,
                keys[seg.start_pos : seg.end_pos],
                values[seg.start_pos : seg.end_pos],
            )
            for seg in segments
        ]

    def _snapshot_params(self) -> Dict[str, Any]:
        """Constructor kwargs reproducing this tree's configuration
        (see :meth:`repro.core.paged_index.PagedIndexBase.to_state`)."""
        return {
            "error": self.error,
            "buffer_capacity": self.buffer_capacity,
            "accept": self._accept,
            "search": self.search_mode,
            "branching": self.branching,
            "fill": self.fill,
        }

    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        out.update(
            n_segments=self.n_segments,
            avg_segment_len=out["avg_page_len"],
            error=self.error,
            seg_error=self.seg_error,
            accept=self._accept,
        )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FITingTree(n={len(self)}, segments={self.n_segments}, "
            f"error={self.error}, buffer={self.buffer_capacity})"
        )
