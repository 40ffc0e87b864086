"""Non-clustered (secondary) FITing-Tree index (paper Section 2.2.1).

A secondary index targets an *unsorted* column that may contain duplicates.
The paper adds one level versus the clustered layout: all column values are
materialized in sorted order in *key pages* (value + pointer to the table
row), and those key pages are segmented with exactly the same
error-bounded strategy. This module implements that design by sorting the
column once (stable, so ties keep table order) and delegating to the
clustered :class:`repro.core.fiting_tree.FITingTree` over the sorted values
with row ids as payloads.

Size accounting: the sorted key-page level costs 16 bytes per element in
*any* secondary index (the paper: "this overhead occurs in any non-clustered
index"), so :meth:`model_bytes` reports only the structure above it — the
part the FITing-Tree shrinks — while :meth:`key_pages_bytes` exposes the
common level for completeness.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.btree import DEFAULT_BRANCHING
from repro.core.errors import InvalidParameterError
from repro.core.fiting_tree import FITingTree

__all__ = ["SecondaryFITingTree"]


class SecondaryFITingTree:
    """Error-bounded secondary index: column value -> row ids.

    Parameters
    ----------
    column:
        Array-like of (unsorted, possibly duplicated) attribute values, one
        per table row.
    rowids:
        Optional explicit row ids aligned with ``column``; defaults to
        ``0..n-1`` (the row's position in the table).
    error, buffer_capacity, accept, branching, fill, counter:
        As for :class:`repro.core.fiting_tree.FITingTree`.
    """

    def __init__(
        self,
        column=None,
        rowids=None,
        *,
        error: float = 64.0,
        buffer_capacity: Optional[int] = None,
        accept: str = "paper",
        branching: int = DEFAULT_BRANCHING,
        fill: float = 1.0,
        counter: Any = None,
    ) -> None:
        if column is None:
            column = np.empty(0, dtype=np.float64)
        column = np.asarray(column, dtype=np.float64)
        if rowids is None:
            rowids = np.arange(len(column), dtype=np.int64)
        else:
            rowids = np.asarray(rowids, dtype=np.int64)
            if len(rowids) != len(column):
                raise InvalidParameterError(
                    f"rowids length {len(rowids)} != column length {len(column)}"
                )
        order = np.argsort(column, kind="stable")
        self._index = FITingTree(
            column[order],
            rowids[order],
            error=error,
            buffer_capacity=buffer_capacity,
            accept=accept,
            branching=branching,
            fill=fill,
            counter=counter,
        )

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    @property
    def counter(self) -> Any:
        return self._index.counter

    @counter.setter
    def counter(self, value: Any) -> None:
        self._index.counter = value

    @property
    def branching(self) -> int:
        return self._index.branching

    @property
    def error(self) -> float:
        return self._index.error

    @property
    def n_segments(self) -> int:
        return self._index.n_segments

    @property
    def height(self) -> int:
        return self._index.height

    def model_bytes(self) -> int:
        """Index overhead above the key-page level (tree + segment metadata)."""
        return self._index.model_bytes()

    def key_pages_bytes(self) -> int:
        """The sorted value+pointer level every secondary index must store."""
        return 16 * len(self._index)

    def stats(self) -> Dict[str, Any]:
        out = self._index.stats()
        out["key_pages_bytes"] = self.key_pages_bytes()
        return out

    # ------------------------------------------------------------------

    def lookup(self, value: float) -> List[int]:
        """Row ids of every row whose column equals ``value`` (table order
        among duplicates)."""
        return self._index.lookup_all(value)

    def get(self, value: float, default: Any = None) -> Any:
        """One matching row id, or ``default``."""
        return self._index.get(value, default)

    def __contains__(self, value: float) -> bool:
        return value in self._index

    def bulk_lookup(self, queries, default: Any = None) -> List[Any]:
        """Vectorized :meth:`get` over many query values."""
        return self._index.bulk_lookup(queries, default)

    def range_rowids(
        self,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Iterator[int]:
        """Row ids of rows with column value in ``[lo, hi]``.

        Row ids stream back in *value* order; fetching the rows themselves
        is random access into the table, as for any non-clustered index
        (paper Section 4.2).
        """
        for _, rowid in self._index.range_items(lo, hi, include_lo, include_hi):
            yield rowid

    def range_items(
        self,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Iterator[Tuple[float, int]]:
        """``(value, rowid)`` pairs with value in ``[lo, hi]``."""
        return self._index.range_items(lo, hi, include_lo, include_hi)

    def items(self) -> Iterator[Tuple[float, int]]:
        return self._index.items()

    # ------------------------------------------------------------------

    def insert(self, value: float, rowid: int) -> None:
        """Index a new row's column value."""
        self._index.insert(float(value), int(rowid))

    def delete(self, value: float) -> int:
        """Unindex one row with this column value; returns its row id."""
        return self._index.delete(float(value))

    def delete_row(self, value: float, rowid: int) -> bool:
        """Unindex the *specific* row ``rowid`` under ``value``.

        Returns True if the (value, rowid) pair was indexed and is now
        removed — the operation a table delete actually needs when the
        column value is duplicated.
        """
        return self._index.delete_value(float(value), int(rowid))

    def validate(self) -> None:
        self._index.validate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SecondaryFITingTree(n={len(self)}, segments={self.n_segments}, "
            f"error={self.error})"
        )
