"""The "Binary" baseline: binary search over the sorted data, zero index.

The paper includes plain binary search as the extreme point of the
size/latency trade-off: it stores no index at all ("its size is zero"), so
its lookup cost is ``log2(n)`` random accesses into the data itself. It is
also the behaviour a FITing-Tree converges to when the error threshold
reaches the data size (one giant segment).

Inserts/deletes are supported for API parity but are O(n) array edits —
binary search is a read-only baseline in the paper and in the benchmarks.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.errors import (
    InvalidParameterError,
    KeyNotFoundError,
    NotSortedError,
)

__all__ = ["BinarySearchIndex"]


class BinarySearchIndex:
    """Sorted array + ``searchsorted``; ``model_bytes() == 0``."""

    def __init__(
        self,
        keys=None,
        values=None,
        *,
        counter: Any = None,
    ) -> None:
        self.counter = counter
        if keys is None:
            keys = np.empty(0, dtype=np.float64)
        self._keys = np.asarray(keys, dtype=np.float64).copy()
        if np.any(self._keys[1:] < self._keys[:-1]):
            raise NotSortedError("build keys must be sorted ascending")
        self._auto_rowid = values is None
        if values is None:
            values = np.arange(len(self._keys), dtype=np.int64)
        elif len(values) != len(self._keys):
            raise InvalidParameterError(
                f"values length {len(values)} != keys length {len(self._keys)}"
            )
        self._values = np.asarray(values).copy()
        self._next_rowid = len(self._keys)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    def model_bytes(self) -> int:
        """Binary search keeps no auxiliary structure at all."""
        return 0

    def stats(self) -> Dict[str, Any]:
        return {"n": len(self._keys), "model_bytes": 0}

    def _count_search(self) -> None:
        if self.counter is not None:
            self.counter.op()
            self.counter.segment_binary_search(len(self._keys))

    def _first_index(self, key: float) -> int:
        i = int(np.searchsorted(self._keys, key, side="left"))
        if i < len(self._keys) and self._keys[i] == key:
            return i
        return -1

    def get(self, key: float, default: Any = None) -> Any:
        self._count_search()
        i = self._first_index(float(key))
        return self._values[i] if i >= 0 else default

    def __contains__(self, key: float) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def __getitem__(self, key: float) -> Any:
        sentinel = object()
        value = self.get(key, sentinel)
        if value is sentinel:
            raise KeyNotFoundError(key)
        return value

    def lookup_all(self, key: float) -> List[Any]:
        self._count_search()
        key = float(key)
        lo = int(np.searchsorted(self._keys, key, side="left"))
        hi = int(np.searchsorted(self._keys, key, side="right"))
        return [self._values[i] for i in range(lo, hi)]

    def bulk_lookup(self, queries, default: Any = None) -> List[Any]:
        queries = np.asarray(queries, dtype=np.float64)
        idx = np.searchsorted(self._keys, queries, side="left")
        out: List[Any] = []
        n = len(self._keys)
        for q, i in zip(queries, idx):
            if self.counter is not None:
                self.counter.op()
                self.counter.segment_binary_search(n)
            if i < n and self._keys[i] == q:
                out.append(self._values[i])
            else:
                out.append(default)
        return out

    def range_items(
        self,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Iterator[Tuple[float, Any]]:
        self._count_search()
        n = len(self._keys)
        a = 0
        if lo is not None:
            side = "left" if include_lo else "right"
            a = int(np.searchsorted(self._keys, lo, side=side))
        b = n
        if hi is not None:
            side = "right" if include_hi else "left"
            b = int(np.searchsorted(self._keys, hi, side=side))
        for i in range(a, b):
            yield float(self._keys[i]), self._values[i]

    def items(self) -> Iterator[Tuple[float, Any]]:
        return self.range_items()

    def keys(self) -> Iterator[float]:
        for k, _ in self.items():
            yield k

    # ------------------------------------------------------------------

    def insert(self, key: float, value: Any = None) -> None:
        """O(n) sorted insert (API parity; not benchmarked for writes)."""
        key = float(key)
        if value is None and self._auto_rowid:
            value = self._next_rowid
            self._next_rowid += 1
        if self.counter is not None:
            self.counter.op()
        i = int(np.searchsorted(self._keys, key, side="right"))
        self._keys = np.insert(self._keys, i, key)
        self._values = np.insert(self._values, i, value)

    def delete(self, key: float) -> Any:
        key = float(key)
        if self.counter is not None:
            self.counter.op()
        i = self._first_index(key)
        if i < 0:
            raise KeyNotFoundError(key)
        value = self._values[i]
        self._keys = np.delete(self._keys, i)
        self._values = np.delete(self._values, i)
        return value

    def validate(self) -> None:
        if len(self._keys) != len(self._values):
            raise InvalidParameterError("keys/values length mismatch")
        if np.any(self._keys[1:] < self._keys[:-1]):
            raise InvalidParameterError("keys not sorted")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BinarySearchIndex(n={len(self._keys)})"
