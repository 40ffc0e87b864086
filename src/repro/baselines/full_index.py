"""The "Full" baseline: a dense B+ tree with one entry per distinct key.

The paper treats the full (dense) index as the best-case lookup baseline:
every distinct key has its own tree entry, so lookups are a single tree
descent with no in-page search, at the cost of an index that grows linearly
with the number of distinct keys — the storage overhead the FITing-Tree is
designed to eliminate.

Duplicates share one tree entry whose value is the ordered list of payloads
("one entry (key and pointer) for each distinct value", Section 1).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.btree import BPlusTree, DEFAULT_BRANCHING
from repro.core.errors import (
    InvalidParameterError,
    KeyNotFoundError,
    NotSortedError,
)

__all__ = ["FullIndex"]


class _Multi:
    """Internal wrapper marking a duplicate-key entry (list of values)."""

    __slots__ = ("values",)

    def __init__(self, values: List[Any]) -> None:
        self.values = values


class FullIndex:
    """Dense clustered index: every distinct key is a B+ tree entry."""

    def __init__(
        self,
        keys=None,
        values=None,
        *,
        branching: int = DEFAULT_BRANCHING,
        fill: float = 1.0,
        counter: Any = None,
    ) -> None:
        self._tree = BPlusTree(branching=branching, counter=counter)
        self._n = 0

        if keys is None:
            keys = np.empty(0, dtype=np.float64)
        keys = np.asarray(keys, dtype=np.float64)
        if np.any(keys[1:] < keys[:-1]):
            raise NotSortedError("build keys must be sorted ascending")
        self._auto_rowid = values is None
        if values is None:
            values = np.arange(len(keys), dtype=np.int64)
        elif len(values) != len(keys):
            raise InvalidParameterError(
                f"values length {len(values)} != keys length {len(keys)}"
            )
        self._next_rowid = len(keys)

        if len(keys):
            pairs: List[Tuple[float, Any]] = []
            uniq, starts = np.unique(keys, return_index=True)
            bounds = list(starts) + [len(keys)]
            for key, a, b in zip(uniq, bounds, bounds[1:]):
                if b - a == 1:
                    pairs.append((float(key), values[a]))
                else:
                    pairs.append((float(key), _Multi([values[i] for i in range(a, b)])))
            self._tree.bulk_load(pairs, fill=fill)
            self._n = len(keys)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def counter(self) -> Any:
        """Access counter charged by every operation, the tree's included."""
        return self._tree.counter

    @counter.setter
    def counter(self, value: Any) -> None:
        self._tree.counter = value

    @property
    def branching(self) -> int:
        return self._tree.branching

    @property
    def n_entries(self) -> int:
        """Distinct keys indexed (tree entries)."""
        return len(self._tree)

    @property
    def height(self) -> int:
        return self._tree.height

    def model_bytes(self) -> int:
        """Modeled size: the dense tree plus per-duplicate row pointers.

        Every distinct key costs a 16-byte tree entry; each *additional*
        occurrence of a duplicated key still needs an 8-byte row pointer in
        the entry's posting list — a dense index must reference all
        matching rows. (This is what keeps the full index the largest
        structure even on duplicate-heavy data such as the Figure 9 step
        distribution.)
        """
        duplicates = self._n - self.n_entries
        return self._tree.model_bytes() + 8 * max(0, duplicates)

    def stats(self) -> Dict[str, Any]:
        return {
            "n": self._n,
            "n_entries": self.n_entries,
            "height": self.height,
            "model_bytes": self.model_bytes(),
        }

    # ------------------------------------------------------------------

    def get(self, key: float, default: Any = None) -> Any:
        if self.counter is not None:
            self.counter.op()
        stored = self._tree.get(float(key), default)
        if isinstance(stored, _Multi):
            return stored.values[0]
        return stored

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
        if self.counter is not None:
            self.counter.op()
        sentinel = object()
        stored = self._tree.get(float(key), sentinel)
        if stored is sentinel:
            return []
        if isinstance(stored, _Multi):
            return list(stored.values)
        return [stored]

    def bulk_lookup(self, queries, default: Any = None) -> List[Any]:
        return [self.get(q, default) for q in np.asarray(queries, dtype=np.float64)]

    def range_items(
        self,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Iterator[Tuple[float, Any]]:
        if self.counter is not None:
            self.counter.op()
        for key, stored in self._tree.range_items(lo, hi, include_lo, include_hi):
            if isinstance(stored, _Multi):
                for value in stored.values:
                    yield key, value
            else:
                yield key, stored

    def items(self) -> Iterator[Tuple[float, Any]]:
        return self.range_items()

    def keys(self) -> Iterator[float]:
        for k, _ in self.items():
            yield k

    # ------------------------------------------------------------------

    def _resolve_value(self, value: Any) -> Any:
        if value is not None or not self._auto_rowid:
            return value
        rowid = self._next_rowid
        self._next_rowid += 1
        return rowid

    def insert(self, key: float, value: Any = None) -> None:
        key = float(key)
        value = self._resolve_value(value)
        if self.counter is not None:
            self.counter.op()
        sentinel = object()
        stored = self._tree.get(key, sentinel)
        if stored is sentinel:
            self._tree.insert(key, value)
        elif isinstance(stored, _Multi):
            stored.values.append(value)
        else:
            self._tree.insert(key, _Multi([stored, value]))
        self._n += 1

    def delete(self, key: float) -> Any:
        """Remove one occurrence of ``key``; returns its value."""
        key = float(key)
        if self.counter is not None:
            self.counter.op()
        sentinel = object()
        stored = self._tree.get(key, sentinel)
        if stored is sentinel:
            raise KeyNotFoundError(key)
        if isinstance(stored, _Multi):
            value = stored.values.pop(0)
            if len(stored.values) == 1:
                self._tree.insert(key, stored.values[0])
        else:
            value = stored
            self._tree.delete(key)
        self._n -= 1
        return value

    def validate(self) -> None:
        self._tree.validate()
        total = 0
        for _, stored in self._tree.items():
            total += len(stored.values) if isinstance(stored, _Multi) else 1
        if total != self._n:
            raise InvalidParameterError(
                f"element count mismatch: tree={total} cached={self._n}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FullIndex(n={self._n}, entries={self.n_entries})"
