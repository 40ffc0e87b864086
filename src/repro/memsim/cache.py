"""A set-associative LRU cache simulator with trace replay.

This is the detailed end of the latency-substitution substrate: where
:class:`repro.memsim.latency.LatencyModel` prices accesses by working-set
size, :class:`CacheSim` replays an actual address trace through a
set-associative LRU cache and reports hits/misses. The ablation benchmark
uses it to show *why* the fixed-page index develops the latency spike the
paper attributes to falling out of L2: the tree's hot upper levels stay
cached while ever more leaf accesses miss.

Addresses are plain integers (byte addresses); traces are any iterable of
``(address, size_bytes)`` pairs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.core.errors import InvalidParameterError

__all__ = ["CacheSim", "CacheStats"]


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class CacheSim:
    """A single-level set-associative LRU cache.

    Parameters
    ----------
    capacity_bytes:
        Total cache capacity. Must be a multiple of ``line_size * ways``.
    line_size:
        Cache line size in bytes (64 by default).
    ways:
        Associativity. ``ways >= n_lines`` gives a fully associative cache.
    """

    def __init__(
        self, capacity_bytes: int, line_size: int = 64, ways: int = 8
    ) -> None:
        if line_size <= 0 or capacity_bytes <= 0 or ways <= 0:
            raise InvalidParameterError("cache parameters must be positive")
        n_lines = capacity_bytes // line_size
        if n_lines == 0:
            raise InvalidParameterError("capacity smaller than one line")
        ways = min(ways, n_lines)
        if n_lines % ways != 0:
            raise InvalidParameterError(
                f"lines ({n_lines}) not divisible by ways ({ways})"
            )
        self.line_size = line_size
        self.ways = ways
        self.n_sets = n_lines // ways
        # Each set is an OrderedDict acting as an LRU list: key = line tag.
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def _touch_line(self, line: int) -> bool:
        """Access one cache line; return True on hit."""
        s = self._sets[line % self.n_sets]
        if line in s:
            s.move_to_end(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        s[line] = True
        if len(s) > self.ways:
            s.popitem(last=False)
        return False

    def access(self, address: int, size: int = 8) -> int:
        """Access ``size`` bytes at ``address``; return the number of misses."""
        if size <= 0:
            raise InvalidParameterError(f"size must be positive, got {size}")
        first = address // self.line_size
        last = (address + size - 1) // self.line_size
        misses = 0
        for line in range(first, last + 1):
            if not self._touch_line(line):
                misses += 1
        return misses

    def replay(self, trace: Iterable[Tuple[int, int]]) -> CacheStats:
        """Replay ``(address, size)`` pairs; return stats for this replay."""
        before_h, before_m = self.stats.hits, self.stats.misses
        for address, size in trace:
            self.access(address, size)
        return CacheStats(
            hits=self.stats.hits - before_h, misses=self.stats.misses - before_m
        )

    def reset(self) -> None:
        self._sets = [OrderedDict() for _ in range(self.n_sets)]
        self.stats = CacheStats()

