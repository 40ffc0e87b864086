"""Parameter-sweep helpers shared by benchmarks and examples."""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Sequence

import numpy as np

from repro.core.errors import InvalidParameterError

__all__ = ["geometric_grid", "sweep", "crossover"]


def geometric_grid(lo: float, hi: float, per_decade: int = 3) -> List[float]:
    """Log-spaced grid from ``lo`` to ``hi`` inclusive."""
    if lo <= 0 or hi < lo or per_decade < 1:
        raise InvalidParameterError("need 0 < lo <= hi and per_decade >= 1")
    n = max(2, int(round(np.log10(hi / lo) * per_decade)) + 1)
    return [float(x) for x in np.geomspace(lo, hi, n)]


def sweep(
    fn: Callable[[Any], Dict[str, Any]],
    grid: Iterable[Any],
    param_name: str = "param",
) -> List[Dict[str, Any]]:
    """Evaluate ``fn`` over ``grid``; one result row per grid point.

    ``fn`` returns a dict of measurements; the swept value is added under
    ``param_name``.
    """
    rows: List[Dict[str, Any]] = []
    for value in grid:
        row = dict(fn(value))
        row[param_name] = value
        rows.append(row)
    return rows


def crossover(
    xs: Sequence[float], ys_a: Sequence[float], ys_b: Sequence[float]
) -> float | None:
    """First x where series A drops to or below series B (None if never).

    The "where curves cross" figure of a sweep (e.g. the error at which
    the FITing-Tree matches the full index).
    """
    if not (len(xs) == len(ys_a) == len(ys_b)):
        raise InvalidParameterError("crossover needs equal-length series")
    for x, a, b in zip(xs, ys_a, ys_b):
        if a <= b:
            return float(x)
    return None
