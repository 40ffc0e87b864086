"""Experiment harness: registry, result type, and shared builders.

Every table/figure of the paper has an experiment module under
``repro.bench`` that registers a function here. Experiments return
:class:`ExperimentResult` — rows (printed as the paper-style table), notes
(the shape checks: who wins, by what factor, where curves cross), and the
parameters used. ``python -m repro.bench <name>`` runs one; ``all`` runs
the full suite.

All experiments accept ``n`` (dataset size) and ``seed`` and default to
sizes that complete in seconds-to-a-minute in CPython;
docs/BENCHMARKS.md lists them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

import numpy as np

from repro.baselines import BinarySearchIndex, FixedPageIndex, FullIndex
from repro.core.errors import InvalidParameterError
from repro.core.fiting_tree import FITingTree
from repro.bench.reporting import format_table

__all__ = [
    "ExperimentResult",
    "register_experiment",
    "run_experiment",
    "experiment_names",
    "build_all_indexes",
]


@dataclass
class ExperimentResult:
    """Rows + shape notes from one experiment run."""

    name: str
    title: str
    rows: List[Dict[str, Any]]
    notes: List[str] = field(default_factory=list)
    params: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        parts = [format_table(self.rows, title=f"[{self.name}] {self.title}")]
        if self.params:
            parts.append(
                "params: " + ", ".join(f"{k}={v}" for k, v in self.params.items())
            )
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)


_EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {}


def register_experiment(name: str):
    """Decorator: register an experiment function under ``name``."""

    def deco(fn: Callable[..., ExperimentResult]):
        if name in _EXPERIMENTS:
            raise InvalidParameterError(f"experiment {name!r} already registered")
        _EXPERIMENTS[name] = fn
        return fn

    return deco


def experiment_names() -> List[str]:
    return sorted(_EXPERIMENTS)


def run_experiment(name: str, **kwargs: Any) -> ExperimentResult:
    """Run the experiment registered under ``name``."""
    try:
        fn = _EXPERIMENTS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown experiment {name!r}; known: {experiment_names()}"
        ) from None
    return fn(**kwargs)


# ----------------------------------------------------------------------
# Shared builders
# ----------------------------------------------------------------------

def build_all_indexes(
    keys: np.ndarray,
    error: float,
    page_size: int,
    writable: bool = False,
) -> Dict[str, Any]:
    """The paper's four structures over one dataset, identically configured.

    ``writable=False`` builds the FITing-Tree/Fixed variants without insert
    buffers (pure lookup experiments); ``True`` gives both the paper's
    half-sized buffers.
    """
    if writable:
        fiting = FITingTree(keys, error=error, buffer_capacity=int(error) // 2)
        fixed = FixedPageIndex(
            keys, page_size=page_size, buffer_capacity=page_size // 2
        )
    else:
        fiting = FITingTree(keys, error=error, buffer_capacity=0)
        fixed = FixedPageIndex(keys, page_size=page_size, buffer_capacity=0)
    return {
        "fiting": fiting,
        "fixed": fixed,
        "full": FullIndex(keys),
        "binary": BinarySearchIndex(keys),
    }
