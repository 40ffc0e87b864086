"""The engine protocols: one contract, every backend.

FITing-Tree's index contract — bounded-error lookup, range scan, buffered
insert, widening delete — does not care how segments are stored or
executed. This module writes that contract down once, as structural
``typing.Protocol`` classes (``isinstance``-checkable at runtime, checkable
statically by any structural type checker), so the three executors of it —
the in-process :class:`~repro.engine.ShardedEngine`, the multi-process
:class:`~repro.cluster.ClusterEngine`, and any future backend opened
through :func:`repro.api.open_engine` — are interchangeable behind the
same verbs, and the serving layer (:mod:`repro.serve`) dispatches on the
protocol rather than on a concrete class.

Two protocols, smaller first:

* :class:`BatchEngine` — what the serving layer strictly requires: the
  scalar verbs (per-request fallback paths), the batch read/write verbs
  (the micro-batched hot path), and the monotonic ``version`` stamp the
  read-your-writes barrier records;
* :class:`EngineProtocol` — the complete CRUD surface: everything above
  plus ``delete`` / ``delete_batch``, ``stats()``, ``warm()`` and
  ``validate()``. Both shipped engines satisfy it; new backends should
  target it.

``warm()`` remains feature-detected by the serve layer, so a minimal
:class:`BatchEngine` still serves.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

__all__ = ["BatchEngine", "EngineProtocol"]


@runtime_checkable
class BatchEngine(Protocol):
    """Structural interface the :class:`~repro.serve.Server` dispatches on.

    Scalar verbs serve the per-request fallback paths; batch verbs serve
    the micro-batched hot path; ``version`` is the monotonic mutation
    stamp the read-your-writes barrier records.
    """

    def get(self, key: Any, default: Any = None) -> Any:
        """Scalar point lookup returning the value or ``default``."""
        ...

    def insert(self, key: float, value: Any = None) -> None:
        """Scalar insert of ``key -> value``."""
        ...

    def range_arrays(
        self,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
        include_lo: bool = True,
        include_hi: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One range scan as ``(keys, values)`` arrays."""
        ...

    def get_batch(self, queries, default: Any = None) -> np.ndarray:
        """Vectorized point lookups, one slot per query in request order.

        Parameters
        ----------
        queries:
            Key batch (float64-coercible); ``default`` fills miss slots.

        Returns
        -------
        numpy.ndarray
            One value per query.
        """
        ...

    def range_batch(
        self, bounds, include_lo: bool = True, include_hi: bool = True
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """One ``(keys, values)`` pair per ``[lo, hi]`` bounds row.

        Parameters
        ----------
        bounds:
            ``(n, 2)`` array of inclusive key bounds.

        Returns
        -------
        list of (numpy.ndarray, numpy.ndarray)
            Matching rows per bounds row, in key order.
        """
        ...

    def insert_batch(self, keys, values=None) -> None:
        """Bulk insert; returns once every key is applied (the fence).

        Parameters
        ----------
        keys:
            Keys to insert; ``values`` are aligned payloads (``None`` =
            engine-assigned row ids).
        """
        ...

    @property
    def version(self) -> int:
        """Monotonic engine-wide mutation stamp (the flush barrier)."""
        ...


@runtime_checkable
class EngineProtocol(BatchEngine, Protocol):
    """The complete CRUD engine contract every shipped backend satisfies.

    Extends :class:`BatchEngine` with the delete verbs (completing the
    create/read/update/delete batch surface the paper's Section 4.3
    delete discussion calls for), plus the operational verbs —
    ``stats()``, ``warm()``, ``validate()`` — that production harnesses
    (benches, the serve layer, the conformance suite) rely on.
    """

    def delete(self, key: float) -> Any:
        """Scalar delete of one occurrence of ``key``; returns its value."""
        ...

    def delete_batch(
        self, keys, *, missing: str = "raise", default: Any = None
    ) -> np.ndarray:
        """Bulk delete; returns once every removal is applied (the fence).

        Parameters
        ----------
        keys:
            Keys to delete (one occurrence removed per element);
            ``missing`` selects raise-vs-ignore for absent keys and
            ``default`` fills ignored miss slots.

        Returns
        -------
        numpy.ndarray
            One deleted value per request, in request order.
        """
        ...

    def stats(self) -> Dict[str, Any]:
        """Engine-level statistics (sizes, shard breakdown, cache rates)."""
        ...

    def warm(self) -> None:
        """Pre-build the read-path snapshots before taking traffic."""
        ...

    def validate(self) -> None:
        """Check every structural invariant; raise on violation."""
        ...
