"""Bounded ring-buffer span tracing for a batch's end-to-end lifecycle.

One serve-layer request spends its life in five places: the batcher's
pending queue (submit → fence wait), the flush cycle (with a reason:
size, timer, idle or drain), the engine dispatch, worker compute — which
for :class:`~repro.cluster.engine.ClusterEngine` happens in a *different
process* on the far side of the shm lane protocol — and the gather that
scatters results back. :class:`Tracer` records each stage as a
:class:`Span` carrying a shared ``trace_id``, so one slow request can be
explained stage by stage across the process boundary.

Mechanics:

* **Ambient context.** The current ``(trace_id, span_id)`` rides a
  :class:`contextvars.ContextVar`, so nested ``with tracer.span(...)``
  blocks parent themselves without any plumbing — including across
  ``await`` points inside one asyncio task. It does *not* survive
  ``loop.run_in_executor`` (executor threads get an empty context).
* **Crossing processes.** A worker has no :class:`Tracer`. The parent
  serializes ``(trace_id, parent_span_id)`` into the control frame, the
  worker times its compute and returns plain span *dicts*
  (:func:`span_record`) in the reply, and the parent stitches them into
  its ring with :meth:`Tracer.ingest`. Span ids are prefixed with the
  originating pid so two processes can never collide.
* **Bounded.** Spans land in a ``deque(maxlen=capacity)`` ring; old
  traces fall off the back, ``dropped`` counts them, and recording never
  blocks or allocates beyond the span itself.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["Span", "Tracer", "span_record"]

#: Ambient (trace_id, span_id) of the innermost open span, if any.
_CURRENT: contextvars.ContextVar[Optional[Tuple[str, str]]] = (
    contextvars.ContextVar("repro_obs_trace", default=None)
)

_IDS = itertools.count(1)


def _new_id() -> str:
    """A process-unique id: ``<pid hex>-<counter hex>``.

    The pid prefix keeps ids from a worker process disjoint from the
    parent's without shared state or randomness.
    """
    return f"{os.getpid():x}-{next(_IDS):x}"


@dataclass
class Span:
    """One recorded stage of a traced operation.

    ``start`` is ``time.perf_counter()`` in the *recording* process —
    comparable within a process, not across the shm boundary (worker
    spans are ordered by their parent link, not their clock).
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start: float
    duration: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (what crosses the pipe and what export emits)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }


def span_record(
    name: str,
    trace_ctx: Tuple[str, str],
    start: float,
    duration: float,
    **attrs: Any,
) -> Dict[str, Any]:
    """Build a span dict in a process that has no :class:`Tracer`.

    Used by :mod:`repro.cluster.worker`: the worker receives
    ``trace_ctx = (trace_id, parent_span_id)`` inside the control frame,
    times its compute, and ships the resulting dict back in the reply for
    the parent to :meth:`Tracer.ingest`.

    Parameters
    ----------
    name:
        Stage name (e.g. ``"worker.compute"``).
    trace_ctx:
        ``(trace_id, parent_span_id)`` as received from the parent.
    start, duration:
        Local ``perf_counter`` timing of the stage.
    attrs:
        Free-form attributes (shard id, pid, batch size, ...).

    Returns
    -------
    dict
        A :meth:`Span.to_dict`-shaped record with a fresh pid-prefixed
        span id.
    """
    trace_id, parent_id = trace_ctx
    return {
        "trace_id": trace_id,
        "span_id": _new_id(),
        "parent_id": parent_id,
        "name": name,
        "start": start,
        "duration": duration,
        "attrs": attrs,
    }


class Tracer:
    """Span recorder with a fixed-capacity ring buffer.

    Thread-compatible for the serve layer's usage (spans are appended
    atomically to a deque); context propagation follows
    ``contextvars`` semantics — per asyncio task, not per thread pool.
    """

    def __init__(self, capacity: int = 4096) -> None:
        from collections import deque

        self.capacity = int(capacity)
        self._spans: "deque[Span]" = deque(maxlen=self.capacity)
        self.dropped_spans = 0
        self.dropped_malformed = 0

    @property
    def dropped(self) -> int:
        """Total spans lost, any cause (ring eviction + malformed ingest).

        Kept as the back-compat aggregate; :attr:`dropped_spans` (ring
        overflow — the silent one this counter used to hide) and
        :attr:`dropped_malformed` (bad worker records) split it.
        """
        return self.dropped_spans + self.dropped_malformed

    # -- recording -----------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a span around a block; parented by the ambient context.

        The yielded :class:`Span` is live: callers may add ``attrs`` or
        read ``trace_id``/``span_id`` (e.g. to serialize them into a
        control frame) while the block runs. Duration is stamped on exit,
        including the exception path.
        """
        parent = _CURRENT.get()
        if parent is None:
            trace_id, parent_id = _new_id(), None
        else:
            trace_id, parent_id = parent
        sp = Span(
            trace_id=trace_id,
            span_id=_new_id(),
            parent_id=parent_id,
            name=name,
            start=time.perf_counter(),
            duration=0.0,
            attrs=dict(attrs),
        )
        token = _CURRENT.set((sp.trace_id, sp.span_id))
        try:
            yield sp
        finally:
            _CURRENT.reset(token)
            sp.duration = time.perf_counter() - sp.start
            self._append(sp)

    def ctx(self) -> Optional[Tuple[str, str]]:
        """The ambient ``(trace_id, span_id)``, or ``None`` outside spans."""
        return _CURRENT.get()

    @contextmanager
    def attach(self, trace_ctx: Tuple[str, str]) -> Iterator[None]:
        """Adopt a foreign ``(trace_id, span_id)`` as the ambient context.

        The receiving side of a propagation boundary — a TCP server
        handling a request frame that carries the client's trace context —
        wraps its handling in ``with tracer.attach(ctx):`` so any spans it
        opens parent under the remote caller's span instead of starting a
        fresh local trace. Restores the previous ambient context on exit,
        including the exception path.
        """
        token = _CURRENT.set((str(trace_ctx[0]), str(trace_ctx[1])))
        try:
            yield
        finally:
            _CURRENT.reset(token)

    def ingest(self, records: Iterable[Dict[str, Any]]) -> None:
        """Stitch span dicts recorded by another process into the ring.

        Accepts :func:`span_record` / :meth:`Span.to_dict` shapes;
        malformed records are dropped rather than raised (a worker reply
        must never poison the parent's tracer).
        """
        for rec in records:
            try:
                self._append(
                    Span(
                        trace_id=rec["trace_id"],
                        span_id=rec["span_id"],
                        parent_id=rec.get("parent_id"),
                        name=rec["name"],
                        start=float(rec.get("start", 0.0)),
                        duration=float(rec.get("duration", 0.0)),
                        attrs=dict(rec.get("attrs", {})),
                    )
                )
            except (KeyError, TypeError, ValueError):
                self.dropped_malformed += 1

    def _append(self, sp: Span) -> None:
        if len(self._spans) == self.capacity:
            self.dropped_spans += 1
        self._spans.append(sp)

    # -- inspection ----------------------------------------------------

    def spans(self) -> List[Span]:
        """All buffered spans, oldest first."""
        return list(self._spans)

    def traces(self) -> Dict[str, List[Span]]:
        """Buffered spans grouped by ``trace_id`` (insertion-ordered)."""
        out: Dict[str, List[Span]] = {}
        for sp in self._spans:
            out.setdefault(sp.trace_id, []).append(sp)
        return out

    def find(self, name: str) -> List[Span]:
        """Buffered spans whose stage name equals ``name``."""
        return [sp for sp in self._spans if sp.name == name]

    def tree(self, trace_id: str) -> Dict[str, List[Span]]:
        """One trace as a ``parent span_id -> children`` adjacency map.

        Roots (no parent, or parent evicted from the ring) appear under
        the ``""`` key.

        Parameters
        ----------
        trace_id:
            The trace to materialize.

        Returns
        -------
        dict
            ``{parent_span_id_or_empty: [child spans...]}``.
        """
        spans = [sp for sp in self._spans if sp.trace_id == trace_id]
        ids = {sp.span_id for sp in spans}
        out: Dict[str, List[Span]] = {}
        for sp in spans:
            key = sp.parent_id if sp.parent_id in ids else ""
            out.setdefault(key, []).append(sp)
        return out

    def clear(self) -> None:
        """Drop every buffered span (does not reset ``dropped``)."""
        self._spans.clear()
