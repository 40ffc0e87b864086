"""Stack-wide telemetry: metrics registry, batch tracing, and exporters.

``repro.obs`` is the substrate every other layer reports into — it
imports nothing above :mod:`repro.core`, and the engine/serve/cluster
layers hold at most an optional reference to it. The public surface is
the :class:`Telemetry` facade:

>>> from repro import open_engine
>>> from repro.obs import Telemetry
>>> tel = Telemetry(mode="full")                   # doctest: +SKIP
>>> eng = open_engine(keys, telemetry=tel)         # doctest: +SKIP
>>> eng.get_batch(queries)                         # doctest: +SKIP
>>> tel.snapshot()["metrics"]["repro_engine_keys_total"]  # doctest: +SKIP

Three modes, chosen for cost:

* ``"off"`` — no ``Telemetry`` object at all (``Telemetry.from_mode``
  returns ``None``); instrumented hot paths reduce to one
  ``is not None`` check per *batch*, benchmarked at ≤2% overhead by
  ``python -m repro.bench obs``.
* ``"metrics"`` — counters/gauges/histograms update; tracing stays off.
* ``"full"`` — metrics plus span recording into the bounded ring buffer,
  plus workload profiling and the slow-op log (see below).

Two orthogonal add-ons compose with the base modes:

* **Workload profiling** (:mod:`repro.obs.workload`) — key-range access
  heatmaps, hot-key sketch, read/write mix. On by default in ``"full"``;
  the string modes ``"workload"`` (= metrics + profiling, no tracing)
  and ``"full+workload"`` (explicit alias of ``"full"``) select it from
  config knobs. Budgeted at ≤5% ``get_batch`` overhead by
  ``python -m repro.bench obs``.
* **Slow-op log** (:mod:`repro.obs.taillog`) — requires spans, so it
  exists exactly when tracing does (mode ``"full"``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Union

from repro.core.errors import InvalidParameterError
from repro.obs.export import snapshot, to_prometheus
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_US,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.taillog import SlowOpLog
from repro.obs.trace import Span, Tracer, span_record
from repro.obs.workload import SpaceSaving, WorkloadProfiler

__all__ = [
    "Telemetry",
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
    "span_record",
    "snapshot",
    "to_prometheus",
    "DEFAULT_LATENCY_BUCKETS_US",
    "WorkloadProfiler",
    "SpaceSaving",
    "SlowOpLog",
    "stats_sections",
]

#: Accepted ``telemetry=`` mode strings (``"off"`` maps to ``None``).
MODES = ("off", "metrics", "workload", "full", "full+workload")


def stats_sections(
    telemetry: Optional["Telemetry"],
) -> tuple:
    """The ``(workload, slow_ops)`` blocks an engine's ``stats()`` reports.

    Shared by :class:`~repro.engine.ShardedEngine` and
    :class:`~repro.cluster.ClusterEngine` so both backends emit the
    identical schema: ``workload`` is the profiler snapshot with an
    embedded ``skew`` report (or ``None`` when profiling is off) and
    ``slow_ops`` is the taillog summary (or ``None`` outside mode
    ``"full"``).
    """
    if telemetry is None:
        return None, None
    workload = getattr(telemetry, "workload", None)
    wl_block = None
    if workload is not None:
        wl_block = workload.snapshot()
        wl_block["skew"] = workload.skew_report()
    taillog = getattr(telemetry, "taillog", None)
    return wl_block, None if taillog is None else taillog.summary()


class Telemetry:
    """One deployment's telemetry bundle: a registry plus (optionally) a tracer.

    Instances are always *enabled* — the disabled state is represented by
    the absence of an instance (``Telemetry.from_mode("off") is None``),
    so instrumented code pays a single ``is not None`` test when
    telemetry is off rather than a method call.
    """

    def __init__(
        self,
        mode: str = "full",
        *,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        trace_capacity: int = 4096,
        workload: Optional[bool] = None,
        slow_capacity: int = 256,
    ) -> None:
        if mode not in ("metrics", "full"):
            raise InvalidParameterError(
                f"Telemetry mode must be 'metrics' or 'full', got {mode!r} "
                "(use Telemetry.from_mode() to map 'off' to None)"
            )
        self.mode = mode
        self.registry = registry if registry is not None else MetricsRegistry()
        if mode == "full":
            self.tracer = tracer if tracer is not None else Tracer(trace_capacity)
            self.taillog: Optional[SlowOpLog] = SlowOpLog(slow_capacity)
        else:
            self.tracer = None
            self.taillog = None
        # Workload profiling defaults on in "full"; the profiler itself
        # needs the engine's routing cuts, so it is instantiated lazily
        # by the first engine that adopts this bundle (ensure_workload).
        self.workload_enabled = (
            (mode == "full") if workload is None else bool(workload)
        )
        self.workload: Optional[WorkloadProfiler] = None

    @staticmethod
    def from_mode(
        mode: Union[str, "Telemetry", None],
    ) -> Optional["Telemetry"]:
        """Resolve a config knob value to a ``Telemetry`` or ``None``.

        ``None``/``"off"`` → ``None``; an existing instance passes
        through (so a server and its engine can share one registry);
        ``"metrics"``/``"full"`` construct a fresh bundle;
        ``"workload"`` is metrics plus workload profiling (no tracing)
        and ``"full+workload"`` is an explicit alias of ``"full"``
        (which profiles by default).
        """
        if mode is None or mode == "off":
            return None
        if isinstance(mode, Telemetry):
            return mode
        if mode in ("metrics", "full"):
            return Telemetry(mode=mode)
        if mode == "workload":
            return Telemetry(mode="metrics", workload=True)
        if mode == "full+workload":
            return Telemetry(mode="full", workload=True)
        raise InvalidParameterError(
            f"telemetry must be one of {MODES} or a Telemetry instance, "
            f"got {mode!r}"
        )

    # -- tracing -------------------------------------------------------

    @property
    def tracing(self) -> bool:
        """Whether span recording is active (mode ``"full"``)."""
        return self.tracer is not None

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Optional[Span]]:
        """Open a span if tracing, else a no-op block yielding ``None``."""
        if self.tracer is None:
            yield None
        else:
            with self.tracer.span(name, **attrs) as sp:
                yield sp

    def ctx(self) -> Optional[tuple]:
        """Ambient ``(trace_id, span_id)`` when tracing, else ``None``."""
        return self.tracer.ctx() if self.tracer is not None else None

    # -- workload profiling --------------------------------------------

    def ensure_workload(self, cuts: Any) -> Optional[WorkloadProfiler]:
        """Instantiate the workload profiler for an engine's cuts.

        Engines call this once at telemetry registration. Returns the
        (possibly pre-existing) profiler, or ``None`` when workload
        profiling is disabled for this bundle. A profiler created by an
        earlier engine is reused — a server and its engine share one
        bundle, and the cuts are the same.
        """
        if not self.workload_enabled:
            return None
        if self.workload is None:
            self.workload = WorkloadProfiler(cuts)
        return self.workload

    # -- export --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able snapshot of the registry (and tracer when tracing).

        Returns
        -------
        dict
            See :func:`repro.obs.export.snapshot`; ``"mode"`` is added so
            consumers can tell what was being recorded, plus
            ``"workload"`` (profiler snapshot + skew report, or ``None``)
            and ``"slow_ops"`` (taillog summary, or ``None``).
        """
        out = snapshot(self.registry, self.tracer)
        out["mode"] = self.mode
        if self.workload is not None:
            out["workload"] = self.workload.snapshot()
            out["workload"]["skew"] = self.workload.skew_report()
        else:
            out["workload"] = None
        out["slow_ops"] = (
            self.taillog.summary() if self.taillog is not None else None
        )
        return out

    def prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        return to_prometheus(self.registry)
