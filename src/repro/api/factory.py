"""Declarative construction: one config, every backend.

Before this module, every bench, example and test hand-rolled its own
backend construction — ``ShardedEngine(keys, n_shards=..., error=...)``
here, ``ClusterEngine(...)`` there, ``Server(engine, max_batch=...)`` on
top — and switching executors meant editing call sites. The factory
replaces that with one declarative :class:`EngineConfig` plus two entry
points:

* :func:`open_engine` — build the index backend the config names
  (``executor="single" | "sharded" | "cluster"``) over one dataset;
* :func:`open_server` — the same, wrapped in a
  :class:`~repro.serve.Server` configured from the serve knobs.

Every returned engine satisfies :class:`repro.api.protocol.EngineProtocol`
(the cross-backend conformance suite constructs all its backends through
here), so application code written against the protocol runs unchanged on
any executor::

    from repro import EngineConfig, open_engine

    engine = open_engine(keys, config=EngineConfig(executor="cluster",
                                                   n_shards=4, error=128))
    values = engine.get_batch(queries)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Optional

import numpy as np

from repro.core.errors import InvalidParameterError
from repro.obs import MODES as _TELEMETRY_MODES
from repro.obs import Telemetry
from repro.wal.store import DURABILITY_MODES as _DURABILITY_MODES

__all__ = ["EngineConfig", "open_engine", "open_server"]

_EXECUTORS = ("single", "sharded", "cluster")
_INDEXES = ("fiting", "fixed")

#: Named starting points for :meth:`EngineConfig.preset`. Values are plain
#: field dicts so presets serialize exactly like hand-written configs.
_PRESETS: Dict[str, Dict[str, Any]] = {
    "read_optimized": {
        "error": 32.0,
        "buffer_capacity": 16,
        "max_batch": 4096,
        "max_delay": 0.001,
        "eager_flush": True,
        "latency_window": 100_000,
    },
    "write_optimized": {
        "error": 256.0,
        "buffer_capacity": 128,
        "max_batch": 1024,
        "max_delay": 0.004,
        "eager_flush": False,
    },
    "durable": {
        "durability": "wal+snapshot",
        "wal_sync": True,
        "background_snapshots": True,
    },
}


@dataclass
class EngineConfig:
    """Declarative description of an engine (and optional server) to open.

    Index knobs (``index``, ``error``, ``page_size``, ``buffer_capacity``,
    ``index_kwargs``) describe the per-shard paged index; executor knobs
    (``executor``, ``n_shards``, plus the cluster transport settings)
    pick how shards run; serve knobs configure the
    :class:`~repro.serve.Server` that :func:`open_server` wraps around the
    engine. Unused knobs are ignored by backends they do not apply to,
    so one config can describe every deployment of the same dataset.

    Attributes
    ----------
    executor:
        ``"single"`` (one in-process index behind the engine API),
        ``"sharded"`` (range-partitioned in-process
        :class:`~repro.engine.ShardedEngine`) or ``"cluster"``
        (one worker process per shard,
        :class:`~repro.cluster.ClusterEngine`).
    n_shards:
        Requested shard count (forced to 1 by ``executor="single"``).
    index:
        Per-shard index kind: ``"fiting"`` (error-bounded segments) or
        ``"fixed"`` (the fixed-size-page baseline).
    error:
        FITing-Tree error bound ``E`` (``index="fiting"`` only).
    page_size:
        Elements per fixed page (``index="fixed"`` only).
    buffer_capacity:
        Per-page insert buffer; ``None`` keeps the index's default
        (``error // 2`` / ``page_size // 2``); ``0`` builds read-only.
    index_kwargs:
        Extra keyword arguments forwarded to the index constructor
        (e.g. ``search="linear"``, ``branching=...``).
    mp_context, lane_capacity, op_timeout:
        Cluster transport knobs (``executor="cluster"`` only); ``None``
        keeps the cluster defaults.
    durability:
        ``"off"`` (default — purely in-memory), ``"wal"`` (every write
        group-committed to a write-ahead log before it is acknowledged)
        or ``"wal+snapshot"`` (the WAL plus periodic snapshots that
        truncate it). Durable engines recover their dataset from
        ``data_dir`` when reopened, and a durable cluster *restarts*
        crashed workers from snapshot + WAL instead of failing.
    data_dir:
        Directory holding the WAL, snapshots and manifest; required when
        ``durability != "off"``. Reopening an existing ``data_dir``
        recovers the persisted dataset (build keys must be omitted).
    wal_sync:
        Whether each group commit fsyncs (default True). ``False`` trades
        power-loss safety for speed (process crashes stay safe).
    snapshot_interval_bytes:
        WAL bytes between automatic snapshots (``"wal+snapshot"`` only).
    max_batch, max_delay, eager_flush, max_pending, overload,
    latency_window:
        Serve-layer knobs applied by :func:`open_server`; see
        :class:`~repro.serve.Server`.
    telemetry:
        ``"off"`` (default), ``"metrics"``, ``"workload"``, ``"full"``,
        ``"full+workload"``, or a :class:`repro.obs.Telemetry` instance
        to share a registry across engines. Resolved once per
        :func:`open_engine` call; the server built by :func:`open_server`
        adopts the engine's bundle, so both layers report into the same
        registry.
    admin_port:
        When set (requires telemetry), the server built by
        :func:`open_server` starts a live admin HTTP endpoint on this
        port when entered (``0`` = pick a free port); see
        :class:`repro.obs.http.AdminServer`.
    listen:
        When set (``"host:port"``; empty host = loopback, port ``0`` =
        auto-assign), :func:`open_server` wraps the server in a
        :class:`~repro.net.NetServer` TCP adapter bound there instead of
        returning the in-process facade.
    sla_target_p99_us:
        When set, the server runs an
        :class:`~repro.serve.sla.SlaController` that adapts the
        batcher's ``max_delay`` online to keep windowed p99 latency at
        or under this many microseconds.
    sla_interval:
        Seconds between SLA control decisions.
    background_snapshots:
        When True (``durability="wal+snapshot"`` only), generation
        rotation happens on a background thread instead of riding a
        write's latency; see :class:`~repro.wal.store.WalStore`.
    """

    executor: str = "sharded"
    n_shards: int = 4
    index: str = "fiting"
    error: float = 64.0
    page_size: int = 256
    buffer_capacity: Optional[int] = None
    index_kwargs: Dict[str, Any] = field(default_factory=dict)
    # -- cluster transport --
    mp_context: Any = None
    lane_capacity: Optional[int] = None
    op_timeout: float = 120.0
    # -- durability --
    durability: str = "off"
    data_dir: Optional[str] = None
    wal_sync: bool = True
    snapshot_interval_bytes: int = 4 << 20
    # -- serve layer --
    max_batch: int = 1024
    max_delay: float = 0.002
    eager_flush: bool = True
    max_pending: Optional[int] = None
    overload: str = "wait"
    latency_window: int = 100_000
    # -- observability --
    telemetry: Any = "off"
    admin_port: Optional[int] = None
    # -- network tier --
    listen: Optional[str] = None
    sla_target_p99_us: Optional[float] = None
    sla_interval: float = 0.05
    # -- durability tuning --
    background_snapshots: bool = False

    def validate(self) -> None:
        """Reject unknown executor/index/telemetry kinds with a typed error."""
        if self.executor not in _EXECUTORS:
            raise InvalidParameterError(
                f"executor must be one of {_EXECUTORS}, got {self.executor!r}"
            )
        if self.index not in _INDEXES:
            raise InvalidParameterError(
                f"index must be one of {_INDEXES}, got {self.index!r}"
            )
        if not isinstance(self.telemetry, Telemetry) and self.telemetry not in (
            None,
            *_TELEMETRY_MODES,
        ):
            raise InvalidParameterError(
                f"telemetry must be one of {_TELEMETRY_MODES} or a Telemetry "
                f"instance, got {self.telemetry!r}"
            )
        if self.durability not in _DURABILITY_MODES:
            raise InvalidParameterError(
                f"durability must be one of {_DURABILITY_MODES}, "
                f"got {self.durability!r}"
            )
        if self.durability != "off" and not self.data_dir:
            raise InvalidParameterError(
                f"durability={self.durability!r} requires data_dir"
            )
        if self.sla_target_p99_us is not None and self.sla_target_p99_us <= 0:
            raise InvalidParameterError(
                f"sla_target_p99_us must be > 0, got {self.sla_target_p99_us}"
            )
        if self.listen is not None and ":" not in self.listen:
            raise InvalidParameterError(
                f'listen must be "host:port", got {self.listen!r}'
            )

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """This config as a plain JSON-able dict (see :meth:`to_json`).

        Returns
        -------
        dict
            One entry per dataclass field. A live :class:`Telemetry`
            instance collapses to its mode string (the registry itself is
            runtime state, not configuration).

        Raises
        ------
        InvalidParameterError
            When an opaque runtime object was set on ``mp_context`` (only
            ``None`` or a start-method string serializes).
        """
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["index_kwargs"] = dict(self.index_kwargs)
        if isinstance(out["telemetry"], Telemetry):
            out["telemetry"] = out["telemetry"].mode
        value = out["mp_context"]
        if value is not None and not isinstance(value, str):
            raise InvalidParameterError(
                f"mp_context={value!r} is a runtime object and does not "
                "serialize; set it on the config after from_json()"
            )
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EngineConfig":
        """Rebuild a validated config from :meth:`to_dict` output.

        Parameters
        ----------
        data:
            A mapping of field names to values; unknown keys are rejected
            (they would otherwise be silently dropped — a typo in a config
            file must fail loudly).

        Returns
        -------
        EngineConfig
            The validated config.
        """
        if not isinstance(data, dict):
            raise InvalidParameterError(
                f"config data must be a dict, got {type(data).__name__}"
            )
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise InvalidParameterError(
                f"unknown EngineConfig field(s): {', '.join(unknown)}"
            )
        config = cls(**data)
        config.validate()
        return config

    def to_json(self) -> str:
        """Serialize this config as a JSON object string.

        ``EngineConfig.from_json(cfg.to_json())`` round-trips every field
        (telemetry instances collapse to their mode string).
        """
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EngineConfig":
        """Rebuild a validated config from a :meth:`to_json` string."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise InvalidParameterError(f"invalid config JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def preset(cls, name: str, **overrides: Any) -> "EngineConfig":
        """A named starting-point config for a common deployment shape.

        Presets are plain configs — they serialize, round-trip through
        JSON, and accept the same field overrides as the constructor
        (overrides win over the preset's choices).

        Parameters
        ----------
        name:
            ``"read_optimized"`` — tight error bound and small insert
            buffers (fewer keys scanned per lookup), large read batches
            with a short batching timer;
            ``"write_optimized"`` — loose error bound and large insert
            buffers (fewer splits per insert), lazier flushing so writes
            coalesce;
            ``"durable"`` — ``"wal+snapshot"`` durability with
            background snapshot rotation (pass ``data_dir=...``).
        **overrides:
            Individual fields to override on top of the preset.

        Returns
        -------
        EngineConfig
            A validated config. ``"durable"`` requires a ``data_dir``
            override (validation rejects the preset without one).
        """
        try:
            base = dict(_PRESETS[name])
        except KeyError:
            raise InvalidParameterError(
                f"unknown preset {name!r}; choose from "
                f"{tuple(sorted(_PRESETS))}"
            ) from None
        base.update(overrides)
        config = cls(**base)
        config.validate()
        return config

    def index_factory(self):
        """The per-shard ``f(keys, values) -> PagedIndexBase`` this config
        describes (what the engine builds each shard with)."""
        self.validate()
        if self.index == "fixed":
            from repro.baselines import FixedPageIndex

            def factory(k, v):
                return FixedPageIndex(
                    k,
                    v,
                    page_size=self.page_size,
                    buffer_capacity=self.buffer_capacity,
                    **self.index_kwargs,
                )

        else:
            from repro.core.fiting_tree import FITingTree

            def factory(k, v):
                return FITingTree(
                    k,
                    v,
                    error=self.error,
                    buffer_capacity=self.buffer_capacity,
                    **self.index_kwargs,
                )

        return factory


def _resolved(config: Optional[EngineConfig], overrides: Dict[str, Any]) -> EngineConfig:
    """One immutable config from the optional base plus keyword overrides."""
    config = config if config is not None else EngineConfig()
    if overrides:
        config = replace(config, **overrides)
    config.validate()
    return config


def open_engine(keys=None, values=None, *, config: Optional[EngineConfig] = None,
                **overrides: Any):
    """Open the engine backend a config describes, over one dataset.

    Parameters
    ----------
    keys:
        Sorted (ascending) build keys; ``None``/empty starts an empty
        engine that grows via inserts.
    values:
        Optional payloads aligned with ``keys`` (``None`` = auto row ids).
    config:
        The :class:`EngineConfig` to follow (default-constructed when
        omitted).
    **overrides:
        Individual config fields to override without mutating ``config``
        (e.g. ``open_engine(keys, executor="cluster", n_shards=2)``).

    Returns
    -------
    EngineProtocol
        A :class:`~repro.engine.ShardedEngine` (``"single"`` /
        ``"sharded"``) or :class:`~repro.cluster.ClusterEngine`
        (``"cluster"``). Cluster engines own worker processes — close
        them (``with`` / ``.close()``) when done.
    """
    config = _resolved(config, overrides)
    n_shards = 1 if config.executor == "single" else config.n_shards
    telemetry = Telemetry.from_mode(config.telemetry)
    if config.durability != "off":
        return _open_durable(keys, values, config, n_shards, telemetry)
    return _build_engine(keys, values, config, n_shards, telemetry)


def _build_engine(keys, values, config, n_shards, telemetry):
    """Build the configured executor over ``keys``/``values`` (no store)."""
    if config.executor != "cluster":
        from repro.engine import ShardedEngine

        return ShardedEngine(
            keys,
            values,
            n_shards=n_shards,
            index_factory=config.index_factory(),
            telemetry=telemetry,
        )
    from repro.cluster import ClusterEngine
    from repro.cluster.shm import DEFAULT_LANE_CAPACITY

    return ClusterEngine(
        keys,
        values,
        n_shards=n_shards,
        error=config.error,
        buffer_capacity=config.buffer_capacity,
        mp_context=config.mp_context,
        lane_capacity=config.lane_capacity or DEFAULT_LANE_CAPACITY,
        op_timeout=config.op_timeout,
        index_factory=config.index_factory(),
        telemetry=telemetry,
    )


def _cluster_from_states(states, config, telemetry):
    """Boot a :class:`~repro.cluster.ClusterEngine` from recovered states."""
    from repro.cluster import ClusterEngine
    from repro.cluster.shm import DEFAULT_LANE_CAPACITY

    return ClusterEngine.from_states(
        states,
        mp_context=config.mp_context,
        lane_capacity=config.lane_capacity or DEFAULT_LANE_CAPACITY,
        op_timeout=config.op_timeout,
        telemetry=telemetry,
    )


def _open_durable(keys, values, config, n_shards, telemetry):
    """The durable branch of :func:`open_engine`: open (or create) the
    WAL store in ``config.data_dir``, recover or initialize, attach.

    A fresh ``data_dir`` seeds a new store from the engine built over
    ``keys``/``values``; an existing one recovers the persisted dataset
    (snapshot + committed WAL tail) and rejects build keys — silently
    merging a build dataset into recovered state would hide data loss.
    """
    from repro.engine import ShardedEngine
    from repro.wal import WalStore, replay_ops

    store = WalStore(
        config.data_dir,
        durability=config.durability,
        snapshot_interval_bytes=config.snapshot_interval_bytes,
        sync=config.wal_sync,
        background_snapshots=config.background_snapshots,
    )
    engine = None
    try:
        if store.exists:
            if keys is not None and np.asarray(keys).size:
                raise InvalidParameterError(
                    "data_dir already holds a durable engine; open it "
                    "without build keys (recovery restores the persisted "
                    "dataset)"
                )
            rec = store.recover()
            cluster = config.executor == "cluster"
            # The tail replays in-process either way: cluster workers
            # then boot from fully-recovered states, and the store's
            # retained tail stays aligned with what they hold.
            engine = ShardedEngine.from_states(
                rec.states, telemetry=None if cluster else telemetry
            )
            replay_ops(engine, rec.ops)
            engine._next_rowid = rec.next_rowid
            if cluster:
                engine = _cluster_from_states(engine.to_states(), config,
                                              telemetry)
        else:
            engine = _build_engine(keys, values, config, n_shards, telemetry)
            store.initialize(engine.to_states())
        engine.attach_wal(store)
        return engine
    except BaseException:
        if engine is not None:
            engine.close()
        store.close()
        raise


def open_server(keys=None, values=None, *, config: Optional[EngineConfig] = None,
                **overrides: Any):
    """Open an engine per the config and wrap it in a configured Server.

    Parameters
    ----------
    keys, values, config, **overrides:
        As for :func:`open_engine`; the serve knobs of the resolved
        config shape the :class:`~repro.serve.Server`.

    Returns
    -------
    Server or NetServer
        With ``listen`` unset: an unstarted asyncio server facade over
        the opened engine (``async with open_server(...) as s:
        await s.get(k)``). With ``listen="host:port"`` set: an unstarted
        :class:`~repro.net.NetServer` TCP adapter wrapping that facade
        (``await net.start()`` binds the socket; the facade stays
        reachable as ``net.server``). Closing either does not close a
        cluster engine — callers own the engine's lifecycle via
        ``server.engine`` (but see :func:`~repro.net.serve_tcp`).
    """
    config = _resolved(config, overrides)
    from repro.serve.server import Server

    engine = open_engine(keys, values, config=config)
    server = Server(
        engine,
        max_batch=config.max_batch,
        max_delay=config.max_delay,
        eager_flush=config.eager_flush,
        max_pending=config.max_pending,
        overload=config.overload,
        latency_window=config.latency_window,
        admin_port=config.admin_port,
        sla_target_p99_us=config.sla_target_p99_us,
        sla_interval=config.sla_interval,
    )
    if config.listen is None:
        return server
    from repro.net.server import NetServer

    host, _, port = config.listen.rpartition(":")
    return NetServer(server, host=host or "127.0.0.1", port=int(port or 0))
