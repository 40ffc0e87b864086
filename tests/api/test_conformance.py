"""Cross-backend conformance: one mixed CRUD scenario, bit-identical results.

Every backend the factory can open — the in-process ShardedEngine (sharded
and single-shard), the multi-process ClusterEngine, the fixed-page
baseline behind the engine API, and the async Server over both engines —
runs the same stateful get/range/insert/delete scenario through one
adapter seam. Each backend's full result trace must equal the reference
backend's exactly: same values, same miss slots, same auto row ids, same
post-delete state. This is the contract `repro.api.protocol.EngineProtocol`
writes down, checked end to end.
"""

import asyncio

import numpy as np
import pytest

from repro import EngineConfig, EngineProtocol, open_engine, open_server
from repro.core.errors import InvalidParameterError, KeyNotFoundError

N = 3_000
RNG = np.random.default_rng(42)
BUILD_KEYS = np.sort(RNG.uniform(0, 1e6, N))
ABSENT = -12345.0
PROBES = np.concatenate([BUILD_KEYS[::20], RNG.uniform(0, 1e6, 40)])
INS_KEYS = RNG.uniform(0, 1e6, 300)
DEL_KEYS = np.concatenate([BUILD_KEYS[5:600:4], INS_KEYS[:40]])
BOUNDS = np.asarray(
    [
        [BUILD_KEYS[10], BUILD_KEYS[120]],
        [0.0, BUILD_KEYS[3]],
        [BUILD_KEYS[-5], 2e6],
        [5e5, 5e5 + 2e4],
    ]
)
# Inputs straddling the two-shard backends' only cut (the build median):
# the keys either side of it, the cut key itself, an absent key a hair
# below it, and ranges that cross it or sit exactly on it.
CUT = N // 2
STRADDLE_KEYS = np.asarray(
    [
        BUILD_KEYS[CUT + 1],
        np.nextafter(BUILD_KEYS[CUT], 0.0),
        BUILD_KEYS[CUT],
        BUILD_KEYS[CUT - 1],
    ]
)
STRADDLE_BOUNDS = np.asarray(
    [
        [BUILD_KEYS[CUT - 6], BUILD_KEYS[CUT + 6]],
        [BUILD_KEYS[CUT], BUILD_KEYS[CUT]],
        [BUILD_KEYS[CUT + 3], BUILD_KEYS[CUT - 3]],
    ]
)
MALFORMED_BOUNDS = [np.zeros((2, 3)), np.zeros(4), []]
# Inputs for the write protocol's partial-failure rule: a strict delete
# whose shard-0 chunk misses while its shard-1 chunk hits, its mirror
# image, and a straddling insert whose values run out in the second
# chunk. The absent keys sit a hair above a build key.
MISS_LOW = float(np.nextafter(BUILD_KEYS[10], np.inf))
HIT_HIGH = float(BUILD_KEYS[-10])
HIT_LOW = float(BUILD_KEYS[11])
MISS_HIGH = float(np.nextafter(BUILD_KEYS[-11], np.inf))
RULE_PROBES = np.asarray(
    [BUILD_KEYS[10], MISS_LOW, HIT_LOW, BUILD_KEYS[-11], MISS_HIGH, HIT_HIGH]
)

BASE = EngineConfig(n_shards=2, error=64.0, buffer_capacity=16, max_batch=256)


def norm(value):
    """Arrays/iterables to plain comparable lists (NaN-free test data)."""
    if isinstance(value, np.ndarray):
        return [None if v is None else v for v in value.tolist()]
    return value


class EngineAdapter:
    """Drive a backend satisfying EngineProtocol directly (sync verbs)."""

    def __init__(self, engine):
        self.engine = engine

    async def get_many(self, keys, default):
        return norm(self.engine.get_batch(keys, default))

    async def insert_many(self, keys):
        self.engine.insert_batch(keys)

    async def delete_many(self, keys):
        return norm(self.engine.delete_batch(keys))

    async def delete_batch(self, keys):
        return self.engine.delete_batch(keys)

    async def insert_batch(self, keys, values):
        self.engine.insert_batch(keys, values)

    async def ranges(self, bounds):
        return [
            (norm(k), norm(v)) for k, v in self.engine.range_batch(bounds)
        ]

    async def range_batch(self, bounds):
        return self.engine.range_batch(bounds)

    async def get(self, key, default=None):
        return self.engine.get(key, default)

    async def insert(self, key, value=None):
        self.engine.insert(key, value)

    async def delete(self, key):
        return self.engine.delete(key)

    async def delete_lenient(self, keys):
        """A ``missing="ignore"`` batch delete: a miss answers -1."""
        return norm(self.engine.delete_batch(keys, missing="ignore", default=-1))

    async def mixed_rw(self, k_new, k_old):
        """Sequential insert/get/delete/get — the server twin interleaves
        them concurrently under the batcher's write fence."""
        self.engine.insert(k_new)
        seen = self.engine.get(k_new, "MISS")
        deleted = self.engine.delete(k_old)
        gone = self.engine.get(k_old, "MISS")
        return [seen, deleted, gone]

    def length(self):
        return len(self.engine)

    def observed(self):
        """What a refused write must leave alone."""
        stats = self.engine.stats()
        wal = stats["wal"]
        return (
            len(self.engine),
            self.engine.version,
            stats["ipc"]["pickle_fallbacks"],
            None if wal is None else wal["records"],
        )

    def finish(self):
        self.engine.validate()


class ServerAdapter(EngineAdapter):
    """Drive a Server facade: every batch becomes concurrent awaits."""

    def __init__(self, server):
        super().__init__(server.engine)
        self.server = server

    async def get_many(self, keys, default):
        return list(
            await asyncio.gather(*[self.server.get(k, default) for k in keys])
        )

    async def insert_many(self, keys):
        await asyncio.gather(*[self.server.insert(k) for k in keys])

    async def delete_many(self, keys):
        return list(
            await asyncio.gather(*[self.server.delete(k) for k in keys])
        )

    async def delete_batch(self, keys):
        return await self.server.delete_batch(keys)

    async def insert_batch(self, keys, values):
        await self.server.insert_batch(keys, values)

    async def ranges(self, bounds):
        results = await asyncio.gather(
            *[self.server.range(lo, hi) for lo, hi in bounds]
        )
        return [(norm(k), norm(v)) for k, v in results]

    async def range_batch(self, bounds):
        return await self.server.range_batch(bounds)

    async def get(self, key, default=None):
        return await self.server.get(key, default)

    async def insert(self, key, value=None):
        await self.server.insert(key, value)

    async def delete(self, key):
        return await self.server.delete(key)

    async def delete_lenient(self, keys):
        """Concurrent scalar deletes, which the batcher applies as one
        ``missing="ignore"`` batch: a miss fails only its own caller."""
        replies = await asyncio.gather(
            *[self.server.delete(k) for k in keys], return_exceptions=True
        )
        return [-1 if isinstance(r, KeyNotFoundError) else r for r in replies]

    async def mixed_rw(self, k_new, k_old):
        """The concurrent twin: submission order must decide visibility."""
        return list(
            await asyncio.gather(
                self.server.insert(k_new),
                self.server.get(k_new, "MISS"),
                self.server.delete(k_old),
                self.server.get(k_old, "MISS"),
            )
        )[1:]  # drop the insert's None


async def scenario(api) -> list:
    """The shared mixed CRUD scenario; returns the full result trace."""
    trace = []
    trace.append(("initial_probes", await api.get_many(PROBES, -1.0)))
    await api.insert_many(INS_KEYS)
    trace.append(("len_after_insert", api.length()))
    trace.append(("inserted_visible", await api.get_many(INS_KEYS, -1.0)))
    trace.append(("ranges_pre_delete", await api.ranges(BOUNDS)))
    trace.append(("deleted_values", await api.delete_many(DEL_KEYS)))
    trace.append(("len_after_delete", api.length()))
    trace.append(
        (
            "post_delete_probes",
            await api.get_many(np.concatenate([DEL_KEYS, PROBES]), -1.0),
        )
    )
    trace.append(("ranges_post_delete", await api.ranges(BOUNDS)))
    trace.append(("straddle_probes", await api.get_many(STRADDLE_KEYS, -1.0)))
    trace.append(("straddle_ranges", await api.ranges(STRADDLE_BOUNDS)))
    trace.append(
        ("straddle_deleted", await api.delete_many(STRADDLE_KEYS[[0, 2, 3]]))
    )
    trace.append(("straddle_gone", await api.get_many(STRADDLE_KEYS, -1.0)))
    for bad in MALFORMED_BOUNDS:
        with pytest.raises(InvalidParameterError, match="bounds"):
            await api.range_batch(bad)
    # Scalar verbs + absent-key behavior.
    with pytest.raises(KeyNotFoundError):
        await api.delete(ABSENT)
    await api.insert(777.25)
    trace.append(("scalar_roundtrip", await api.get(777.25, "MISS")))
    trace.append(("scalar_delete", await api.delete(777.25)))
    trace.append(("scalar_gone", await api.get(777.25, "MISS")))
    # Read-your-writes across an interleaved insert/delete window.
    trace.append(("mixed_rw", await api.mixed_rw(888.125, BUILD_KEYS[2])))
    trace.append(("final_len", api.length()))
    api.finish()
    return trace


async def partial_failure(api) -> list:
    """What a caller sees when a routed write fails in one shard only:
    the exception, then ``len`` and the survivors around every key."""
    trace = []
    for label, keys in (
        ("miss_low_hit_high", [MISS_LOW, HIT_HIGH]),
        ("hit_low_miss_high", [HIT_LOW, MISS_HIGH]),
    ):
        with pytest.raises(KeyNotFoundError) as err:
            await api.delete_batch(np.asarray(keys))
        trace.append((label, err.value.args, api.length(),
                      await api.get_many(RULE_PROBES, -1.0)))
    with pytest.raises(InvalidParameterError, match="values length"):
        await api.insert_batch(STRADDLE_KEYS, np.arange(3))
    trace.append(("short_insert", api.length(),
                  await api.get_many(STRADDLE_KEYS, -1.0)))
    api.finish()
    return trace


async def refused_payload(api) -> list:
    """Payloads the int64 values cannot hold exactly, each refused with
    the same typed error before anything is logged or applied."""
    key, other = float(MISS_LOW), float(MISS_HIGH)
    before = api.observed()
    for payload in ("x", 1.5, 2**70):
        with pytest.raises(InvalidParameterError):
            await api.insert(key, payload)
        assert api.observed() == before, payload
    with pytest.raises(InvalidParameterError):
        await api.insert_batch(np.asarray([key, other]), [7, "8"])
    assert api.observed() == before
    trace = [before[0], await api.get_many(np.asarray([key, other]), -1.0)]
    api.finish()
    return trace


async def refused_valueless_insert(api) -> list:
    """A valueless insert on an engine built with explicit values: one
    refusal, the engine front's, before anything is logged or applied."""
    key = float(MISS_LOW)
    before = api.observed()
    for attempt in range(2):
        with pytest.raises(InvalidParameterError, match="requires aligned values"):
            await api.insert(key)
        assert api.observed() == before, attempt
    trace = [before[0], await api.get_many(np.asarray([key]), -1.0)]
    api.finish()
    return trace


NON_FINITE = [np.nan, np.inf, -np.inf]


async def non_finite_keys(api) -> list:
    """NaN and ±inf keys: every insert verb refuses them before anything
    is logged or applied, and every read and delete answers a miss; a
    NaN range bound is refused."""
    before = api.observed()
    for key in NON_FINITE:
        with pytest.raises(InvalidParameterError, match="finite"):
            await api.insert(key)
        with pytest.raises(InvalidParameterError, match="finite"):
            await api.insert_batch(np.asarray([MISS_LOW, key]), None)
        assert api.observed() == before, key
    trace = [before[0], [await api.get(k, "MISS") for k in NON_FINITE]]
    trace.append(await api.get_many(np.asarray(NON_FINITE), -1.0))
    for key in NON_FINITE:
        with pytest.raises(KeyNotFoundError):
            await api.delete(key)
    trace.append(
        await api.delete_lenient(np.asarray([np.nan, BUILD_KEYS[7], np.inf]))
    )
    for bad in ([np.nan, 6e5], [0.0, np.nan]):
        with pytest.raises(InvalidParameterError, match="NaN"):
            await api.range_batch(np.asarray([bad]))
    trace.append(api.length())
    api.finish()
    return trace


#: ``open_engine`` overrides per backend; ``server-<name>`` wraps the same
#: engine in the async ``Server``.
BACKENDS = {
    "sharded": {},
    "single": {"executor": "single"},
    "fixed-page": {"index": "fixed", "page_size": 128, "buffer_capacity": 16},
    "cluster": {"executor": "cluster"},
}


def run_backend(
    name: str, scenario=scenario, values=None, **overrides
) -> list:
    """Open one backend through the factory (over ``values``, with
    ``overrides`` on top of its config) and run ``scenario`` on it."""
    if name.startswith("server-"):
        server = open_server(
            BUILD_KEYS, values, config=BASE,
            **BACKENDS[name[len("server-"):]], **overrides,
        )

        async def drive_server():
            async with server:
                return await scenario(ServerAdapter(server))

        try:
            return asyncio.run(drive_server())
        finally:
            server.engine.close()
    engine = open_engine(
        BUILD_KEYS, values, config=BASE, **BACKENDS[name], **overrides
    )
    try:
        assert isinstance(engine, EngineProtocol)
        return asyncio.run(scenario(EngineAdapter(engine)))
    finally:
        engine.close()


@pytest.fixture(scope="module")
def reference_trace():
    return run_backend("sharded")


@pytest.mark.parametrize(
    "backend",
    ["sharded", "fixed-page", "cluster", "server-sharded", "server-cluster"],
)
def test_partial_failure_rule_on_every_two_shard_backend(backend):
    """Every owning shard applies its chunk, then the first failing
    shard's exception re-raises — whichever shard that is, and whether
    shards are objects, processes or sit behind a server."""
    low, high, short = run_backend(backend, partial_failure)
    # Shard 0 misses: shard 1 still removes HIT_HIGH.
    assert low == (
        "miss_low_hit_high", (MISS_LOW,), N - 1,
        [10, -1.0, 11, N - 11, -1.0, -1.0],
    ), backend
    # Shard 1 misses: shard 0 removed HIT_LOW before it raised.
    assert high == (
        "hit_low_miss_high", (MISS_HIGH,), N - 2,
        [10, -1.0, -1.0, N - 11, -1.0, -1.0],
    ), backend
    # A batch rejected before routing applies nowhere.
    build = dict(zip(BUILD_KEYS.tolist(), range(N)))
    assert short == (
        "short_insert", N - 2,
        [build.get(k, -1.0) for k in STRADDLE_KEYS.tolist()],
    ), backend


@pytest.mark.parametrize(
    "backend",
    [
        prefix + name
        for prefix in ("", "server-")
        for name in ("single", "fixed-page", "sharded", "cluster")
    ],
)
def test_every_backend_refuses_the_same_payloads(backend):
    assert run_backend(backend, refused_payload) == [N, [-1.0, -1.0]]


@pytest.mark.parametrize(
    "backend",
    [
        prefix + name
        for prefix in ("", "server-")
        for name in ("single", "fixed-page", "sharded", "cluster", "durable")
    ],
)
def test_every_backend_refuses_a_valueless_insert_alike(backend, tmp_path):
    """Explicit values make a value mandatory on every insert verb; a
    WAL-backed engine refuses before the log sees a record."""
    overrides = {}
    if backend.endswith("durable"):
        backend = backend.replace("durable", "sharded")
        overrides = {"durability": "wal", "data_dir": str(tmp_path)}
    values = np.arange(N, dtype=np.int64) * 3
    trace = run_backend(backend, refused_valueless_insert, values, **overrides)
    assert trace == [N, [-1.0]]


@pytest.mark.parametrize(
    "backend",
    [
        prefix + name
        for prefix in ("", "server-")
        for name in ("single", "fixed-page", "sharded", "cluster", "durable")
    ],
)
def test_every_backend_refuses_non_finite_keys_and_misses_them(
    backend, tmp_path
):
    """A WAL-backed engine refuses before the log sees a record; reads
    and deletes of a NaN or infinite key miss on the scalar and the batch
    path alike."""
    overrides = {}
    if backend.endswith("durable"):
        backend = backend.replace("durable", "sharded")
        overrides = {"durability": "wal", "data_dir": str(tmp_path)}
    trace = run_backend(backend, non_finite_keys, **overrides)
    assert trace == [
        N, ["MISS"] * 3, [-1.0] * 3, [-1, 7, -1], N - 1,
    ]


def test_single_shard_is_one_chunk():
    """With one shard the rule degenerates to the scalar loop's: a strict
    delete stops at its first absent key in key order, so a miss *below*
    a hit shields it (two shards would have removed HIT_HIGH)."""
    low, high, _short = run_backend("single", partial_failure)
    assert low[1:3] == ((MISS_LOW,), N) and low[3][-1] == N - 10
    assert high[1:3] == ((MISS_HIGH,), N - 1)


@pytest.mark.parametrize(
    "backend",
    ["single", "fixed-page", "cluster", "server-sharded", "server-cluster"],
)
def test_backend_matches_reference(backend, reference_trace):
    trace = run_backend(backend)
    assert len(trace) == len(reference_trace)
    for (label, got), (ref_label, want) in zip(trace, reference_trace):
        assert label == ref_label
        assert got == want, f"{backend}: {label} diverged"


def test_reference_trace_sane(reference_trace):
    """The reference itself exercises hits, misses, and real deletions."""
    trace = dict(reference_trace)
    assert trace["len_after_insert"] == N + len(INS_KEYS)
    assert trace["len_after_delete"] == N + len(INS_KEYS) - len(DEL_KEYS)
    assert -1.0 in trace["initial_probes"]  # absent probes really miss
    assert all(v != -1.0 for v in trace["inserted_visible"])
    deleted = trace["deleted_values"]
    assert len(deleted) == len(DEL_KEYS) and all(v is not None for v in deleted)
    # Every deleted occurrence is gone afterwards (delete-then-lookup).
    post = trace["post_delete_probes"][: len(DEL_KEYS)]
    assert all(v == -1.0 for v in post)
    # mixed_rw's insert is the second post-build insert => rowid N+300+1.
    assert trace["mixed_rw"] == [N + len(INS_KEYS) + 1, 2, "MISS"]


@pytest.mark.parametrize("backend", ["single", "sharded", "cluster"])
def test_an_empty_engine_answers_in_its_values_dtype(backend):
    """An empty int64 engine answers int64 whatever the batch; an
    ``object`` answer could not even cross the socket."""
    engine = open_engine(
        np.empty(0), np.empty(0, dtype=np.int64), n_shards=2,
        **BACKENDS[backend],
    )
    try:
        for queries in ([], [1.0, 2.0]):
            values, found = engine.lookup_batch(queries)
            assert values.dtype == np.int64 and not found.any(), queries
        assert engine.delete_batch([]).dtype == np.int64
    finally:
        engine.close()


def test_a_get_against_an_empty_net_server_answers_the_default():
    from repro.net import AsyncNetClient, serve_tcp

    async def drive():
        net = await serve_tcp(np.empty(0), n_shards=2)
        client = await AsyncNetClient(*net.address).connect()
        try:
            return await asyncio.gather(client.get(1.0, -1), client.get(2.0))
        finally:
            await client.close()
            await net.close()

    assert asyncio.run(drive()) == [-1, None]
