"""Conformance: the net path is bit-identical to the in-process server.

The same mixed scenario (batch reads, range scans, inserts, deletes)
runs against the in-process :class:`~repro.serve.Server`, a TCP client
against one :func:`serve_tcp` server, and a :class:`~repro.net.Router`
over a two-backend :class:`~repro.net.TcpCluster`. Every result array
must match bit for bit — framing, scatter/gather and the wire codecs
must be invisible to correctness.
"""

import asyncio

import numpy as np
import pytest

from repro.api import open_engine
from repro.core.errors import InvalidParameterError, KeyNotFoundError
from repro.net import AsyncNetClient, TcpCluster, serve_tcp
from repro.net import frame as wire
from repro.serve.server import Server

RNG = np.random.default_rng(42)
N = 3_000
BUILD_KEYS = np.sort(RNG.uniform(0.0, 1e6, N))
BUILD_VALUES = RNG.integers(0, 1 << 40, N).astype(np.int64)
PROBES = RNG.permutation(BUILD_KEYS)[:500]
MISSES = RNG.uniform(2e6, 3e6, 50)
INS_KEYS = np.sort(RNG.uniform(0.0, 1e6, 200))
INS_VALUES = RNG.integers(0, 1 << 40, 200).astype(np.int64)
DEL_KEYS = RNG.permutation(BUILD_KEYS)[:150]
BOUNDS = np.sort(RNG.uniform(0.0, 1e6, (4, 2)), axis=1)
# Inputs straddling the one cut every tier here shares (the build median,
# which DEL_KEYS happens to remove): the cut key itself and its two float
# neighbours, and ranges that cross the cut, sit on it, or cross inverted.
CUT = N // 2
STRADDLE_KEYS = np.asarray(
    [
        np.nextafter(BUILD_KEYS[CUT], np.inf),
        np.nextafter(BUILD_KEYS[CUT], 0.0),
        BUILD_KEYS[CUT],
    ]
)
STRADDLE_VALUES = np.asarray([7, 8, 9], dtype=np.int64)
STRADDLE_BOUNDS = np.asarray(
    [
        [BUILD_KEYS[CUT - 6], BUILD_KEYS[CUT + 6]],
        [BUILD_KEYS[CUT], BUILD_KEYS[CUT]],
        [BUILD_KEYS[CUT + 3], BUILD_KEYS[CUT - 3]],
    ]
)
MALFORMED_BOUNDS = [np.zeros((2, 3)), np.zeros(4), []]
# The write protocol's partial-failure rule, seen through a socket: a
# strict delete whose low chunk misses (a hair above a live key) while
# its high chunk hits, and a straddling insert one value short.
ALIVE = np.setdiff1d(BUILD_KEYS, DEL_KEYS)
MISS_LOW = float(np.nextafter(ALIVE[10], np.inf))
HIT_HIGH = float(ALIVE[-10])
RULE_PROBES = np.asarray([ALIVE[10], MISS_LOW, ALIVE[-11], HIT_HIGH])


async def _scenario(api):
    """Drive the mixed workload; returns a flat list of result arrays."""
    out = []
    out.append(np.asarray(await api.get_batch(PROBES)))
    out.append(np.asarray(await api.get_batch(MISSES, -1)))
    for k, v in await api.range_batch(BOUNDS):
        out.append(np.asarray(k))
        out.append(np.asarray(v))
    await api.insert_batch(INS_KEYS, INS_VALUES)
    out.append(np.asarray(await api.get_batch(INS_KEYS)))
    out.append(np.asarray(await api.delete_batch(DEL_KEYS)))
    out.append(np.asarray(await api.get_batch(BUILD_KEYS[:400], -1)))
    k, v = await api.range(float(BOUNDS[0, 0]), float(BOUNDS[0, 1]))
    out.append(np.asarray(k))
    out.append(np.asarray(v))
    await api.insert_batch(STRADDLE_KEYS, STRADDLE_VALUES)
    out.append(np.asarray(await api.get_batch(STRADDLE_KEYS, -1)))
    for k, v in await api.range_batch(STRADDLE_BOUNDS[:2]):
        out.append(np.asarray(k))
        out.append(np.asarray(v))
    # An inverted range across the cut overlaps no shard: empty on every
    # tier (the values dtype of "nothing" is each tier's own).
    ((k, v),) = await api.range_batch(STRADDLE_BOUNDS[2:])
    assert k.size == v.size == 0
    k, v = await api.range(*STRADDLE_BOUNDS[2].tolist())
    assert k.size == v.size == 0
    out.append(np.asarray(await api.delete_batch(STRADDLE_KEYS)))
    out.append(np.asarray(await api.get_batch(STRADDLE_KEYS, -1)))
    for bad in MALFORMED_BOUNDS:
        with pytest.raises(InvalidParameterError, match="bounds"):
            await api.range_batch(bad)
    # Every owning shard/backend applies its chunk, then the first
    # failure re-raises: same exception, same survivors, same length.
    with pytest.raises(KeyNotFoundError) as err:
        await api.delete_batch(np.asarray([MISS_LOW, HIT_HIGH]))
    assert err.value.args == (MISS_LOW,)
    out.append(np.asarray(await api.get_batch(RULE_PROBES, -1)))
    # Rejected before routing: no tier applies the chunk it could have.
    with pytest.raises(InvalidParameterError, match="values length"):
        await api.insert_batch(STRADDLE_KEYS, STRADDLE_VALUES[:2])
    out.append(np.asarray(await api.get_batch(STRADDLE_KEYS, -1)))
    # NaN and ±inf keys: the insert is refused whole on every tier (the
    # router's batch would straddle its cut), every read and delete
    # misses, and a NaN range bound is refused.
    for key in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidParameterError, match="finite"):
            await api.insert_batch(np.asarray([MISS_LOW, key]), [1, 2])
    out.append(np.asarray(await api.get_batch([np.nan, np.inf, -np.inf], -1)))
    with pytest.raises(KeyNotFoundError):
        await api.delete_batch(np.asarray([np.nan]))
    with pytest.raises(InvalidParameterError, match="NaN"):
        await api.range_batch(np.asarray([[np.nan, 1e6]]))
    k, _ = await api.range(0.0, 2e6)
    assert k.size == N + INS_KEYS.size - DEL_KEYS.size - 1
    return out


def _inproc():
    async def run():
        engine = open_engine(BUILD_KEYS, BUILD_VALUES, n_shards=2,
                             error=64.0)
        async with Server(engine) as srv:
            class _Api:
                get_batch = staticmethod(srv.get_batch)
                range_batch = staticmethod(srv.range_batch)
                insert_batch = staticmethod(srv.insert_batch)
                delete_batch = staticmethod(srv.delete_batch)
                range = staticmethod(srv.range)

            return await _scenario(_Api)

    return asyncio.run(run())


def _tcp_single():
    async def run():
        net = await serve_tcp(BUILD_KEYS, BUILD_VALUES, n_shards=2,
                              error=64.0)
        c = AsyncNetClient(*net.address)
        await c.connect()
        try:
            # The server does its own check: an odd-length payload that
            # bypassed the client's comes back as the typed error.
            with pytest.raises(InvalidParameterError, match="bounds"):
                await c._roundtrip(
                    wire.OP_RANGE_BATCH, {}, [np.zeros(3)], idempotent=True
                )
            return await _scenario(c)
        finally:
            await c.close()
            await net.close()

    return asyncio.run(run())


def _tcp_routed():
    with TcpCluster(BUILD_KEYS, BUILD_VALUES, backends=2, n_shards=1,
                    error=64.0) as fleet:
        async def run():
            async with fleet.router(health_interval=0) as router:
                return await _scenario(router)

        return asyncio.run(run())


def _assert_identical(a, b, label):
    assert len(a) == len(b), label
    for i, (x, y) in enumerate(zip(a, b)):
        assert x.dtype == y.dtype, f"{label}[{i}] dtype {x.dtype}!={y.dtype}"
        if x.dtype == object:  # mixed hit/miss results (None defaults)
            assert list(x) == list(y), f"{label}[{i}]"
        else:
            assert np.array_equal(x, y, equal_nan=True), f"{label}[{i}]"


def test_refused_payloads_cross_the_socket_as_the_typed_error():
    """What the int64 engine cannot hold exactly is refused behind the
    socket like in process, and the engine does not move."""
    async def run():
        net = await serve_tcp(BUILD_KEYS, BUILD_VALUES, n_shards=2,
                              error=64.0)
        engine = net.server.engine
        c = AsyncNetClient(*net.address)
        await c.connect()
        try:
            before = len(engine), engine.version
            key, other = float(MISSES[0]), float(BUILD_KEYS[CUT]) + 0.5
            for payload in ("x", 1.5, 2**70):
                with pytest.raises(InvalidParameterError):
                    await c.insert(key, payload)
            with pytest.raises(InvalidParameterError):
                await c.insert_batch([key, other], [7, "8"])
            assert (len(engine), engine.version) == before
            return (await c.get_batch([key, other], -1)).tolist()
        finally:
            await c.close()
            await net.close()

    assert asyncio.run(run()) == [-1, -1]


def test_net_paths_bit_identical_to_inprocess_server():
    reference = _inproc()
    _assert_identical(_tcp_single(), reference, "tcp-single")
    _assert_identical(_tcp_routed(), reference, "tcp-routed")
