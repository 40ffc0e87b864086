"""One frame per tick: a client's concurrent gets travel as one key batch.

The gets one loop iteration queues on a connection leave as one
``CODEC_KEYS`` frame, the server answers ``(values, found)`` through the
batcher, and each caller gets its value or its *own* default. Nothing
about the answers may change: they equal sequential ``ShardedEngine.get``
on the backend's data, over one client and over a two-backend router,
on an in-process and a multi-process engine.
"""

import asyncio

import numpy as np
import pytest

from repro.api import open_engine
from repro.engine.batch import flat_view
from repro.engine.partition import partition_cuts, route, shard_bounds
from repro.net import AsyncNetClient, RequestTimeoutError, Router, serve_tcp
from repro.net import frame as wire

ERROR = 32
_rng = np.random.default_rng(27)
# A few keys appear several times, so duplicate runs are among the probes.
KEYS = np.sort(np.concatenate([
    _rng.uniform(0, 1e6, 3_000), np.repeat(_rng.uniform(0, 1e6, 40), 5),
]))
VALUES = np.arange(KEYS.size, dtype=np.int64)
SENTINEL = object()
DEFAULTS = [None, -1, "x", SENTINEL]


def run(coro):
    return asyncio.run(coro)


async def _backends(executor, n, keys=KEYS, values=VALUES):
    """``n`` TCP backends over consecutive key ranges, each beside the
    in-process engine twin that answers its gets sequentially."""
    cuts = partition_cuts(keys, n)
    fleet = []
    for lo, hi in shard_bounds(keys, cuts):
        k, v = keys[lo:hi], values[lo:hi]
        net = await serve_tcp(k, v, executor=executor, n_shards=2, error=ERROR)
        fleet.append((net, open_engine(k, v, n_shards=2, error=ERROR)))
    return cuts, fleet


def _probes(twins):
    """Hits, misses, duplicate keys (and a key asked twice) and every
    page start, each with one of the defaults."""
    dupes = np.unique(KEYS)[np.unique(KEYS, return_counts=True)[1] > 1]
    starts = np.concatenate([flat_view(t).starts for t in twins])
    keys = np.concatenate([
        KEYS[::97], KEYS[::131] + 0.5, [-1.0, 2e6], dupes[:6], dupes[:2],
        starts,
    ])
    return [(float(k), DEFAULTS[i % len(DEFAULTS)]) for i, k in enumerate(keys)]


def _check(got, probes, twin_of):
    for answer, (key, default) in zip(got, probes):
        want = twin_of(key).get(key, default)
        if want is default:
            assert answer is default, (key, answer)
        else:
            assert answer == want, (key, answer, want)


@pytest.mark.parametrize("executor", ["sharded", "cluster"])
def test_concurrent_gets_equal_sequential_engine_gets_over_a_client(executor):
    async def scenario():
        _, [(net, twin)] = await _backends(executor, 1)
        c = await AsyncNetClient(*net.address).connect()
        try:
            probes = _probes([twin])
            frames = c.stats()["frames_out"]
            got = await asyncio.gather(*[c.get(k, d) for k, d in probes])
            _check(got, probes, lambda key: twin)
            assert c.stats()["frames_out"] == frames + 1  # one tick, one frame
            batcher = net.server.stats()["batcher"]
            assert batcher["ops"]["get"] == len(probes)  # counted per key
            assert batcher["max_batch_observed"] == len(probes)
        finally:
            await c.close()
            await net.close()

    run(scenario())


@pytest.mark.parametrize("executor", ["sharded", "cluster"])
def test_concurrent_gets_equal_sequential_engine_gets_over_a_router(executor):
    async def scenario():
        cuts, fleet = await _backends(executor, 2)
        router = await Router(
            [net.address for net, _ in fleet], cuts, health_interval=0
        ).start()
        try:
            probes = _probes([twin for _, twin in fleet])
            got = await asyncio.gather(*[router.get(k, d) for k, d in probes])
            _check(got, probes, lambda key: fleet[int(route(cuts, key))][1])
            # Each backend's leg of the tick was one frame.
            for backend in router.stats()["backends"]:
                assert backend["client"]["frames_out"] == 1
        finally:
            await router.close()
            for net, _ in fleet:
                await net.close()

    run(scenario())


@pytest.mark.parametrize(
    "values, kind",
    [
        (np.arange(KEYS.size, dtype=np.float32), float),  # arrays reply
        (np.asarray([f"v{i}" for i in range(KEYS.size)], dtype=object), str),
    ],
    ids=["float32", "object"],
)
def test_values_without_a_keys_form_fall_back_and_stay_correct(values, kind):
    async def scenario():
        _, [(net, twin)] = await _backends("sharded", 1, values=values)
        c = await AsyncNetClient(*net.address).connect()
        try:
            probes = _probes([twin])
            got = await asyncio.gather(*[c.get(k, d) for k, d in probes])
            _check(got, probes, lambda key: twin)
            hits = [a for a, (k, _) in zip(got, probes) if k in twin]
            assert hits and {type(a) for a in hits} == {kind}
        finally:
            await c.close()
            await net.close()

    run(scenario())


@pytest.mark.parametrize("telemetry", [None, "full"], ids=["untraced", "traced"])
@pytest.mark.parametrize(
    "default",
    [object(), lambda: 0, 2.5, np.float32(1.5)],
    ids=["object", "lambda", "float", "float32"],
)
def test_a_miss_answers_with_the_callers_own_default(default, telemetry):
    async def scenario():
        net = await serve_tcp(np.arange(1000.0), n_shards=2)
        upper = await serve_tcp(np.arange(1000.0, 2000.0), n_shards=2)
        c = await AsyncNetClient(*net.address, telemetry=telemetry).connect()
        router = await Router([net.address, upper.address], [1000.0],
                              health_interval=0, telemetry=telemetry).start()
        try:
            assert await c.get(0.5, default) is default  # a lone get
            both = await asyncio.gather(c.get(0.5, default), c.get(1.5, default))
            assert both[0] is default and both[1] is default
            assert await c.get(3.0, default) == 3
            # A batch fills its misses on the caller's side of the socket.
            got = await c.get_batch([1.0, 0.5], default)
            assert got[0] == 1 and got[1] is default
            got = await router.get_batch([1.0, 0.5, 1500.5, 1500.0], default)
            assert got[0] == 1 and got[1] is default and got[2] is default
            assert got[3] == 500
        finally:
            await router.close()
            await c.close()
            await net.close()
            await upper.close()

    run(scenario())


def test_a_coalesced_batch_retries_each_get_and_drops_late_replies():
    async def scenario():
        net = await serve_tcp(KEYS, VALUES, n_shards=2, max_delay=0.2,
                              eager_flush=False)
        # Every attempt times out under the 200 ms batch timer.
        c = AsyncNetClient(*net.address, timeout=0.03, retries=2,
                           backoff=0.01)
        await c.connect()
        try:
            out = await asyncio.gather(
                *[c.get(float(k)) for k in KEYS[:8]], return_exceptions=True
            )
            assert all(isinstance(r, RequestTimeoutError) for r in out)
            assert c.stats()["retries"] == 2 * 8  # each get retried alone
            # The late replies to those frames match nothing.
            c.timeout = 5.0
            again = await asyncio.gather(*[c.get(float(k)) for k in KEYS[:8]])
            assert again == VALUES[:8].tolist()
        finally:
            await c.close()
            await net.close()

    run(scenario())


def test_a_coalesced_batch_rides_reconnect_after_a_server_restart():
    async def scenario():
        net = await serve_tcp(KEYS, VALUES, n_shards=2)
        port = net.port
        c = AsyncNetClient("127.0.0.1", port, retries=20, backoff=0.05)
        await c.connect()
        await net.close()  # the connection dies under the client

        async def revive():
            await asyncio.sleep(0.2)
            return await serve_tcp(
                KEYS, VALUES, n_shards=2, listen=f"127.0.0.1:{port}"
            )

        revival = asyncio.ensure_future(revive())
        got = await asyncio.gather(*[c.get(float(k)) for k in KEYS[:8]])
        assert got == VALUES[:8].tolist()
        assert c.stats()["reconnects"] >= 1
        await c.close()
        await (await revival).close()

    run(scenario())


def test_a_keys_frame_is_arrays_and_nothing_else():
    keys = np.arange(5.0)
    request = wire.decode_frame(
        wire.encode_frame(wire.OP_GET_BATCH, 1, None, [keys])[10:]
    )
    assert (request.codec, request.meta) == (wire.CODEC_KEYS, {})
    assert np.array_equal(request.arrays[0], keys)
    pair = (np.arange(5), np.array([True, False, True, True, False]))
    reply = wire.decode_frame(
        wire.encode_frame(wire.REPLY_OK, 1, *wire.encode_result(pair))[10:]
    )
    assert reply.codec == wire.CODEC_KEYS
    values, found = wire.decode_result(reply)
    assert values.tolist() == [0, 1, 2, 3, 4]
    assert found.tolist() == pair[1].tolist()
    # A public get_batch names its default: it stays a get_batch frame.
    batch = wire.encode_frame(wire.OP_GET_BATCH, 1, {"default": None}, [keys])
    assert wire.decode_frame(batch[10:]).codec == wire.CODEC_ARRAYS
