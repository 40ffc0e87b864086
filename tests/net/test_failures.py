"""Failure matrix: torn frames, dead peers, timeouts, killed backends."""

import asyncio
import struct
import zlib

import numpy as np
import pytest

from repro.net import (
    AsyncNetClient,
    BackendDownError,
    RequestTimeoutError,
    TcpCluster,
    serve_tcp,
)
from repro.net import frame as wire

KEYS = np.sort(np.random.default_rng(3).uniform(0, 1e9, 10_000))


def run(coro):
    return asyncio.run(coro)


def test_mid_frame_disconnect_leaves_server_serving():
    async def scenario():
        net = await serve_tcp(KEYS, n_shards=2)
        try:
            # A raw peer sends half a frame and vanishes.
            reader, writer = await asyncio.open_connection(*net.address)
            buf = wire.encode_frame(wire.OP_GET, 1, meta={"key": 1.0})
            writer.write(buf[: len(buf) // 2])
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.05)
            stats = net.net_stats()
            assert stats["connections_active"] == 0
            # The server took no damage: a real client works fine.
            c = AsyncNetClient(*net.address)
            await c.connect()
            assert await c.get(KEYS[5]) is not None
            await c.close()
        finally:
            await net.close()

    run(scenario())


def test_corrupt_frame_rejected_but_connection_survives():
    async def scenario():
        net = await serve_tcp(KEYS, n_shards=2)
        try:
            reader, writer = await asyncio.open_connection(*net.address)
            good = wire.encode_frame(wire.OP_PING, 7)
            bad = bytearray(good)
            bad[-1] ^= 0xFF  # payload bit flip; CRC must reject
            writer.write(bytes(bad))
            await writer.drain()
            err = await wire.read_frame(reader)
            assert err.kind == wire.REPLY_ERR
            assert "FrameCorruptError" in err.meta["error"]
            # Same TCP connection, next frame is clean: still served.
            writer.write(good)
            await writer.drain()
            ok = await wire.read_frame(reader)
            assert ok.kind == wire.REPLY_OK and ok.request_id == 7
            assert net.net_stats()["frames_corrupt"] == 1
            writer.close()
            await writer.wait_closed()
        finally:
            await net.close()

    run(scenario())


def test_desynchronized_stream_is_hung_up_on():
    async def scenario():
        net = await serve_tcp(KEYS, n_shards=2)
        try:
            reader, writer = await asyncio.open_connection(*net.address)
            writer.write(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 16)
            await writer.drain()
            err = await wire.read_frame(reader)
            assert err.kind == wire.REPLY_ERR
            assert await reader.read() == b""  # server closed the stream
            assert net.net_stats()["frames_bad"] == 1
        finally:
            await net.close()

    run(scenario())


def test_client_timeout_retries_reads_and_drops_late_replies():
    async def scenario():
        net = await serve_tcp(KEYS, n_shards=2, max_delay=0.2,
                              eager_flush=False)
        # Timeout far below the 200ms batch timer: every attempt of this
        # read times out, so the client retries (reads are idempotent)
        # and finally surfaces the timeout.
        c = AsyncNetClient(*net.address, timeout=0.03, retries=2,
                           backoff=0.01)
        await c.connect()
        try:
            with pytest.raises(RequestTimeoutError):
                await c.get(KEYS[11])
            assert c.stats()["timeouts"] >= 3  # initial + 2 retries
            assert c.stats()["retries"] == 2
            # The server still executed those reads; their late replies
            # must be dropped, not matched to the next request. Give the
            # next request room to succeed and check it is correct.
            c.timeout = 5.0
            assert await c.get(KEYS[11]) is not None
            assert await c.get(-1.0, default=-3) == -3
        finally:
            await c.close()
            await net.close()

    run(scenario())


def test_reconnect_with_backoff_after_server_restart():
    async def scenario():
        net = await serve_tcp(KEYS, n_shards=2)
        port = net.port
        c = AsyncNetClient("127.0.0.1", port, retries=20, backoff=0.05)
        await c.connect()
        first = await c.get(KEYS[9])
        await net.close()  # connection dies under the client

        async def revive():
            await asyncio.sleep(0.2)
            return await serve_tcp(
                KEYS, n_shards=2, listen=f"127.0.0.1:{port}"
            )

        revival = asyncio.ensure_future(revive())
        # The idempotent read rides retry-with-backoff across the gap.
        again = await c.get(KEYS[9])
        assert again == first
        assert c.stats()["reconnects"] >= 1
        await c.close()
        await (await revival).close()

    run(scenario())


def test_writes_are_not_silently_retried():
    async def scenario():
        net = await serve_tcp(KEYS, n_shards=2, max_delay=0.2,
                              eager_flush=False)
        c = AsyncNetClient(*net.address, timeout=0.02, retries=5,
                           backoff=0.01)
        await c.connect()
        try:
            with pytest.raises(RequestTimeoutError):
                await c.insert(0.125, 1)  # not idempotent: no retry
            assert c.stats()["retries"] == 0
        finally:
            await c.close()
            await net.close()

    run(scenario())


def test_router_ejects_sigkilled_backend_and_readmits_after_restart():
    with TcpCluster(KEYS, backends=2, n_shards=1) as fleet:
        async def scenario():
            async with fleet.router(
                health_interval=0.1, timeout=2.0, retries=1, backoff=0.01
            ) as router:
                low, high = KEYS[10], KEYS[-10]
                assert await router.get(high) is not None
                fleet.kill(1)
                # In-flight/new requests on the dead range fail typed...
                with pytest.raises(BackendDownError) as info:
                    await router.get(high)
                assert info.value.backend == 1
                # ...while the living range keeps serving.
                assert await router.get(low) is not None
                up = await router.check_health()
                assert up == [True, False]
                assert router.stats()["ejections"] >= 1

                fleet.restart(1)
                deadline = asyncio.get_running_loop().time() + 30
                while not (await router.check_health())[1]:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.1)
                assert router.stats()["readmissions"] >= 1
                assert await router.get(high) is not None

        run(scenario())


def test_scatter_gather_correct_across_the_cut():
    rng = np.random.default_rng(5)
    values = np.arange(KEYS.size, dtype=np.int64)
    with TcpCluster(KEYS, values, backends=2, n_shards=1) as fleet:
        async def scenario():
            async with fleet.router(health_interval=0) as router:
                # A shuffled batch spanning both backends comes back in
                # caller order.
                idx = rng.permutation(KEYS.size)[:512]
                out = await router.get_batch(KEYS[idx])
                assert np.array_equal(out, values[idx])
                # A range straddling the cut is stitched sorted.
                cut = float(fleet.cuts[0])
                pos = int(np.searchsorted(KEYS, cut))
                lo, hi = KEYS[pos - 20], KEYS[pos + 20]
                k, v = await router.range(lo, hi)
                assert k.size == 41
                assert np.all(np.diff(k) > 0)
                pairs = await router.range_batch(
                    [[KEYS[0], KEYS[30]], [lo, hi]]
                )
                assert [p[0].size for p in pairs] == [31, 41]

        run(scenario())


def test_router_write_waits_for_every_leg_then_raises_in_backend_order():
    """The partial-failure rule one tier up: no leg is left applying
    unobserved, and *which* failure the caller sees does not depend on
    which backend happened to answer first."""
    from repro.core.errors import InvalidParameterError, KeyNotFoundError
    from repro.net import Router

    class Leg:
        def __init__(self, delay, exc=None):
            self.delay, self.exc, self.finished = delay, exc, 0

        async def _run(self, keys):
            await asyncio.sleep(self.delay)
            self.finished += 1
            if self.exc is not None:
                raise self.exc
            return np.zeros(len(keys), dtype=np.int64)

        async def insert_batch(self, keys, values):
            await self._run(keys)

        async def delete_batch(self, keys):
            return await self._run(keys)

    router = Router([("h", 1), ("h", 2), ("h", 3)], [10.0, 20.0],
                    health_interval=0)
    legs = [
        Leg(0.05),  # the slowest leg succeeds
        Leg(0.02, KeyNotFoundError(15.0)),  # first failure in backend order
        Leg(0.0, InvalidParameterError("first failure in time")),
    ]
    router._clients = legs
    keys = np.asarray([25.0, 5.0, 15.0])
    with pytest.raises(KeyNotFoundError):
        run(router.insert_batch(keys, np.arange(3)))
    assert [leg.finished for leg in legs] == [1, 1, 1]
    with pytest.raises(KeyNotFoundError):
        run(router.delete_batch(keys))
    assert [leg.finished for leg in legs] == [2, 2, 2]
