"""TCP server + client end-to-end: CRUD, batches, pipelining, admin."""

import asyncio
import json
import urllib.request

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError, KeyNotFoundError
from repro.net import AsyncNetClient, NetClient, serve_tcp

KEYS = np.sort(np.random.default_rng(11).uniform(0, 1e9, 20_000))
VALUES = np.arange(KEYS.size, dtype=np.int64) * 10


def run(coro):
    return asyncio.run(coro)


async def _open(**overrides):
    net = await serve_tcp(KEYS, VALUES, n_shards=2, error=64.0, **overrides)
    client = AsyncNetClient(*net.address)
    await client.connect()
    return net, client


def test_crud_roundtrip():
    async def scenario():
        net, c = await _open()
        try:
            assert (await c.ping())["pong"] is True
            assert await c.get(KEYS[123]) == VALUES[123]
            assert await c.get(-1.0, default=-7) == -7
            await c.insert(KEYS[0] + 0.5, 999)
            assert await c.get(KEYS[0] + 0.5) == 999
            assert await c.delete(KEYS[0] + 0.5) == 999
            with pytest.raises(KeyNotFoundError):
                await c.delete(KEYS[0] + 0.5)
            k, v = await c.range(KEYS[100], KEYS[160])
            assert k.size == 61
            assert np.array_equal(v, VALUES[100:161])
        finally:
            await c.close()
            await net.close()

    run(scenario())


def test_batch_verbs_match_engine():
    async def scenario():
        net, c = await _open()
        try:
            out = await c.get_batch(KEYS[:256])
            assert np.array_equal(out, VALUES[:256])
            rows = np.array([[KEYS[0], KEYS[50]], [KEYS[60], KEYS[70]]])
            pairs = await c.range_batch(rows)
            assert [p[0].size for p in pairs] == [51, 11]
            await c.insert_batch([1.0, 2.0, 3.0], [-1, -2, -3])
            assert list(await c.get_batch([1.0, 2.0, 3.0])) == [-1, -2, -3]
            assert list(await c.delete_batch([1.0, 2.0, 3.0])) == [-1, -2, -3]
        finally:
            await c.close()
            await net.close()

    run(scenario())


def test_pipelined_requests_share_one_connection():
    async def scenario():
        net, c = await _open()
        try:
            out = await asyncio.gather(
                *[c.get(float(k)) for k in KEYS[:128]]
            )
            assert list(out) == list(VALUES[:128])
            st = c.stats()
            assert st["reconnects"] == 0
            # all 128 requests multiplexed over the eagerly-dialed slot
            assert net.net_stats()["connections_opened"] == 1
        finally:
            await c.close()
            await net.close()

    run(scenario())


def test_typed_error_crosses_the_wire_and_connection_survives():
    async def scenario():
        net, c = await _open()
        try:
            with pytest.raises(KeyNotFoundError):
                await c.delete(-123.0)
            # the same connection keeps serving after the error reply
            assert await c.get(KEYS[7]) == VALUES[7]
            assert net.net_stats()["errors"] == 1
        finally:
            await c.close()
            await net.close()

    run(scenario())


def test_server_stats_exposes_net_block():
    async def scenario():
        net, c = await _open()
        try:
            await c.get(KEYS[0])
            st = await c.server_stats()
            assert st["net"]["connections_active"] == 1
            assert st["net"]["frames_in"] >= 2
            assert st["net"]["listen"].startswith("127.0.0.1:")
            assert "max_delay" in st["net"]
        finally:
            await c.close()
            await net.close()

    run(scenario())


def test_sync_client_from_plain_code():
    # The sync client owns a private loop thread; it must work from code
    # with no ambient event loop (here: an executor thread, while the
    # server runs on the main loop).
    async def serve_and_probe():
        net = await serve_tcp(KEYS, VALUES, n_shards=2)

        def probe():
            with NetClient(*net.address) as sc:
                assert sc.ping()["pong"] is True
                assert sc.get(KEYS[42]) == VALUES[42]
                sc.insert(0.25, 5)
                assert sc.delete(0.25) == 5
                assert list(sc.get_batch(KEYS[:4])) == list(VALUES[:4])
                with pytest.raises(InvalidParameterError, match="bounds"):
                    sc.range_batch(np.zeros((2, 3)))

        await asyncio.get_running_loop().run_in_executor(None, probe)
        await net.close()

    run(serve_and_probe())


def test_graceful_drain_completes_inflight_requests():
    async def scenario():
        net, c = await _open(max_delay=0.05, eager_flush=False)
        try:
            # Launch gets that ride the 50ms batch timer, then close the
            # server while they are in flight: drain must answer them.
            gets = [
                asyncio.ensure_future(c.get(float(k))) for k in KEYS[:8]
            ]
            await asyncio.sleep(0.01)
            await net.close()
            out = await asyncio.gather(*gets)
            assert list(out) == list(VALUES[:8])
        finally:
            await c.close()

    run(scenario())


def test_admin_endpoint_rides_along():
    async def scenario():
        net = await serve_tcp(
            KEYS, VALUES, n_shards=2, telemetry="metrics", admin_port=0
        )
        c = AsyncNetClient(*net.address)
        await c.connect()
        try:
            await c.get(KEYS[0])
            admin = net.server.admin
            assert admin is not None
            loop = asyncio.get_running_loop()

            def fetch(path):
                url = f"http://{admin.host}:{admin.port}{path}"
                return urllib.request.urlopen(url, timeout=10).read()

            doc = json.loads(await loop.run_in_executor(
                None, fetch, "/stats"
            ))
            assert doc["net"]["connections_active"] == 1
            metrics = (await loop.run_in_executor(
                None, fetch, "/metrics"
            )).decode()
            assert "repro_net_frames_total" in metrics
            assert "repro_net_connections" in metrics
        finally:
            await c.close()
            await net.close()

    run(scenario())
