"""SLA-driven batching: the controller steers ``max_delay`` to the target."""

import asyncio

import numpy as np
import pytest

from repro.core.errors import InvalidParameterError
from repro.net import AsyncNetClient, serve_tcp
from repro.serve.server import Server
from repro.serve.sla import SlaController

KEYS = np.sort(np.random.default_rng(2).uniform(0, 1e9, 30_000))


class _FakeBatcher:
    def __init__(self, max_delay):
        self.max_delay = max_delay


def test_decrease_converges_in_one_step_when_p99_blown():
    b = _FakeBatcher(0.05)
    ctl = SlaController(b, target_p99_us=2000.0, min_samples=4)
    # 50ms latencies: p99 wildly over a 2ms target.
    ctl.observe([0.05] * 32)
    assert ctl.tick() == "decrease"
    # One step lands at half the target, not at delay/2 (which would
    # still be 12x over target).
    assert b.max_delay == pytest.approx(0.001)
    assert ctl.last_p99_us == pytest.approx(50_000.0)


def test_increase_recovers_headroom_under_light_load():
    b = _FakeBatcher(0.0002)
    ctl = SlaController(b, target_p99_us=2000.0, min_samples=4,
                        ceiling=0.002)
    ctl.observe([0.0001] * 32)  # p99 100us << 50% of 2000us target
    assert ctl.tick() == "increase"
    assert b.max_delay > 0.0002
    for _ in range(50):
        ctl.observe([0.0001] * 32)
        ctl.tick()
    assert b.max_delay == pytest.approx(0.002)  # parked at the ceiling


def test_hysteresis_band_holds():
    b = _FakeBatcher(0.001)
    ctl = SlaController(b, target_p99_us=2000.0, min_samples=4, slack=0.5)
    ctl.observe([0.0015] * 32)  # p99 1500us: between 1000 and 2000
    assert ctl.tick() == "hold"
    assert b.max_delay == 0.001


def test_small_windows_do_not_decide():
    b = _FakeBatcher(0.001)
    ctl = SlaController(b, target_p99_us=2000.0, min_samples=16)
    ctl.observe([0.5] * 8)
    assert ctl.tick() is None
    assert b.max_delay == 0.001


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidParameterError):
        SlaController(_FakeBatcher(0.001), target_p99_us=0.0)
    with pytest.raises(InvalidParameterError):
        SlaController(_FakeBatcher(0.001), target_p99_us=100.0, interval=0)


def test_load_step_brings_p99_back_under_target():
    """The acceptance scenario: a load step blows p99 past the target;
    the adapted ``max_delay`` brings the next window's p99 back under.

    The latency stream is synthetic — a request waits out the batch timer
    and then a fixed service time — so the assertion is on the control
    law, not on how fast loopback happened to be this run."""
    b = _FakeBatcher(0.05)  # 50ms batch timer: p99 starts ~50000us
    ctl = SlaController(b, target_p99_us=5000.0)
    service = np.linspace(100e-6, 400e-6, 96)

    def burst():
        ctl.observe(list(b.max_delay + service))

    burst()  # load step at the 50ms delay
    assert ctl.tick() == "decrease"
    assert ctl.last_p99_us > 5000.0
    assert b.max_delay <= 0.0025
    burst()  # same load at the adapted delay
    assert ctl.tick() == "hold"
    assert ctl.last_p99_us < 5000.0
    assert ctl.stats()["decreases"] == 1


def test_sla_state_and_adapted_delay_are_wired_through_tcp_stats():
    async def scenario():
        net = await serve_tcp(
            KEYS,
            n_shards=2,
            max_delay=0.05,
            sla_target_p99_us=5000.0,
            sla_interval=10.0,  # ticks driven manually below
        )
        srv = net.server
        ctl = srv._sla
        assert ctl is not None
        c = AsyncNetClient(*net.address, timeout=30.0)
        await c.connect()
        try:
            # Served requests feed the controller's window...
            await asyncio.gather(*[c.get(float(k)) for k in KEYS[:32]])
            assert ctl.stats()["window_pending"] == 32
            # ...and a decision moves the delay both stats blocks report.
            ctl.observe([0.05] * 32)
            assert ctl.tick() == "decrease"
            st = await c.server_stats()
            assert st["sla"]["decreases"] == 1
            assert st["sla"]["target_p99_us"] == 5000.0
            assert st["sla"]["max_delay"] == srv._batcher.max_delay <= 0.0025
            assert st["net"]["max_delay"] == srv._batcher.max_delay
        finally:
            await c.close()
            await net.close()

    asyncio.run(scenario())


def test_sla_task_runs_inside_server_lifecycle():
    async def scenario():
        srv = Server(
            __import__("repro.api", fromlist=["open_engine"]).open_engine(
                KEYS[:1000]
            ),
            sla_target_p99_us=1000.0,
            sla_interval=0.01,
        )
        async with srv:
            assert srv._sla.stats()["running"] is True
            await asyncio.gather(*[srv.get(float(k)) for k in KEYS[:64]])
            await asyncio.sleep(0.05)
            assert srv._sla.ticks >= 1
        assert srv._sla.stats()["running"] is False
        assert srv.stats()["sla"]["target_p99_us"] == 1000.0

    asyncio.run(scenario())
